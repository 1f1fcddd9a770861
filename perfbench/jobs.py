"""The benchmark's workloads: committed corpus entries turned into CLI jobs.

A job is one `secix` invocation (argv plus stdin) with a check of its
exit code and output against the expected answer.  A unit is a
generator of jobs that receives each job's outcome: verify and search
units are single jobs, a roundtrip unit is the chain analyze ->
construct -> encode -> decode (one decode per receiver) on one
instance.  The run's seed only orders the units and draws the message
vectors a roundtrip encodes, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
WORKDIR = HERE / "out" / "work"

WORKLOAD_NAMES = ("verify", "search", "roundtrip")


@dataclass
class Job:
    label: str
    argv: list
    check: Callable  # (exit code, stdout) -> None when correct, else the reason
    stdin: str = ""


@dataclass
class Outcome:
    exit: int | None
    stdout: str
    seconds: float
    problem: str | None


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _expect_exit(expected, code):
    if code != expected:
        return f"exit {code}, expected {expected}"
    return None


def _parse(out):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


# ---- verify ----------------------------------------------------------------

def _same_float(a, b):
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_verify(expect):
    def check(code, out):
        problem = _expect_exit(expect["exit"], code)
        if problem or code == 4:
            return problem or (None if out == "" else "output printed on a budget refusal")
        got, problem = _parse(out)
        if problem:
            return problem
        for key in ("secure", "block_size", "decodable"):
            if got.get(key) != expect[key]:
                return f"{key} = {got.get(key)!r}, expected {expect[key]!r}"
        pairs = got.get("pairs")
        if not isinstance(pairs, list) or len(pairs) != len(expect["pairs"]):
            return f"{len(pairs or [])} pairs, expected {len(expect['pairs'])}"
        for have, want in zip(pairs, expect["pairs"]):
            for key in ("A", "B", "uniform"):
                if have.get(key) != want[key]:
                    return f"pair A={want['A']} B={want['B']}: {key} = {have.get(key)!r}"
            for key in ("H_B_bits", "H_B_given_CA_bits"):
                if not _same_float(have.get(key), want[key]):
                    return f"pair A={want['A']} B={want['B']}: {key} = {have.get(key)!r}, expected {want[key]}"
        return None
    return check


def verify_unit(spec, rng):
    where = CORPUS / "verify"
    argv = ["verify", "--json", "--instance", str(where / spec["instance"]),
            "--code", str(where / spec["code"])] + spec["flags"]
    yield Job(spec["id"], argv, check_verify(spec["expect"]))


# ---- search ----------------------------------------------------------------

def check_search(expect):
    def check(code, out):
        problem = _expect_exit(expect["exit"], code)
        if problem:
            return problem
        got, problem = _parse(out)
        if problem:
            return problem
        want = {"found": expect["found"], "length": expect["length"]}
        if expect["found"]:
            want["code"] = expect["code"]
        if got != want:
            return f"printed {got!r}, expected {want!r}"
        return None
    return check


def search_unit(spec, rng):
    argv = ["search", "--json", "--instance", str(CORPUS / "search" / spec["instance"])] + spec["flags"]
    yield Job(spec["id"], argv, check_search(spec["expect"]))


# ---- roundtrip -------------------------------------------------------------

def _code_shape(code, m, expect):
    """Problem with a printed or written code object, or None."""
    G = code.get("G") if isinstance(code, dict) else None
    if (not isinstance(G, list) or code.get("q") != expect["q"] or len(G) != m
            or any(len(row) != expect["length"] for row in G)):
        return f"code is not a {m} x {expect['length']} generator over GF({expect['q']})"
    return None


def check_analyze(expect, m):
    def check(code, out):
        problem = _expect_exit(expect["analyze_exit"], code)
        if problem:
            return problem
        got, problem = _parse(out)
        if problem:
            return problem
        if got.get("answer") != expect["answer"]:
            return f"answer {got.get('answer')!r}, expected {expect['answer']!r}"
        if expect["answer"] == "yes":
            return _code_shape(got.get("certificate"), m, expect)
        return None
    return check


def check_construct(expect, m, code_path: Path):
    def check(code, out):
        problem = _expect_exit(expect["construct_exit"], code)
        if problem or code == 4:
            return problem or (None if out == "" else "output printed on a budget refusal")
        got, problem = _parse(out)
        if problem:
            return problem
        if expect["answer"] == "no":
            return None if got.get("answer") == "no" else f"answer {got.get('answer')!r}, expected 'no'"
        want = {k: expect[k] for k in ("length", "min_side_info", "security_level", "q")}
        if got != want:
            return f"printed {got!r}, expected {want!r}"
        try:
            written = _load_json(code_path)
        except (OSError, ValueError):
            return "no readable code file written"
        return _code_shape(written, m, expect)
    return check


def check_lines(expected_rows):
    def check(code, out):
        problem = _expect_exit(0, code)
        if problem:
            return problem
        try:
            rows = [[int(v) for v in line.split()] for line in out.splitlines()]
        except ValueError:
            return "non-integer output symbol"
        if rows != expected_rows:
            bad = next((i for i, (a, b) in enumerate(zip(rows, expected_rows)) if a != b),
                       min(len(rows), len(expected_rows)))
            return f"output line {bad + 1} differs ({len(rows)} lines, expected {len(expected_rows)})"
        return None
    return check


def _encode(G, q, x):
    """Reference encoder: the codeword x G over GF(q)."""
    return [sum(xi * row[t] for xi, row in zip(x, G)) % q for t in range(len(G[0]))]


def _symbol_lines(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def roundtrip_unit(spec, rng):
    inst_path = CORPUS / "roundtrip" / spec["instance"]
    inst = _load_json(inst_path)
    m, expect, flags = inst["m"], spec["expect"], spec["flags"]
    code_path = WORKDIR / f"{spec['id']}.code.json"
    code_path.unlink(missing_ok=True)

    outcome = yield Job(f"{spec['id']}:analyze",
                        ["analyze", "--json", "--instance", str(inst_path)] + flags,
                        check_analyze(expect, m))
    if outcome.problem:
        return
    certificate = json.loads(outcome.stdout)["certificate"]
    outcome = yield Job(f"{spec['id']}:construct",
                        ["construct", "--json", "--instance", str(inst_path),
                         "--code", str(code_path)] + flags,
                        check_construct(expect, m, code_path))
    if outcome.problem or expect["answer"] != "yes":
        return
    if outcome.exit == 0:
        code = _load_json(code_path)
    else:
        # construct refused to enumerate the span: a user keeps the code
        # that analyze printed as its certificate and goes on with it
        code = certificate
        code_path.write_text(json.dumps(code), encoding="utf-8")

    q, G = code["q"], code["G"]
    messages = [[rng.randrange(q) for _ in range(m)] for _ in range(spec["lines"])]
    words = [_encode(G, q, x) for x in messages]
    yield Job(f"{spec['id']}:encode", ["encode", "--code", str(code_path)],
              check_lines(words), _symbol_lines(messages))
    for i, rec in enumerate(inst["receivers"], start=1):
        knows, wants = sorted(rec["knows"]), sorted(rec["wants"])
        stdin = _symbol_lines(w + [x[j - 1] for j in knows] for w, x in zip(words, messages))
        wanted = [[x[j - 1] for j in wants] for x in messages]
        yield Job(f"{spec['id']}:decode{i}",
                  ["decode", "--instance", str(inst_path), "--code", str(code_path),
                   "--receiver", str(i)],
                  check_lines(wanted), stdin)


# ---- workloads ---------------------------------------------------------------

@dataclass
class Workload:
    name: str
    specs: list
    make_unit: Callable  # (spec, rng) -> generator of Jobs
    input_files: list  # (kind, path): "i" instance, "c" code


def load(name: str) -> Workload:
    where = CORPUS / name
    specs = _load_json(where / "jobs.json")
    files = sorted({("i", str(where / s["instance"])) for s in specs}
                   | {("c", str(where / s["code"])) for s in specs if "code" in s})
    unit = {"verify": verify_unit, "search": search_unit, "roundtrip": roundtrip_unit}[name]
    if name == "roundtrip":
        WORKDIR.mkdir(parents=True, exist_ok=True)
    return Workload(name, specs, unit, files)
