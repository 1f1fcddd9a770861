"""Generate the committed benchmark corpus and its expected answers.

    python3 perfbench/gen_corpus.py [--seed 2026]

Writes perfbench/corpus/<workload>/ with instance and code files and a
jobs.json holding every job and its expected answer.  The answers come
from perfbench/reference.py (ranks over GF(q) via sympy) and from
theory, never from secix, so a disagreement with the program shows up
as a failed job when the benchmark runs.  Needs sympy; the benchmark
itself does not.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
DEFAULT_BUDGET = 2 ** 22  # secix's default state/span budget


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _receivers(rng, m, n, least, most):
    """n receivers knowing between `least` and `most` messages, the first
    knowing exactly `least`; each wants 1-3 messages it lacks."""
    recs = []
    for i in range(n):
        size = least if i == 0 else rng.randint(least, most)
        knows = sorted(rng.sample(range(1, m + 1), size))
        lacking = [j for j in range(1, m + 1) if j not in knows]
        wants = sorted(rng.sample(lacking, rng.randint(1, min(3, len(lacking)))))
        recs.append({"knows": knows, "wants": wants})
    return recs


def _adversary(rng, m, b):
    if rng.random() < 0.5:
        return {"type": "t_level", "t": rng.randint(1, min(2, m - b))}
    sets = [sorted(rng.sample(range(1, m + 1), rng.randint(1, min(2, m - b))))
            for _ in range(rng.randint(1, 3))]
    return {"type": "explicit", "sets": sets}


def _adversary_flags(adversary):
    if adversary["type"] == "t_level":
        return ["--t-level", str(adversary["t"])]
    return ["--access", json.dumps(adversary["sets"], separators=(",", ":"))]


def _instance(q, m, receivers, adversary=None):
    obj = {"q": q, "m": m, "receivers": receivers}
    if adversary is not None:
        obj["adversary"] = adversary
    return obj


# ---- verify ----------------------------------------------------------------

# (q, m, key symbols) with q^(m+k) joint states between 2^5 and 2^10
VERIFY_SHAPES = [(2, m, k) for m in range(3, 9) for k in range(0, 11 - m) if m + k >= 5] \
    + [(3, m, k) for m in range(3, 7) for k in range(0, 7 - m) if m + k >= 4] \
    + [(5, 3, 0), (5, 3, 1), (5, 4, 0)]
# enumerated states x (receivers + pairs): keeps a job between ~3 and ~50 ms,
# so that a pass is short and each job runs many times in a run
VERIFY_WORK = (300, 4000)
VERIFY_QUOTA = {"secure": 40, "leaking": 35, "undecodable": 35}
VERIFY_BUDGET_JOBS = 6


def _verify_case(rng):
    q, m, k = rng.choice(VERIFY_SHAPES)
    b = 2 if m >= 4 and rng.random() < 0.3 else 1
    adversary = _adversary(rng, m, b)
    n = rng.randint(2, 5)
    least = rng.randint(1, m - 1)
    receivers = _receivers(rng, m, n, least, m - 1)
    length = rng.randint(1, m)
    G = [[rng.randrange(q) for _ in range(length)] for _ in range(m)]
    Gt = [[rng.randrange(q) for _ in range(length)] for _ in range(k)]
    if k and rng.random() < 0.5:
        # mask extra columns with the keys: they carry no information,
        # so the verdict is that of the unkeyed part
        extra = rng.randint(1, k)
        for row in G:
            row.extend(rng.randrange(q) for _ in range(extra))
        Gt = [[0] * length + [int(i == j) for j in range(extra)] for i in range(k)]
    states = q ** (m + k)
    work = states * (n + len(ref.pairs(m, adversary, b)))
    if not VERIFY_WORK[0] <= work <= VERIFY_WORK[1]:
        return None
    report = ref.verify_report(q, m, G, Gt, receivers, adversary, b)
    if not all(report["decodable"]):
        kind = "undecodable"
    elif report["secure"]:
        kind = "secure"
    else:
        kind = "leaking"
    code = {"kind": "linear_rand" if k else "linear_det", "q": q, "G": G}
    if k:
        code["Gtilde"] = Gt
    return kind, dict(q=q, m=m, receivers=receivers, adversary=adversary, b=b,
                      code=code, states=states, report=report)


def gen_verify(rng, out: Path):
    cases, counts = [], dict.fromkeys(VERIFY_QUOTA, 0)
    for _ in range(2_000_000):
        if counts == VERIFY_QUOTA:
            break
        made = _verify_case(rng)
        if made is None or counts[made[0]] >= VERIFY_QUOTA[made[0]]:
            continue
        counts[made[0]] += 1
        cases.append(made[1])
    else:
        raise SystemExit(f"verify quotas not met: {counts}")
    jobs = []
    for i, case in enumerate(cases):
        in_file = i % 2 == 0  # half read the adversary from the file, half from flags
        inst_name, code_name = f"v{i:02d}.instance.json", f"v{i:02d}.code.json"
        _write(out / inst_name, _instance(case["q"], case["m"], case["receivers"],
                                          case["adversary"] if in_file else None))
        _write(out / code_name, case["code"])
        flags = ([] if in_file else _adversary_flags(case["adversary"])) + ["--b", str(case["b"])]
        report = case["report"]
        exit_code = 0 if report["secure"] and all(report["decodable"]) else 2
        jobs.append({"id": f"v{i:02d}", "instance": inst_name, "code": code_name,
                     "flags": flags, "expect": dict(report, exit=exit_code)})
        if i < VERIFY_BUDGET_JOBS:
            budget = case["states"] - 1 - i
            jobs.append({"id": f"v{i:02d}-budget", "instance": inst_name, "code": code_name,
                         "flags": flags + ["--budget", str(budget)], "expect": {"exit": 4}})
    _write(out / "jobs.json", jobs)
    return jobs


# ---- search ----------------------------------------------------------------

SEARCH_MAX_CANDIDATES = 256  # keeps passes short, as for verify
SEARCH_QUOTA = {1: 20, 2: 40}  # instances per optimal length


def _search_case(rng):
    q = rng.choice([2, 2, 3])
    m = rng.choice([3, 4, 5])
    adversary = _adversary(rng, m, 1)
    receivers = _receivers(rng, m, rng.randint(2, 4), rng.randint(1, m - 1), m - 1)
    length = 1
    while q ** (m * length) <= SEARCH_MAX_CANDIDATES:
        G = ref.lex_first_code(q, m, length, receivers, adversary, 1)
        if G is not None:
            return dict(q=q, m=m, receivers=receivers, adversary=adversary, length=length, G=G)
        length += 1
    return None


def gen_search(rng, out: Path):
    cases, counts = [], dict.fromkeys(SEARCH_QUOTA, 0)
    for _ in range(100_000):
        if counts == SEARCH_QUOTA:
            break
        case = _search_case(rng)
        if case is None or counts.get(case["length"], 0) >= SEARCH_QUOTA.get(case["length"], 0):
            continue
        counts[case["length"]] += 1
        cases.append(case)
    else:
        raise SystemExit(f"search quotas not met: {counts}")
    jobs = []
    for i, case in enumerate(cases):
        in_file = i % 2 == 0
        inst_name = f"s{i:02d}.instance.json"
        _write(out / inst_name, _instance(case["q"], case["m"], case["receivers"],
                                          case["adversary"] if in_file else None))
        flags = [] if in_file else _adversary_flags(case["adversary"])
        best = case["length"]
        jobs.append({"id": f"s{i:02d}-at{best}", "instance": inst_name,
                     "flags": flags + ["--length", str(best)],
                     "expect": {"exit": 0, "found": True, "length": best,
                                "code": {"kind": "linear_det", "q": case["q"], "G": case["G"]}}})
        jobs.append({"id": f"s{i:02d}-at{best - 1}", "instance": inst_name,
                     "flags": flags + ["--length", str(best - 1)],
                     "expect": {"exit": 2, "found": False, "length": best - 1}})
    _write(out / "jobs.json", jobs)
    return jobs


# ---- roundtrip -------------------------------------------------------------

PRIMES = [p for p in range(13, 252) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
ROUNDTRIP_INSTANCES = 14
ROUNDTRIP_SPAN_MAX = 20000  # enumerable column spans stay below this many vectors
DECODE_LINES = 40


def _roundtrip_case(rng, over_budget):
    m = rng.randint(12, 40)
    q = rng.choice([p for p in PRIMES if p >= m])
    if over_budget:
        fits = [ell for ell in range(2, m // 2 + 1) if q ** ell > DEFAULT_BUDGET]
    else:
        fits = [ell for ell in range(1, m // 2 + 1) if q ** ell <= ROUNDTRIP_SPAN_MAX]
    if not fits:
        return None
    ell = rng.choice(fits)
    least = m - ell
    receivers = _receivers(rng, m, rng.randint(3, 5), least, m - 1)
    return dict(q=q, m=m, ell=ell, least=least, receivers=receivers)


def gen_roundtrip(rng, out: Path):
    cases = []
    while len(cases) < ROUNDTRIP_INSTANCES:
        case = _roundtrip_case(rng, over_budget=len(cases) % 3 == 2)
        if case is not None:
            cases.append(case)
    chains = []
    for i, case in enumerate(cases):
        inst_name = f"r{i:02d}.instance.json"
        _write(out / inst_name, _instance(case["q"], case["m"], case["receivers"]))
        least, m = case["least"], case["m"]
        for answer in ("yes", "no"):
            b = rng.choice([1, 2])
            if answer == "yes":
                t = rng.randint(0, least - b)
            else:
                t = rng.randint(least - b + 1, min(m - 1, least + 2))
            expect = {"answer": answer, "analyze_exit": 0 if answer == "yes" else 2}
            if answer == "yes":
                over = case["q"] ** case["ell"] > DEFAULT_BUDGET
                expect.update(construct_exit=4 if over else 0, length=case["ell"],
                              min_side_info=least, security_level=least - 1, q=case["q"])
            else:
                expect.update(construct_exit=2)
            chains.append({"id": f"r{i:02d}-{answer}", "instance": inst_name,
                           "flags": ["--t-level", str(t), "--b", str(b)],
                           "lines": DECODE_LINES, "expect": expect})
    _write(out / "jobs.json", chains)
    return chains


GENERATORS = {"verify": gen_verify, "search": gen_search, "roundtrip": gen_roundtrip}
# the benchmark reports percentiles over distinct jobs: the 90th needs
# at least ten jobs beyond it
MIN_JOBS = 110


def job_count(name, entries):
    if name != "roundtrip":
        return len(entries)
    # analyze + construct, then encode + one decode per receiver when the answer is yes
    count = 0
    for chain in entries:
        count += 2
        if chain["expect"]["answer"] == "yes":
            inst = json.loads((CORPUS / name / chain["instance"]).read_text(encoding="utf-8"))
            count += 1 + len(inst["receivers"])
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    for name in sorted(GENERATORS):
        out = CORPUS / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        # one stream per workload, so tuning one workload's generator leaves the others unchanged
        rng = random.Random(f"{args.seed}:{name}")
        entries = GENERATORS[name](rng, out)
        jobs = job_count(name, entries)
        print(f"{name}: {len(entries)} entries, {jobs} jobs, written to {out.relative_to(HERE.parent)}")
        if jobs < MIN_JOBS:
            raise SystemExit(f"{name}: {jobs} jobs per pass, need at least {MIN_JOBS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
