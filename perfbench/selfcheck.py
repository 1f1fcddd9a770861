"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Feeds the harness real corpus jobs with deliberately wrong expected
answers, a job that raises, and exit-4 expectations that do not hold,
and checks that each is counted as a failed job, that the run goes on,
and that a run with a failed job exits non-zero.  Prints one line per
check; exits 1 if any check does not hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import secix.cli  # noqa: E402
import secix.oracle  # noqa: E402

FAILURES = []


def expect(label, holds, detail=""):
    print(f"{'PASS' if holds else 'FAIL'} {label}{'' if holds else ': ' + detail}")
    if not holds:
        FAILURES.append(label)


def run_specs(name, specs):
    workload = jobs.load(name)
    workload.specs = specs
    runner = run.Runner(secix.cli, workload, random.Random(0))
    for spec in specs:
        runner.run_unit(spec)
    return runner


def specs_of(name):
    return json.loads((jobs.CORPUS / name / "jobs.json").read_text(encoding="utf-8"))


def check_wrong_answers():
    verify = [s for s in specs_of("verify") if s["expect"]["exit"] != 4][:3]
    verify[1] = copy.deepcopy(verify[1])
    verify[1]["expect"]["decodable"][0] = not verify[1]["expect"]["decodable"][0]
    r = run_specs("verify", verify)
    expect("verify: a wrong decodability verdict fails its job only",
           (r.attempted, r.failed) == (3, 1), f"attempted {r.attempted}, failed {r.failed}")

    search = copy.deepcopy([s for s in specs_of("search") if s["expect"]["found"]][:2])
    G = search[0]["expect"]["code"]["G"]
    G[0][0] = (G[0][0] + 1) % search[0]["expect"]["code"]["q"]
    r = run_specs("search", search)
    expect("search: a wrong lex-first generator fails its job only",
           (r.attempted, r.failed) == (2, 1), f"attempted {r.attempted}, failed {r.failed}")

    chain = copy.deepcopy(next(s for s in specs_of("roundtrip")
                               if s["expect"].get("construct_exit") == 0))
    chain["expect"]["security_level"] += 1
    r = run_specs("roundtrip", [chain])
    expect("roundtrip: a wrong security level fails construct and ends the chain",
           (r.attempted, r.failed) == (2, 1), f"attempted {r.attempted}, failed {r.failed}")


def check_raising_job():
    original = secix.oracle.check_security
    calls = []

    def raise_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected by the self-check")
        return original(*args, **kwargs)

    secix.oracle.check_security = raise_once
    try:
        r = run_specs("verify", [s for s in specs_of("verify") if s["expect"]["exit"] != 4][:3])
    finally:
        secix.oracle.check_security = original
    expect("a job that raises is failed and the run goes on",
           (r.attempted, r.failed) == (3, 1) and "raised RuntimeError" in r.failures[0],
           f"attempted {r.attempted}, failed {r.failed}, failures {r.failures}")


def check_budget_exits():
    refusal = next(s for s in specs_of("verify") if s["expect"]["exit"] == 4)
    r = run_specs("verify", [refusal])
    expect("an exit-4 job that exits 4 passes", (r.attempted, r.failed) == (1, 0), str(r.failures))

    unbounded = copy.deepcopy(refusal)
    at = unbounded["flags"].index("--budget")
    del unbounded["flags"][at:at + 2]
    r = run_specs("verify", [unbounded])
    expect("an exit-4 job that runs to a verdict fails", (r.attempted, r.failed) == (1, 1),
           str(r.failures))

    normal = copy.deepcopy(next(s for s in specs_of("verify") if s["expect"]["exit"] != 4))
    normal["expect"] = {"exit": 4}
    r = run_specs("verify", [normal])
    expect("a job expected to exit 4 that exits otherwise fails", (r.attempted, r.failed) == (1, 1),
           str(r.failures))


def check_run_exit_status():
    """A whole run over a corpus holding one wrong answer exits non-zero."""
    corpus = run.OUT / "selfcheck-corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.copytree(jobs.CORPUS / "verify", corpus / "verify")
    specs = [s for s in specs_of("verify") if s["expect"]["exit"] != 4][:2]
    specs[0]["expect"]["secure"] = not specs[0]["expect"]["secure"]
    (corpus / "verify" / "jobs.json").write_text(json.dumps(specs), encoding="utf-8")
    saved, jobs.CORPUS = jobs.CORPUS, corpus
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = run.main(["--workload", "verify", "--seed", "1", "--seconds", "0"])
    finally:
        jobs.CORPUS = saved
        shutil.rmtree(corpus, ignore_errors=True)
    result = json.loads(out.getvalue().splitlines()[-1])
    expect("a run with a wrong expected answer reports failures and exits non-zero",
           status != 0 and not result["correct"] and result["failed"] > 0
           and result["failed"] / result["attempted"] > 0,
           f"exit {status}, result {result}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_wrong_answers()
    check_raising_job()
    check_budget_exits()
    check_run_exit_status()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all self-checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
