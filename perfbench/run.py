"""secix benchmark: CLI jobs run in-process through `secix.cli.main`.

    python3 perfbench/run.py --workload verify|search|roundtrip \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; secix is imported from ./src.  One
client runs the workload's jobs in a closed loop, in one process and
one thread, with stdin/stdout redirected, and checks every job's exit
code and output against the committed expected answer.  It runs whole
passes over the workload's corpus (the seed orders them) until
--seconds have passed and at least MIN_PASSES passes are done.

--trace 0 reports the end-to-end metrics.  Job times are each job's
best latency over the run's passes: a shared host's speed drifts over
seconds to minutes, and a job's best time is what stays put from run to
run.  Every corpus has more than 110 distinct jobs, so at least ten lie
beyond the 90th percentile.  --trace 1 alternates untraced and
traced passes and reports per-layer metrics per traced pass (see
perfbench/README.md).  The last line of stdout is one JSON object; the
exit code is 1 when any job failed.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
from jobs import Outcome  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 9
WARMUP_UNITS = 3
SHOW_FAILURES = 5

# a fresh interpreter's set-up: import the CLI and load the workload's files
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import secix.cli
from secix import codes, model
for kind, path in zip(sys.argv[2::2], sys.argv[3::2]):
    (model.load_instance if kind == "i" else codes.load_code)(path)
"""

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class Runner:
    """Closed-loop client: runs units, times jobs, checks outcomes."""

    def __init__(self, cli, workload, rng):
        self.cli = cli  # main is looked up per job, so a traced main is used
        self.workload = workload
        self.rng = rng
        self.latencies = []
        self.best = {}  # job label -> best latency in the run
        self.attempted = 0
        self.failed = 0
        self.stdout_bytes = 0
        self.failures = []
        self.on_job = None  # called with the job index before each job

    def run_job(self, job):
        out = io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(job.argv)
        except Exception:  # a raising job is a failed job, not a failed run
            code = None
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        finally:
            seconds = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
        stdout = out.getvalue()
        if error:
            problem = f"raised {error}"
        else:
            try:
                problem = job.check(code, stdout)
            except Exception as exc:  # output of an unexpected shape
                problem = f"unexpected output ({type(exc).__name__}: {exc})"
        return Outcome(code, stdout, seconds, problem)

    def run_unit(self, spec, record=True):
        unit = self.workload.make_unit(spec, self.rng)
        outcome = None
        while True:
            try:
                job = unit.send(outcome)
            except StopIteration:
                return
            if record and self.on_job is not None:
                self.on_job(self.attempted)
            outcome = self.run_job(job)
            if not record:
                continue
            self.attempted += 1
            self.latencies.append(outcome.seconds)
            self.best[job.label] = min(outcome.seconds, self.best.get(job.label, outcome.seconds))
            self.stdout_bytes += len(outcome.stdout.encode())
            if outcome.problem:
                self.failed += 1
                if len(self.failures) < SHOW_FAILURES:
                    self.failures.append(f"{job.label}: {outcome.problem}")

    def run_pass(self):
        """One pass over the corpus in a seeded order; returns its wall time."""
        specs = list(self.workload.specs)
        self.rng.shuffle(specs)
        start = time.perf_counter()
        for spec in specs:
            self.run_unit(spec)
        return time.perf_counter() - start

    def warm_up(self):
        for spec in self.workload.specs[:WARMUP_UNITS]:
            self.run_unit(spec, record=False)


def _fresh_interpreter_s(args):
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_sample(workload):
    files = [x for pair in workload.input_files for x in pair]
    return _fresh_interpreter_s(["-c", SETUP_CODE, str(SRC), *files])


def _importtime():
    """(import secix.cli, import numpy) in seconds, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import secix.cli"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    secix_us = numpy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, label = int(parts[1]), parts[2][1:]
        name = label.strip()
        nested = label != name
        if not nested and (name == "secix" or name.startswith("secix.")):
            secix_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return secix_us / 1e6, numpy_us / 1e6


def measure_imports():
    samples = [_importtime() for _ in range(SETUP_REPEATS)]
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def _quantile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_end_to_end(runner, seconds):
    runner.warm_up()
    setups, elapsed, passes = [], 0.0, 0
    while elapsed < seconds or passes < MIN_PASSES:
        elapsed += runner.run_pass()
        passes += 1
        # spread the set-ups over the run, so that one slow spell of the host moves few of them
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_sample(runner.workload))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(runner.workload))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = list(runner.best.values())
    return {
        "jobs_per_s": len(best) / sum(best),
        "job_p50_s": statistics.median(best),
        "job_p90_s": _quantile(best, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_kib / 1024,
    }


def run_traced(runner, seconds, package, spans_path):
    import_s, import_numpy_s = measure_imports()
    tracer = Tracer()
    refusal = getattr(package.oracle, "BudgetExceededError", ())
    runner.warm_up()
    untraced, traced, job_s = [], [], 0.0
    first = runner.attempted
    origin = time.perf_counter()
    while not traced or time.perf_counter() - origin < seconds:
        runner.on_job = None
        untraced.append(runner.run_pass())
        before = len(runner.latencies)
        runner.on_job = lambda index: setattr(tracer, "job", index)
        tracer.install(package, refusal)
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        job_s += sum(runner.latencies[before:])
    runner.on_job = None
    tracer.write_spans(spans_path, origin)
    return per_layer_metrics(tracer, len(traced), job_s, untraced, traced,
                             (runner.attempted - first) // (len(untraced) + len(traced)),
                             runner.stdout_bytes, import_s, import_numpy_s)


def per_layer_metrics(tracer, passes, job_s, untraced, traced, jobs_per_pass,
                      stdout_bytes, import_s, import_numpy_s):
    """Per-layer metrics, each per traced pass over the corpus."""
    calls = {k: v / passes for k, v in tracer.calls.items()}
    self_s = {k: v / passes for k, v in tracer.self_s.items()}
    counts = {k: v / passes for k, v in tracer.counts.items()}
    job_s /= passes
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("oracle.check_security", "oracle.check_decodability", "oracle.entropy_bits",
                 "codes.encode", "codes.security_level", "codes.decode",
                 "gf.rref", "gf.solve", "gf.nullspace",
                 "analysis.search_linear", "analysis.decide", "cli.main"):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    for name in ("codes.linear_code_new", "gf.rank", "gf.matrix_new", "gf.matmul", "model.expand"):
        put(f"{name}.calls", calls.get(name, 0), "count")
    for name in ("codes.construct", "model.load_instance", "model.validate", "model.normalize",
                 "model.build_graph", "model.is_acyclic"):
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")

    states = counts.get("oracle.states_visited", 0)
    oracle_calls = counts.get("oracle.calls", 0)
    oracle_s = counts.get("oracle.inclusive_s", 0.0)
    put("oracle.calls", oracle_calls, "count")
    put("oracle.states_visited", states, "count")
    put("oracle.states_per_call", states / oracle_calls if oracle_calls else 0.0, "count")
    put("oracle.us_per_state", 1e6 * oracle_s / states if states else 0.0, "us")
    put("oracle.pairs_checked", counts.get("oracle.pairs_checked", 0), "count")
    put("oracle.budget_refusals", counts.get("oracle.budget_refusals", 0), "count")
    put("codes.budget_refusals", counts.get("codes.budget_refusals", 0), "count")
    put("oracle.inclusive_s", oracle_s, "s")
    put("oracle.inclusive_share", oracle_s / job_s, "ratio")

    candidates = counts.get("analysis.search.candidates", 0)
    decodable = counts.get("analysis.search.decodable", 0)
    put("analysis.search.candidates", candidates, "count")
    put("analysis.search.decodable", decodable, "count")
    put("analysis.search.decodable_ratio", decodable / candidates if candidates else 0.0, "ratio")
    put("analysis.search.security_checks", counts.get("analysis.search.security_checks", 0), "count")

    for layer in LAYERS:
        layer_s = tracer.layer_self_s(layer) / passes
        put(f"{layer}.self_s", layer_s, "s")
        put(f"{layer}.share", layer_s / job_s, "ratio")
    put("cli.stdout_bytes", stdout_bytes / (len(untraced) + len(traced)), "B")
    put("cli.import_s", import_s, "s")
    put("cli.import_numpy_s", import_numpy_s, "s")

    put("trace.jobs", jobs_per_pass, "count")
    put("trace.job_s", job_s, "s")
    put("trace.spans", len(tracer.spans) / passes, "count")
    put("trace.untraced_pass_s", statistics.median(untraced), "s")
    put("trace.traced_pass_s", statistics.median(traced), "s")
    put("trace.overhead_ratio", sum(traced) / sum(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="secix benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "secix" / "cli.py").is_file():
        print(f"error: no secix sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import secix
    import secix.cli

    OUT.mkdir(exist_ok=True)
    workload = jobs_mod.load(args.workload)
    runner = Runner(secix.cli, workload, random.Random(args.seed))
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = run_traced(runner, args.seconds, secix, spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = run_end_to_end(runner, args.seconds)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed_ratio = runner.failed / runner.attempted
    print(f"{args.workload}: {runner.attempted} jobs, failed_ratio {failed_ratio:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
