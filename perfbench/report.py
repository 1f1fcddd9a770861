"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/report.py [--workload verify ...] [--runs 10]
        [--seconds 20] [--trace] [--first-seed 1] [--save FILE]

Runs perfbench/run.py once per workload and seed, one run at a time,
and prints per workload the failed ratio and, for every metric, its
median, quartiles and spread (quartile distance over median, the
figure BENCHMARK.json's bounds apply to).  --save writes every run's
result line and the summary as JSON.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOAD_NAMES  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def summarise(results, bounds):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    rows = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        rows[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / median if median else 0.0,
                      "bound": bounds.get(name)}
    return {"runs": len(results), "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted if attempted else 0.0, "metrics": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status, saved = 0, {}
    for workload in args.workload or WORKLOAD_NAMES:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, result = run_once(workload, seed, seconds, args.trace)
            status |= code != 0
            if result is not None:
                results.append(result)
        if not results:
            print(f"{workload}: no result")
            status = 1
            continue
        summary = summarise(results, bounds)
        saved[workload] = {"summary": summary, "results": results}
        print(f"{workload}: {summary['runs']} runs of {seconds:g} s, {summary['attempted']} jobs, "
              f"failed_ratio {summary['failed_ratio']:.4f}")
        for name, row in summary["metrics"].items():
            flag = ""
            if row["bound"] is not None and name != "setup_s" and row["spread"] > row["bound"] / 3:
                flag = "  spread above a third of the bound"
            print(f"  {name:36s} {row['median']:12.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}{flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
