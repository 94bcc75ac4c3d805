"""Measure the benchmark on several seeds and write its figures.

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/baseline.json

Runs every workload of BENCHMARK.json once per seed with tracing off, at the
declared run length, and reports for each end-to-end metric the median, the
quartiles and the spread (interquartile range over the median, the figure
the metric's bound is compared with).  Then makes one traced run per
workload on the first seed and records its per-layer metrics.  Runs from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", help="default: all declared")
    parser.add_argument("--out", type=Path, help="write the figures here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = _seeds(args.seeds)
    report = {}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            info, result = _run(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(workload, seed, result["correct"], info["digest"],
                  {k: v["value"] for k, v in result["metrics"].items()}, flush=True)
        figures = {"seeds": seeds, "machine": info["machine"],
                   "correct": all(r["correct"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs)}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            figures[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": metric["bound"], "unit": metric["unit"], "values": values}
            print(f"  {workload} {metric['name']}: median {median:.6g} "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        info, result = _run(workload, seeds[0], spec["run_seconds"], 1)
        figures["traced"] = {"seed": seeds[0], "correct": result["correct"],
                             "digest": info["digest"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        report[workload] = figures
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
