"""Run one corrdetect benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 15 --trace 0

The client is this one process in a closed loop: it starts a full pass of
the workload, waits for its checked result, and starts the next until
``--seconds`` have passed (at least one pass).  Workloads with a worker
count above 1 hand replications to ``run_sweep``'s process pool; BLAS is
held to one thread, so a workload uses as many cores as it has workers.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of a
pass), ``setup_s`` (median over fresh processes of the time from process
start to the first Monte Carlo draw), ``reps_per_s`` (nominal draws of a
pass over ``wall_s``) and ``peak_rss_mb`` (peak RSS of this process plus the
largest pool child's).  ``--trace 1`` makes one untraced and one traced
single-process pass (and, for pooled workloads, one pass with the pool
counted) and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
records the machine, the workload's rationale, the result digest and the
base of every ratio.  Runs from the root of a checkout and uses the sources
under ``src/`` and the grid table in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
READY = "setup-done"


def _use_checkout_sources() -> None:
    missing = [p for p in ("src/corrdetect/__init__.py", "tests/test_acceptance.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"benchmark: missing {', '.join(missing)} under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import corrdetect

    if Path(corrdetect.__file__).resolve().parent != ROOT / "src" / "corrdetect":
        sys.exit(f"benchmark: imported corrdetect from {corrdetect.__file__}, "
                 f"not from {ROOT / 'src'}")


def _machine(seed: int) -> dict:
    import numpy
    import scipy

    cache = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "l3_cache": cache.read_text().strip() if cache.is_file() else None,
            "seed": seed}


def _quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _setup_seconds(workload: str, seed: int) -> list:
    """Process start to end of set-up, timed by this process, per fresh probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != READY:
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        samples.append(elapsed)
    return samples


def _timed(job, workers: int):
    start = time.perf_counter()
    outcome = job.run(workers)
    return outcome, time.perf_counter() - start


def _untraced(job, args) -> tuple:
    walls, outcomes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        outcome, wall = _timed(job, job.workers)
        outcomes.append(outcome)
        walls.append(wall)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = _setup_seconds(args.workload, args.seed)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "reps_per_s": (job.draws / wall, "1/s"),
        "peak_rss_mb": ((own + pool) / 1024.0, "MB"),
    }
    record = {"wall_s": _quartiles(walls), "setup_s": _quartiles(setup),
              "reps_per_s": {"nominal_draws_per_pass": job.draws, "wall_s": wall},
              "peak_rss_mb": {"self_kb": own, "largest_child_kb": pool}}
    return outcomes, metrics, record


def _traced(job, args) -> tuple:
    from bench_tracer import PoolCounter, Tracer, layer_metrics

    outcomes = []
    base, untraced_s = _timed(job, 1)
    with Tracer() as tracer:
        traced, traced_s = _timed(job, 1)
    outcomes += [base, traced]
    pool = PoolCounter()
    if job.workers > 1:
        with pool:
            outcomes.append(job.run(job.workers))
    layers = layer_metrics(tracer.spans, job.null_base)
    layers["risk.pool.tasks"] = pool.tasks
    layers["risk.pool.wait_s"] = pool.wait_s
    layers["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    metrics = {name: (value, "s" if name.endswith("_s") else
                      "count" if name.endswith((".calls", ".rows", ".tasks")) else "ratio")
               for name, value in layers.items()}
    record = {"risk.null_reps_ratio": {"base_cells_x_n_reps": job.null_base},
              "trace_overhead_frac": {"traced_s": traced_s, "untraced_s": untraced_s},
              "spans": len(tracer.spans),
              "pass_kinds": ["untraced workers=1", "traced workers=1"]
              + ([f"pool counted workers={job.workers}"] if job.workers > 1 else [])}
    return outcomes, metrics, record


def main(argv=None) -> int:
    # a worker is one core: BLAS starts no threads of its own (set before
    # numpy loads; pool workers and set-up probes inherit it)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _use_checkout_sources()
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    job = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    outcomes, metrics, record = (_traced if args.trace else _untraced)(job, args)
    digests = sorted({o.digest for o in outcomes})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    info = {"workload": args.workload, "rationale": job.rationale,
            "machine": _machine(args.seed), "workers": job.workers,
            "passes": len(outcomes), "digest": digests,
            "failed_frac": {"value": failed / attempted, "failed": failed,
                            "attempted": attempted}, **record}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
