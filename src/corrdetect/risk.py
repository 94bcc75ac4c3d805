"""Seeded Monte Carlo risk estimation and sweep orchestration.

The replication layout is deterministic by construction: replication i of
stream kind k (null / a given alternative) for cell c draws from the
generator seeded by SeedSequence(master_seed, spawn_key=(c, k, alt, i)).
Estimates therefore depend only on (plan, master_seed), never on worker
count or scheduling, and alternative estimates do not move when the
alternatives list is permuted (the alternative key is a stable hash of its
descriptor; two distinct descriptors with the same hash are refused).

A sweep cell is the unit of risk work: type I error does not depend on the
separation multiplier, so ``run_sweep`` makes one ``estimate_risk`` call per
cell, keyed by the cell number itself, on every multiplier's panel at once.
The null is simulated once and shared by all of the cell's rows; each row
takes the worst type II error over its own panel.  With a pool, one call
submits all of its null and alternative chunks in a single ``map``.

Separation convention: a multiplier m places alternatives at squared norm
||theta||^2 = m * rate_sq, where rate_sq is the branch value reported by the
rates module.  Risk estimates carry Wilson-interval half-widths (z = 1) as
standard errors; rates near 0 or 1 keep honest uncertainty that way.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .divergences import (
    GroupSupported,
    SingleGroupSparse,
    UniformSparse,
    draw as draw_prior,
)
from .errors import ContractError, CorrdetectError
from .geometry import SignalSpec, make_sparse_signal
from .models import check_family, sample
from .procedures import TestProcedure, build_test, evaluate, model_for
from .rates import rate_for
from .streams import stable_token, substream

__all__ = [
    "RiskEstimate",
    "SweepPlan",
    "estimate_risk",
    "default_alternatives",
    "run_sweep",
    "write_rows_csv",
    "write_manifest",
    "CSV_COLUMNS",
    "MIN_N_REPS",
]

MIN_N_REPS = 100  # fewest replications per risk estimate

CSV_COLUMNS = ["family", "p", "s", "gamma", "R", "regime", "rate_sq",
               "multiplier", "type_i", "worst_type_ii", "total", "se",
               "n_reps", "seed"]

_NULL_STREAM = 1
_ALT_STREAM = 2
_CAL_STREAM = 0


def wilson_halfwidth(k: int, n: int, z: float = 1.0) -> float:
    """Half-width of the Wilson score interval for k successes out of n."""
    denom = n + z * z
    return z * math.sqrt(k * (n - k) / n + z * z / 4.0) / denom


@dataclass(frozen=True)
class RiskEstimate:
    type_i: float
    worst_type_ii: float
    per_alternative: dict
    total: float
    se_type_i: float
    se_worst_type_ii: float
    se_total: float
    n_reps: int
    master_seed: int
    wall_time: float
    se_per_alternative: dict

    def descriptor(self) -> dict:
        return {
            "type_i": self.type_i, "worst_type_ii": self.worst_type_ii,
            "per_alternative": self.per_alternative, "total": self.total,
            "se_type_i": self.se_type_i, "se_worst_type_ii": self.se_worst_type_ii,
            "se_total": self.se_total, "n_reps": self.n_reps,
            "master_seed": self.master_seed, "wall_time": self.wall_time,
            "se_per_alternative": self.se_per_alternative,
        }

    def panel(self, alternatives: Sequence) -> tuple:
        """(worst_type_ii, its se, total, se_total) over some of the estimated
        alternatives, as an estimate on those alone would report them."""
        return _summary(self.type_i, self.se_type_i, self.per_alternative,
                        self.se_per_alternative, map(_alt_key, alternatives))


def _summary(type_i, se_i, per_alt, se_alt, keys) -> tuple:
    worst_key = max(keys, key=per_alt.__getitem__)  # ties: first key wins
    worst, se_ii = per_alt[worst_key], se_alt[worst_key]
    return worst, se_ii, type_i + worst, math.hypot(se_i, se_ii)


def _alt_key(alt) -> str:
    if isinstance(alt, SignalSpec):
        return "signal:" + json.dumps(alt.descriptor(), sort_keys=True)
    return "prior:" + json.dumps(alt.descriptor(), sort_keys=True)


def _reject_count_chunk(test, model, alt, master_seed, cell_id, kind, alt_code,
                        start, stop, v) -> int:
    # the null and fixed signals keep one theta; a prior is redrawn per replication
    prior = alt is not None and not isinstance(alt, SignalSpec)
    theta = None if alt is None or prior else alt.theta
    count = 0
    for i in range(start, stop):
        rng = substream(master_seed, cell_id, kind, alt_code, i)
        if prior:
            theta = draw_prior(alt, rng, v=v)
        obs = sample(model, theta, rng)
        if evaluate(test, obs, rng).reject:
            count += 1
    return count


def _chunk_worker(args):
    return _reject_count_chunk(*args)


def estimate_risk(test: TestProcedure, model, alternatives: Sequence,
                  n_reps: int, master_seed: int, *, cell_id: int = 0,
                  workers: int = 1, executor: Optional[ProcessPoolExecutor] = None
                  ) -> RiskEstimate:
    """Type I, per-alternative type II, and total risk for one test.

    ``alternatives`` mixes fixed SignalSpec vectors (evaluated as-is every
    replication) and PriorSpec distributions (redrawn per replication).
    Null and alternative replications use disjoint derived streams; an
    alternative listed twice is simulated once.
    """
    if not alternatives:
        raise ContractError("alternatives must be nonempty")
    if n_reps < MIN_N_REPS:
        raise ContractError(f"n_reps must be at least {MIN_N_REPS}")
    if workers < 1:
        raise ContractError("workers must be at least 1")
    start_time = time.perf_counter()
    v = getattr(model, "v", None)
    keys = {}  # stream token -> descriptor key, in first-seen order
    units = [(None, _NULL_STREAM, 0)]
    for alt in alternatives:
        key = _alt_key(alt)
        code = stable_token(key)
        if code in keys:
            if keys[code] != key:
                raise ContractError(f"alternatives {keys[code]} and {key} share "
                                    f"stream token {code}")
            continue
        keys[code] = key
        units.append((alt, _ALT_STREAM, code))
    counts = dict.fromkeys(((kind, code) for _, kind, code in units), 0)
    own_executor = None
    try:
        if workers > 1 and executor is None:
            own_executor = ProcessPoolExecutor(max_workers=workers)
            executor = own_executor
        chunk = max(200, n_reps // (8 * workers))
        tasks = [(test, model, alt, master_seed, cell_id, kind, alt_code,
                  a, min(a + chunk, n_reps), v)
                 for alt, kind, alt_code in units
                 for a in range(0, n_reps, chunk)]
        mapper = map if executor is None else executor.map
        for task, count in zip(tasks, mapper(_chunk_worker, tasks)):
            counts[task[5:7]] += count  # task[5:7] = (kind, alt_code)
    finally:
        if own_executor is not None:
            own_executor.shutdown()
    k_null = counts[(_NULL_STREAM, 0)]
    per_alt = {}
    se_alt = {}
    for code, key in keys.items():
        k = counts[(_ALT_STREAM, code)]
        per_alt[key] = (n_reps - k) / n_reps  # acceptance rate = type II
        se_alt[key] = wilson_halfwidth(n_reps - k, n_reps)
    type_i = k_null / n_reps
    se_i = wilson_halfwidth(k_null, n_reps)
    worst, se_ii, total, se_total = _summary(type_i, se_i, per_alt, se_alt, per_alt)
    return RiskEstimate(
        type_i=type_i, worst_type_ii=worst, per_alternative=per_alt,
        total=total, se_type_i=se_i, se_worst_type_ii=se_ii,
        se_total=se_total, n_reps=n_reps, master_seed=master_seed,
        wall_time=time.perf_counter() - start_time, se_per_alternative=se_alt)


def default_alternatives(family: str, p: int, s: int, gamma: float,
                         R: Optional[int], v, target_sq: float) -> list:
    """Least-favorable-style panel at squared separation ``target_sq``.

    One regime-matched prior (the hardest-instance construction: uniform
    sparse supports, within-one-group supports, or whole-group blocks) plus
    the deterministic first-coordinates signal.  Draws satisfy
    ||theta||^2 = target_sq exactly.
    """
    check_family(family, R=R, v=v)
    if target_sq <= 0:
        raise ContractError("separation must be positive")
    alts = []
    if family == "grouped" and R > 1:
        bs = p // R
        if s >= bs:
            m = max(1, s // bs)
            alts.append(GroupSupported(p, R, m, math.sqrt(target_sq / (m * bs))))
        elif s > p // (4 * R):
            alts.append(SingleGroupSparse(p, R, s, math.sqrt(target_sq / s)))
        else:
            alts.append(UniformSparse(p, s, math.sqrt(target_sq / s)))
    elif family == "rank_one":
        v = np.asarray(v, dtype=float)
        if np.all(np.abs(np.abs(v) - 1.0) < 1e-12):
            alts.append(UniformSparse(p, s, math.sqrt(target_sq / s),
                                      signs="match_pattern"))
        else:
            zeros = np.flatnonzero(v == 0.0)
            if zeros.size >= s:
                alts.append(UniformSparse(p, s, math.sqrt(target_sq / s),
                                          universe=zeros))
            else:
                alts.append(UniformSparse(p, s, math.sqrt(target_sq / s)))
    else:
        # equicorrelated: effective support min(s, floor(sqrt(p))) in the
        # dense regime mirrors the hardest construction
        s_eff = s if s < math.sqrt(p) else max(min(s, int(math.sqrt(p))), 1)
        alts.append(UniformSparse(p, s_eff, math.sqrt(target_sq / s_eff)))
    alts.append(make_sparse_signal(p, s, math.sqrt(target_sq / s), support_rule="first"))
    return alts


@dataclass(frozen=True)
class SweepPlan:
    """Grid of cells x separation multipliers for phase experiments.

    ``separation_reference``: "cell" anchors multipliers at each cell's own
    rate; "gamma0" anchors at the gamma = 0 rate of the same (p, s[, R]),
    which is how blessing/curse comparisons fix the signal across gamma.
    """

    family: str
    p_grid: tuple
    s_grid: tuple
    gamma_grid: tuple
    multipliers: tuple
    n_reps: int
    master_seed: int
    R_grid: tuple = (None,)
    v: Optional[np.ndarray] = None
    mode: str = "calibrated"
    eta: float = 0.1
    C: Optional[float] = None
    n_cal: int = 4000
    separation_reference: str = "cell"
    workers: int = 1
    adaptive: bool = False

    def __post_init__(self):
        if not (self.p_grid and self.s_grid and self.gamma_grid and self.multipliers):
            raise ContractError("sweep grids must be nonempty")
        if any(m <= 0 for m in self.multipliers):
            raise ContractError("multipliers must be positive")
        if self.workers < 1:
            raise ContractError("workers must be at least 1")
        if self.separation_reference not in ("cell", "gamma0"):
            raise ContractError("separation_reference must be 'cell' or 'gamma0'")
        for R in self.R_grid:
            check_family(self.family, R=R, v=self.v)

    def descriptor(self) -> dict:
        return {
            "family": self.family, "p_grid": list(self.p_grid),
            "s_grid": list(self.s_grid), "gamma_grid": list(self.gamma_grid),
            "R_grid": [r for r in self.R_grid],
            "v": None if self.v is None else list(self.v),
            "multipliers": list(self.multipliers), "n_reps": self.n_reps,
            "master_seed": self.master_seed, "mode": self.mode, "eta": self.eta,
            "C": self.C, "n_cal": self.n_cal,
            "separation_reference": self.separation_reference,
            "workers": self.workers, "adaptive": self.adaptive,
        }


def run_sweep(plan: SweepPlan) -> tuple:
    """One RiskEstimate row per cell x multiplier.

    Returns (rows, cell_reports).  Per-cell package errors (``CorrdetectError``:
    refused or uncharacterized configurations) are recorded in the report and
    leave NaN rows; the sweep continues.  Any other exception propagates.
    """
    rows = []
    reports = []
    cell_id = 0
    executor = None
    try:
        if plan.workers > 1:
            executor = ProcessPoolExecutor(max_workers=plan.workers)
        for p in plan.p_grid:
            for R in plan.R_grid:
                for s in plan.s_grid:
                    for gamma in plan.gamma_grid:
                        cell_id += 1
                        rows_c, report = _run_cell(plan, p, s, gamma, R, cell_id,
                                                   executor)
                        rows.extend(rows_c)
                        reports.append(report)
    finally:
        if executor is not None:
            executor.shutdown()
    return rows, reports


def _run_cell(plan, p, s, gamma, R, cell_id, executor):
    base = {"family": plan.family, "p": p, "s": s, "gamma": gamma,
            "R": "" if R is None else R}
    try:
        rate = rate_for(plan.family, p, s, gamma, R, plan.v)
        if rate.uncharacterized:
            raise ContractError("rate uncharacterized for this configuration")
        ref = rate
        if plan.separation_reference == "gamma0":
            ref = rate_for(plan.family, p, s, 0.0, R, plan.v)
        test = build_test(plan.family, p, "adaptive" if plan.adaptive else s,
                          gamma, R=R, v=plan.v, mode=plan.mode, eta=plan.eta,
                          C=plan.C, n_cal=plan.n_cal,
                          rng=substream(plan.master_seed, cell_id, _CAL_STREAM),
                          seed_label=f"seed={plan.master_seed}/cell={cell_id}")
        model = model_for(test)
        panels = [default_alternatives(plan.family, p, s, gamma, R, plan.v,
                                       mult * ref.value)
                  for mult in plan.multipliers]
        # one call per cell: the null is shared by every multiplier's row
        est = estimate_risk(test, model, [alt for panel in panels for alt in panel],
                            plan.n_reps, plan.master_seed, cell_id=cell_id,
                            workers=plan.workers, executor=executor)
        out = []
        for mult, panel in zip(plan.multipliers, panels):
            worst, _, total, se = est.panel(panel)
            out.append(dict(base, regime=rate.regime, rate_sq=rate.value,
                            multiplier=mult, type_i=est.type_i,
                            worst_type_ii=worst, total=total, se=se,
                            n_reps=plan.n_reps, seed=plan.master_seed))
        return out, dict(base, cell_id=cell_id, status="ok", regime=rate.regime)
    except CorrdetectError as exc:  # recorded, sweep continues; other errors are bugs
        nan_rows = [dict(base, regime="", rate_sq=float("nan"), multiplier=m,
                         type_i=float("nan"), worst_type_ii=float("nan"),
                         total=float("nan"), se=float("nan"),
                         n_reps=plan.n_reps, seed=plan.master_seed)
                    for m in plan.multipliers]
        return nan_rows, dict(base, cell_id=cell_id, status="error",
                              error=f"{type(exc).__name__}: {exc}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-corrdetect-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows_csv(rows, path) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    _atomic_write(path, buf.getvalue())


def write_manifest(plan: SweepPlan, reports, csv_path, manifest_path,
                   config: Optional[dict] = None) -> dict:
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "version": __version__,
        "master_seed": plan.master_seed,
        "plan": plan.descriptor(),
        "config": config,
        "cells": reports,
        "csv": os.path.basename(str(csv_path)),
        "csv_sha256": digest,
    }
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
