"""The corrdetect benchmark workloads.

Each workload is built from the checkout's acceptance table and a seed: the
constructor does every piece of set-up (imports, rates, models, plans,
priors) and stops before the first Monte Carlo draw, and ``run`` performs one
full pass, checks every operation and returns an ``Outcome``.  The seed is
the master seed of every random stream, so one seed always gives the same
inputs and, at any worker count, the same digest.

The benchmark calls the package through module attributes
(``risk.estimate_risk``, ``streams.substream`` ...) so that the tracer's
wrappers see those calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np

from corrdetect import divergences, models, procedures, rates, risk, streams

GRID_N_CAL = 2000  # the four-constituent adaptive cells refuse 1600
GRID_N_REPS = 200
SWEEP_N_CAL = 1000
SWEEP_N_REPS = 400
SWEEP_MULTIPLIERS = (0.125, 1.0, 8.0)
CERT_N_MC = 20_000


def load_acceptance(root: Path):
    """The acceptance test module, for its GRID table and certificate priors."""
    path = root / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("corrdetect_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rate_and_model(family, p, s, gamma, R, v):
    if family == "equicorrelated":
        return rates.rate_equicorrelated(p, s, gamma), models.Equicorrelated(p, gamma)
    if family == "grouped":
        return rates.rate_grouped(p, s, gamma, R), models.Grouped(p, R, gamma)
    return rates.rate_rank_one(p, s, gamma, v), models.RankOne(p, gamma, v)


def _calibrates(family, p, s, gamma, R, v) -> bool:
    """Whether a calibrated test for this cell simulates null draws."""
    plan = procedures.build_test(family, p, s, gamma, R=R, v=v,
                                 mode="paper_constants", C=1.0)
    return any(not c.deterministic_null for c in plan.constituents)


def _finite(values) -> bool:
    return all(math.isfinite(x) for x in values)


def _total_check(ok, bound: str):
    def check(values):
        if not _finite(values):
            return "non-finite risk"
        return None if ok(values[2]) else f"total {values[2]} {bound}"
    return check


_HIGH_CHECK = _total_check(lambda total: total <= 0.2, "above 0.2 at x8")
_LOW_CHECK = _total_check(lambda total: total >= 0.7, "below 0.7 at x1/64")


def _certificate_check(values):
    return None if values[0] >= 0.75 else f"certificate {values[0]} below 0.75"


class Outcome:
    """Operations attempted and failed in one pass, and its result rows."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.rows: list = []

    def op(self, label: str, compute, check) -> None:
        """Run one operation: ``compute()`` gives a tuple of floats and
        ``check(values)`` a problem description or None."""
        try:
            values = tuple(compute())
            problem = check(values)
        except Exception as exc:  # a raising operation is a failed one
            values, problem = None, f"{type(exc).__name__}: {exc}"
        self.record(label, values, problem)

    def record(self, label: str, values, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")
        self.rows.append(f"{label}|{values!r}")

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(sorted(self.rows)).encode()).hexdigest()


class Grid:
    """Every cell of the acceptance grid: calibrated test, risk at x8 and
    x1/64, and the exact certificate."""

    name = "grid"
    workers = 1
    rationale = ("all 3 families, every regime label and constituent kind at p "
                 "in {400, 1024, 4096}; O(p) per-replication arithmetic and "
                 "calibration dominate; bypasses run_sweep and the pool")

    def __init__(self, root: Path, seed: int):
        acceptance = load_acceptance(root)
        self.seed = seed
        self.cells = []
        self.draws = 0
        for idx, (label, family, p, s, gamma, R, vmk, adaptive) in enumerate(acceptance.GRID):
            v = vmk(p) if vmk else None
            rate, model = _rate_and_model(family, p, s, gamma, R, v)
            s_arg = "adaptive" if adaptive else s
            high = risk.default_alternatives(family, p, s, gamma, R, v, 8.0 * rate.value)
            low = risk.default_alternatives(family, p, s, gamma, R, v, rate.value / 64.0)
            cert = acceptance._certificate_prior(family, p, s, gamma, R, v,
                                                 rate.value / 64.0)
            self.cells.append((idx, label, family, p, s_arg, gamma, R, v, model,
                               high, low, cert))
            if _calibrates(family, p, s_arg, gamma, R, v):
                self.draws += GRID_N_CAL
            self.draws += GRID_N_REPS * (2 + len(high) + len(low))
        self.null_base = len(self.cells) * GRID_N_REPS

    def run(self, workers: int) -> Outcome:
        out = Outcome()
        for idx, label, family, p, s, gamma, R, v, model, high, low, cert in self.cells:
            try:
                test = procedures.build_test(
                    family, p, s, gamma, R=R, v=v, mode="calibrated", eta=0.1,
                    n_cal=GRID_N_CAL, rng=streams.substream(self.seed, 500 + idx, 0))
            except Exception as exc:  # both risk rows of the cell fail with it
                test = exc
            for tag, alts, cell_id, check in (("x8", high, 500 + idx, _HIGH_CHECK),
                                              ("x1/64", low, 700 + idx, _LOW_CHECK)):
                out.op(f"grid|{label}|{tag}",
                       lambda: self._risk_row(test, model, alts, cell_id), check)
            out.op(f"cert|{label}",
                   lambda: (divergences.risk_lower_bound(
                       cert, model, method="hypergeometric_sum", v=v),),
                   _certificate_check)
        return out

    def _risk_row(self, test, model, alts, cell_id):
        if isinstance(test, Exception):
            raise test
        est = risk.estimate_risk(test, model, alts, GRID_N_REPS, self.seed, cell_id=cell_id)
        return est.type_i, est.worst_type_ii, est.total, est.se_total


class SweepSmallP:
    """run_sweep on two grouped plans at p=64, R=4, written to CSV and manifest."""

    name = "sweep-smallp"
    workers = 2
    rationale = ("p=64 grouped sweeps, every grouped regime and the gamma=1 "
                 "residual path, 2 workers: per-replication fixed cost and pool; "
                 "gamma=1 cells with s<p/R are refused configs, left out")

    def __init__(self, root: Path, seed: int):
        common = dict(family="grouped", p_grid=(64,), R_grid=(4,),
                      multipliers=SWEEP_MULTIPLIERS, n_reps=SWEEP_N_REPS,
                      master_seed=seed, n_cal=SWEEP_N_CAL)
        self.plans = [
            risk.SweepPlan(s_grid=(4, 6, 12, 16, 32), gamma_grid=(0.0, 0.5, 0.9), **common),
            risk.SweepPlan(s_grid=(16, 32), gamma_grid=(1.0,), **common),
        ]
        self.workdir = root / ".bench_work"
        self.draws = 0
        cells = 0
        for plan in self.plans:
            for s in plan.s_grid:
                for gamma in plan.gamma_grid:
                    rate, _ = _rate_and_model("grouped", 64, s, gamma, 4, None)
                    alts = risk.default_alternatives("grouped", 64, s, gamma, 4, None,
                                                     rate.value)
                    if _calibrates("grouped", 64, s, gamma, 4, None):
                        self.draws += SWEEP_N_CAL
                    self.draws += len(SWEEP_MULTIPLIERS) * SWEEP_N_REPS * (1 + len(alts))
                    cells += 1
        self.null_base = cells * SWEEP_N_REPS

    def run(self, workers: int) -> Outcome:
        out = Outcome()
        self.workdir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            for k, plan in enumerate(self.plans):
                plan = dataclasses.replace(plan, workers=workers)
                csv_path = Path(tmp) / f"sweep{k}.csv"
                try:
                    rows, reports = risk.run_sweep(plan)
                    risk.write_rows_csv(rows, csv_path)
                    risk.write_manifest(plan, reports, csv_path, Path(tmp) / f"manifest{k}.json")
                    lines = csv_path.read_text().splitlines()[1:]
                except Exception as exc:  # every row of the plan fails with it
                    for cell in itertools.product(plan.s_grid, plan.gamma_grid,
                                                  plan.multipliers):
                        out.record(f"sweep|{cell}", None, f"{type(exc).__name__}: {exc}")
                    continue
                self._check_rows(out, rows, reports, lines)
        return out

    @staticmethod
    def _check_rows(out, rows, reports, lines):
        status = {(r["s"], r["gamma"]): r["status"] for r in reports}
        lowest = {(r["s"], r["gamma"]): r for r in rows
                  if r["multiplier"] == min(SWEEP_MULTIPLIERS)}

        def check(row):
            cell = (row["s"], row["gamma"])
            values = (row["rate_sq"], row["type_i"], row["worst_type_ii"],
                      row["total"], row["se"])
            if status[cell] != "ok":
                return f"cell status {status[cell]}"
            if not _finite(values):
                return "non-finite value"
            if row["multiplier"] == max(SWEEP_MULTIPLIERS):
                base = lowest[cell]
                slack = 2.0 * math.hypot(row["se"], base["se"])
                if row["total"] > base["total"] + slack:
                    return f"x8 total {row['total']} exceeds x0.125 total {base['total']}"
            return None

        for row, line in zip(rows, lines):
            out.record("sweep", line, check(row))


class Certificates:
    """The divergence layer alone: exact routes checked against enumeration
    and closed forms, acceptance certificates, and Monte Carlo divergences."""

    name = "certificates"
    workers = 1
    rationale = ("divergence layer alone: overlap sums vs enumeration, grid "
                 "certificates, Monte Carlo pairs (draw + precision_apply loop) "
                 "where an exact value exists, one Rademacher prior")

    def __init__(self, root: Path, seed: int):
        acceptance = load_acceptance(root)
        self.seed = seed
        self.criterion7 = [(p, s, divergences.UniformSparse(p, s, 0.35),
                            models.Equicorrelated(p, 0.3))
                           for p in range(2, 21) for s in range(1, p + 1)]
        self.closed_forms = [
            (f"point|{p}|{g}", divergences.PointMass(c * np.ones(p)),
             models.Equicorrelated(p, g), math.expm1(p * c * c / (1 - g + g * p)))
            for p, g, c in [(10, 0.0, 0.3), (50, 0.6, 0.11), (200, 0.95, 0.05)]]
        pattern = acceptance._sign_pattern(64, 3)
        self.closed_forms.append(("point|rank_one", divergences.PointMass(0.4 * pattern),
                                  models.RankOne(64, 1.0, pattern), math.expm1(0.16)))
        self.certs = []
        for label, family, p, s, gamma, R, vmk, _ in acceptance.GRID:
            v = vmk(p) if vmk else None
            rate, model = _rate_and_model(family, p, s, gamma, R, v)
            prior = acceptance._certificate_prior(family, p, s, gamma, R, v,
                                                  rate.value / 64.0)
            self.certs.append((f"cert|{label}", prior, model, v))
        shifted_rate = rates.rate_equicorrelated(256, 250, 0.3).value / 64.0
        self.certs.append(("cert|shifted-256",
                           divergences.ShiftedSparse(256, 250, math.sqrt(shifted_rate / 250)),
                           models.Equicorrelated(256, 0.3), None))
        self.monte_carlo = [
            ("mc|uniform-256", divergences.UniformSparse(256, 8, 0.8),
             models.Equicorrelated(256, 0.5), True),
            ("mc|single-group-1024", divergences.SingleGroupSparse(1024, 8, 16, 0.7),
             models.Grouped(1024, 8, 0.5), True),
            ("mc|rademacher-256", divergences.UniformSparse(256, 8, 0.8, signs="rademacher"),
             models.Equicorrelated(256, 0.5), False),
        ]
        self.draws = CERT_N_MC * len(self.monte_carlo)
        self.null_base = 0

    def run(self, workers: int) -> Outcome:
        out = Outcome()
        for p, s, prior, model in self.criterion7:
            out.op(f"crit7|{p}|{s}",
                   lambda: (divergences.ingster_suslina_chisq(
                                prior, model, method="hypergeometric_sum").chi_sq,
                            divergences.ingster_suslina_chisq(
                                prior, model, method="exact_enumeration").chi_sq),
                   lambda vals: None if abs(vals[0] - vals[1]) <= 1e-10 * max(1.0, abs(vals[1]))
                   else f"overlap sum {vals[0]} vs enumeration {vals[1]}")
        for label, prior, model, expected in self.closed_forms:
            out.op(label, lambda: (divergences.ingster_suslina_chisq(prior, model).chi_sq,),
                   lambda vals, e=expected: None if abs(vals[0] - e) <= 1e-12 * max(1.0, e)
                   else f"closed form {vals[0]} vs {e}")
        for label, prior, model, v in self.certs:
            out.op(label,
                   lambda: (divergences.risk_lower_bound(
                       prior, model, method="hypergeometric_sum", v=v),),
                   _certificate_check)
        for k, (label, prior, model, exact) in enumerate(self.monte_carlo):
            out.op(label, lambda: self._monte_carlo(k, prior, model, exact),
                   self._check_monte_carlo)
        return out

    def _monte_carlo(self, k, prior, model, exact):
        mc = divergences.ingster_suslina_chisq(
            prior, model, method="monte_carlo", n_mc=CERT_N_MC,
            rng=streams.substream(self.seed, 900 + k))
        ref = (divergences.ingster_suslina_chisq(prior, model, method="hypergeometric_sum").chi_sq
               if exact else math.nan)
        return mc.chi_sq, mc.stderr, ref

    @staticmethod
    def _check_monte_carlo(vals):
        estimate, stderr, exact = vals
        if not (_finite((estimate, stderr)) and stderr > 0):
            return f"estimate {estimate} with stderr {stderr}"
        if math.isfinite(exact) and abs(estimate - exact) > 4.0 * stderr:
            return f"estimate {estimate} is {abs(estimate - exact) / stderr:.1f} stderr from {exact}"
        return None


WORKLOADS = {cls.name: cls for cls in (Grid, SweepSmallP, Certificates)}
