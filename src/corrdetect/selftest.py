"""Built-in example suite behind ``corrdetect selftest``.

One check per named behavior, spanning every module: closed-form values are
verified at full precision, statistical claims at reduced replication counts
so the whole suite stays interactive (the full-count versions live in the
pytest acceptance suite).  The final check runs a small seeded sweep through
the worker pool and writes ``selftest_risk.csv``; two runs with the same
seed and different worker counts must produce byte-identical files.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import gaussian, geometry, rates, statistics as stats
from .divergences import (
    GroupSupported,
    PointMass,
    ShiftedSparse,
    SingleGroupSparse,
    UniformSparse,
    hypergeometric_mgf_bound,
    ingster_suslina_chisq,
    mean_shift_tv,
    risk_lower_bound,
)
from .geometry import make_sparse_signal, membership, omega, signal
from .models import Equicorrelated, Grouped, RankOne, decorrelate, precision_apply, sample
from .models import covariance_apply
from .procedures import build_test, evaluate
from .risk import SweepPlan, estimate_risk, run_sweep, write_rows_csv
from .streams import substream

__all__ = ["run_selftest"]


def _check(cond, detail=""):
    if not cond:
        raise AssertionError(detail or "check failed")


def _close(a, b, rel=1e-10):
    _check(abs(a - b) <= rel * max(abs(a), abs(b)),
           f"{a!r} != {b!r} (rel={rel})")


# ---------------------------------------------------------------------------


def check_alpha_values(seed):
    _close(gaussian.alpha(0.0), 1.0)
    val = gaussian.alpha(30.0)
    _check(900.0 < val < 902.0, f"alpha(30) = {val}")
    _close(val, 30.0 ** 2 + 2.0 - 2.0 / 900.0, rel=1e-6)
    # E[g^2 | g >= t] with g = t + u: 200-node Gauss-Legendre on u in [0, 40]
    # (the weight exp(-t u - u^2 / 2) is below 1e-364 past 40)
    t = 1.0
    nodes, weights = np.polynomial.legendre.leggauss(200)
    u = 20.0 * (nodes + 1.0)
    density = weights * np.exp(-t * u - u * u / 2)
    _close(gaussian.alpha(1.0), float(density @ (t + u) ** 2) / float(density.sum()), rel=1e-10)


def check_tail_thresholds(seed):
    _close(gaussian.laurent_massart_upper(np.ones(4), 1.0), 10.0)
    _close(gaussian.laurent_massart_upper(np.zeros(3), 2.0), 0.0)
    _close(gaussian.thresholded_sum_tail_bound(1, 0.0, 1.0), 18.0)
    t = math.sqrt(2 * math.log(101.0))
    _close(gaussian.thresholded_sum_tail_bound(100, t, 2.0),
           9.0 * (math.sqrt(200.0 / 101.0) + 2.0))
    rng = substream(seed, 101)
    draws = rng.chisquare(50, size=200_000)
    thr = gaussian.laurent_massart_upper(np.ones(50), 3.0)
    rate = float(np.count_nonzero(draws >= thr)) / draws.size
    budget = math.exp(-3.0)
    _check(rate <= budget + 3 * math.sqrt(budget / draws.size),
           f"laurent-massart tail {rate} vs {budget}")
    rng = substream(seed, 102)
    z = rng.standard_normal((20_000, 200))
    a = gaussian.alpha(2.0)
    statvals = ((z * z - a) * (np.abs(z) >= 2.0)).sum(axis=1)
    bound = gaussian.thresholded_sum_tail_bound(200, 2.0, 4.0)
    rate = float(np.count_nonzero(statvals > bound)) / statvals.size
    budget = math.exp(-4.0)
    _check(rate <= budget + 3 * math.sqrt(budget / statvals.size),
           f"thresholded-sum tail {rate} vs {budget}")


def check_samplers(seed):
    rng = substream(seed, 103)
    x = sample(Equicorrelated(8, 0.0), None, rng, size=20_000)
    _check(np.all(np.abs(x.var(axis=0) - 1) < 0.05), "gamma=0 variances")
    x2 = sample(Equicorrelated(2, 0.5), None, rng, size=50_000)
    corr = np.corrcoef(x2[:, 0], x2[:, 1])[0, 1]
    _check(abs(corr - 0.5) < 0.02, f"pair correlation {corr}")
    x3 = sample(Equicorrelated(3, 1.0), None, rng, size=100)
    _check(np.all(x3[:, 0] == x3[:, 1]) and np.all(x3[:, 0] == x3[:, 2]),
           "gamma=1 coordinates must coincide")


def check_decorrelation(seed):
    rng = substream(seed, 104)
    model = Grouped(24, 4, 0.75)
    x = sample(model, None, rng, size=30_000)
    xt = decorrelate(model, x, rng)
    n = x.shape[0]
    _check(np.all(np.abs(xt.mean(axis=0)) <= 4 / math.sqrt(n)), "decorrelated means")
    corr = np.corrcoef(xt.T)
    _check(np.max(np.abs(corr - np.eye(24))) <= 0.035, "decorrelated covariance")
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    shift = (decorrelate(Grouped(4, 2, 0.75), theta, substream(seed, 1))
             - decorrelate(Grouped(4, 2, 0.75), np.zeros(4), substream(seed, 1)))
    _check(np.allclose(shift, [1.0, -1.0, 0.0, 0.0], atol=1e-12),
           f"block shift {shift}")


def check_precision_identities(seed):
    rng = substream(seed, 105)
    for gamma in (0.0, 0.3, 0.9, 0.999):
        for model in (Equicorrelated(48, gamma), Grouped(48, 6, gamma),
                      RankOne.renormalized(48, gamma, rng.standard_normal(48) + 0.05)):
            for _ in range(8):
                u = rng.standard_normal(48)
                back = covariance_apply(model, precision_apply(model, u))
                _check(np.max(np.abs(back - u)) <= 1e-9 * max(1.0, np.max(np.abs(u))),
                       "precision identity")


def check_geometry(seed):
    m = membership(signal(np.array([3.0, 0.0, 0.0, 0.0])), "upsilon_i",
                   epsilon=1.0, R=2)
    _close(m.witness, 2.25)
    spec = make_sparse_signal(4, 1, 2.0)
    out = geometry.projection_lower_bounds(spec)
    _close(out["orthogonal"], 3.0)
    _close(out["bound_orthogonal"], 3.0)
    _check(omega(np.ones(100)) == 25, "omega(1_p)")
    v = np.zeros(16); v[:4] = 2.0
    _check(omega(v) == 1, "omega heterogeneous")
    rng = substream(seed, 106)
    for _ in range(500):
        p = int(rng.choice([8, 16, 64]))
        s = int(rng.integers(1, p + 1))
        idx = rng.choice(p, size=s, replace=False)
        theta = np.zeros(p); theta[idx] = rng.standard_normal(s)
        if not np.any(theta):
            theta[idx[0]] = 1.0
        spec = geometry.SignalSpec(theta=theta, s=s, support=idx)
        eps = math.sqrt(spec.norm_sq()) * (1 - 1e-9)
        R = int(rng.choice([1, 2, 4]))
        _check(membership(spec, "upsilon_i", epsilon=eps, R=R).member
               or membership(spec, "upsilon_ii", epsilon=eps, R=R).member,
               "union decomposition")


def check_rates(seed):
    r = rates.rate_equicorrelated(100, 5, 0.0)
    _check(f"{r.value:.4f}" == "8.0472" and r.regime == "sparse", "printed example")
    _check(rates.rate_equicorrelated(100, 100, 1.0).value == 100.0, "perfect dense")
    _close(rates.rate_equicorrelated(100, 50, 0.0).value, 11.0)
    _close(rates.rate_grouped(64, 16, 1.0, 4).value, 16 * math.log(5.0))
    rng = substream(seed, 107)
    for _ in range(20):
        p = int(rng.choice([16, 100, 256]))
        s = int(rng.integers(1, p + 1))
        g = float(rng.uniform(0, 1))
        _check(rates.rate_grouped(p, s, g, 1).value
               == rates.rate_equicorrelated(p, s, g).value, "R=1 reduction")
        _check(rates.rate_grouped(p, s, g, p).value
               == rates.rate_equicorrelated(p, s, 0.0).value, "R=p reduction")
    for fam, R in (("equicorrelated", None), ("grouped", 8)):
        for row in rates.boundary_audit(fam, 256, 0.9, R):
            _check(not row["flagged"] or row["documented"],
                   f"undocumented jump {row}")


def check_statistics(seed):
    rng = substream(seed, 108)
    z = rng.standard_normal(43)
    _check(stats.thresholded_sum(z, 0.0).value
           == stats.squared_norm(z).value - 43, "t=0 identity")
    _check(stats.thresholded_sum(np.zeros(5), 1.0).value == 0.0, "null threshold")
    blocks = z[:40].reshape(4, 10)
    sv = stats.scan(blocks, "chisq")
    _close(math.fsum(sv.aux["per_group"].tolist()),
           stats.squared_norm(z[:40]).value, rel=1e-12)
    model = Grouped(16, 4, 0.5)
    theta = np.zeros(16); theta[4:6] = 6.0
    hits = 0
    for _ in range(400):
        x = sample(model, theta, rng)
        xt = decorrelate(model, x, rng)
        hits += stats.scan(model.block_view(xt), "chisq").aux["argmax"] == 1
    _check(hits >= 396, f"argmax hits {hits}/400")
    m1 = Equicorrelated(4, 1.0)
    _check(stats.noiseless_residual(sample(m1, None, rng), m1).value == 0.0,
           "noiseless null")
    x = sample(m1, np.array([1.0, 0, 0, 0]), rng)
    _close(stats.noiseless_residual(x, m1).value, 0.75, rel=1e-9)


def check_procedures(seed):
    t = build_test("equicorrelated", 100, 5, 0.5, mode="paper_constants", C=4.0)
    _check([c.name for c in t.constituents] == ["thresholded"], "sparse plan")
    _close(t.constituents[0].threshold, 0.5 * 5 * math.log1p(100 / 25))
    t2 = build_test("equicorrelated", 64, 64, 0.3, mode="paper_constants", C=3.0)
    _check([c.name for c in t2.constituents] == ["linear"], "fully dense plan")
    t3 = build_test("grouped", 1024, 64, 0.5, R=8, mode="paper_constants", C=3.0)
    _check([c.name for c in t3.constituents] == ["chisq", "chisq_scan"],
           "scan plan")
    cal = build_test("equicorrelated", 48, 40, 0.5, mode="calibrated", eta=0.1,
                     n_cal=4000, rng=substream(seed, 109))
    model = cal.model
    rng = substream(seed, 110)
    n_check = 3000
    rejects = sum(evaluate(cal, sample(model, None, rng), rng).reject
                  for _ in range(n_check))
    rate = rejects / n_check
    # slack: evaluation noise plus the calibrated thresholds' own level noise
    m = len(cal.constituents)
    q = 1 - 0.1 / (2 * m)
    se = math.hypot(math.sqrt(0.05 * 0.95 / n_check),
                    math.sqrt(m * q * (1 - q) / 4000))
    _check(rate <= 0.05 + 3 * se, f"null rejection {rate}")
    paper = build_test("equicorrelated", 48, 40, 0.5, mode="paper_constants", C=4.0)
    x = sample(model, None, substream(seed, 111))
    v1 = evaluate(paper, x, substream(seed, 112)).values
    v2 = evaluate(cal, x, substream(seed, 112)).values
    _check(v1 == v2, "modes must share statistic values")


def check_divergences(seed):
    p, g, c = 12, 0.6, 0.37
    res = ingster_suslina_chisq(PointMass(c * np.ones(p)), Equicorrelated(p, g))
    _close(res.chi_sq, math.expm1(p * c * c / (1 - g + g * p)), rel=1e-12)
    v = np.ones(16)
    res2 = ingster_suslina_chisq(PointMass(0.45 * v), RankOne(16, 1.0, v))
    _close(res2.chi_sq, math.expm1(0.45 ** 2), rel=1e-12)
    prior = UniformSparse(2, 1, math.sqrt(math.log(2.0)))
    res3 = ingster_suslina_chisq(prior, Equicorrelated(2, 0.0),
                                 method="exact_enumeration")
    _close(res3.chi_sq, 0.5, rel=1e-12)
    out = hypergeometric_mgf_bound(10, 2, 0.5)
    _close(out["mean"], 0.4)
    out1 = hypergeometric_mgf_bound(7, 1, 0.8)
    _close(out1["exact"], out1["bound"], rel=1e-12)
    _close(mean_shift_tv(Equicorrelated(4, 0.0), 0.5),
           0.5 * math.sqrt(math.e - 1.0), rel=1e-12)
    _check(risk_lower_bound(PointMass(np.zeros(8)), Equicorrelated(8, 0.4)) == 1.0,
           "trivial prior")
    for ps, ss in ((10, 3), (12, 5)):
        a = 0.4
        hyp = ingster_suslina_chisq(UniformSparse(ps, ss, a), Equicorrelated(ps, 0.3),
                                    method="hypergeometric_sum")
        enum = ingster_suslina_chisq(UniformSparse(ps, ss, a), Equicorrelated(ps, 0.3),
                                     method="exact_enumeration")
        _close(hyp.chi_sq, enum.chi_sq, rel=1e-10)
    two = ingster_suslina_chisq(SingleGroupSparse(12, 3, 2, 0.5), Grouped(12, 3, 0.4),
                                method="hypergeometric_sum")
    two_e = ingster_suslina_chisq(SingleGroupSparse(12, 3, 2, 0.5), Grouped(12, 3, 0.4),
                                  method="exact_enumeration")
    _close(two.chi_sq, two_e.chi_sq, rel=1e-10)
    gs = ingster_suslina_chisq(GroupSupported(12, 4, 2, 0.3), Grouped(12, 4, 0.7),
                               method="hypergeometric_sum")
    gs_e = ingster_suslina_chisq(GroupSupported(12, 4, 2, 0.3), Grouped(12, 4, 0.7),
                                 method="exact_enumeration")
    _close(gs.chi_sq, gs_e.chi_sq, rel=1e-10)
    _check(risk_lower_bound(ShiftedSparse(100, 60, 0.05 * math.sqrt(20 * 100) / 60),
                            Equicorrelated(100, 0.2)) >= 0.8, "shifted route")


def check_noiseless_risk(seed):
    for R in (1, 4):
        family = "grouped" if R > 1 else "equicorrelated"
        test = build_test(family, 64, 8, 1.0, R=(R if R > 1 else None),
                          mode="paper_constants", C=3.0)
        model = test.model
        theta = make_sparse_signal(64, 8, 0.3)
        est = estimate_risk(test, model, [theta], 300, master_seed=seed,
                            cell_id=900 + R)
        _check(est.total == 0.0, f"noiseless risk {est.total} at R={R}")


def run_selftest(out_dir: str, seed: int = 0, workers: int = 1):
    """Run every check; returns (ok, lines).  Writes selftest_risk.csv."""
    checks = [
        ("alpha-values", check_alpha_values),
        ("tail-thresholds", check_tail_thresholds),
        ("samplers", check_samplers),
        ("decorrelation", check_decorrelation),
        ("precision-identities", check_precision_identities),
        ("geometry", check_geometry),
        ("rates", check_rates),
        ("statistics", check_statistics),
        ("procedures", check_procedures),
        ("divergences", check_divergences),
        ("noiseless-risk", check_noiseless_risk),
    ]
    lines = []
    ok = True
    for name, fn in checks:
        try:
            fn(seed)
            lines.append(f"PASS {name}")
        except Exception as exc:
            ok = False
            lines.append(f"FAIL {name}: {exc}")
    # deterministic mini sweep through the worker pool
    try:
        plan = SweepPlan(family="equicorrelated", p_grid=(64,), s_grid=(4,),
                         gamma_grid=(0.0, 0.5), multipliers=(0.125, 8.0),
                         n_reps=400, master_seed=seed, mode="calibrated",
                         eta=0.2, n_cal=1000, workers=workers)
        rows, reports = run_sweep(plan)
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "selftest_risk.csv")
        write_rows_csv(rows, csv_path)
        bad = [r for r in reports if r["status"] != "ok"]
        if bad:
            raise AssertionError(f"sweep cells failed: {bad}")
        high = [r for r in rows if r["multiplier"] == 8.0]
        low = [r for r in rows if r["multiplier"] == 0.125]
        if not all(h["total"] <= l["total"] + 2 * math.hypot(h["se"], l["se"])
                   for h, l in zip(high, low)):
            raise AssertionError("risk not monotone in separation")
        lines.append(f"PASS risk-sweep (csv: {csv_path})")
    except Exception as exc:
        ok = False
        lines.append(f"FAIL risk-sweep: {exc}")
    return ok, lines
