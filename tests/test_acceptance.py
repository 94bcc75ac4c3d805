"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The 20-cell grid spans every branch label: equicorrelated sparse, dense, and
very-dense; all four grouped regimes (two constituent choices each where the
rate minimum dictates them); rank-one patterns (sign patterns and a
heterogeneous pattern) within the characterized sparsity range; and the
sparsity-adaptive composite.  Upper-bound power runs at separation
multiplier 8 (on the squared rate), lower-bound indistinguishability at
multiplier 1/64 with exact divergence certificates.

This module is also the benchmark's grid table: ``benchmarks/`` loads it for
``GRID`` and ``_certificate_prior``.  So it stays cheap to import: scipy is
imported only inside the criterion-1 quadrature oracle, and the module never
imports pytest (the shared grid build is a cached function, not a fixture).
"""

import functools
import math
import subprocess
import sys
import time

import numpy as np

from corrdetect.divergences import (
    GroupSupported,
    PointMass,
    ShiftedSparse,
    SingleGroupSparse,
    UniformSparse,
    ingster_suslina_chisq,
    risk_lower_bound,
)
from corrdetect.gaussian import alpha, laurent_massart_upper, thresholded_sum_tail_bound
from corrdetect.geometry import SignalSpec, largest_subset_energy, membership
from corrdetect.models import (
    Equicorrelated,
    Grouped,
    RankOne,
    covariance_apply,
    precision_apply,
)
from corrdetect.procedures import build_test, model_for
from corrdetect.rates import rate_equicorrelated, rate_for
from corrdetect.risk import SweepPlan, default_alternatives, estimate_risk, run_sweep
from corrdetect.geometry import make_sparse_signal
from corrdetect.streams import substream

MASTER_SEED = 0


def _report(name, detail):
    print(f"\nPASS {name}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: alpha accuracy against the quadrature oracle


def _alpha_quadrature(t: float) -> float:
    from scipy.integrate import quad

    num = quad(lambda u: (t + u) ** 2 * math.exp(-t * u - 0.5 * u * u),
               0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    den = quad(lambda u: math.exp(-t * u - 0.5 * u * u),
               0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return num / den


def test_criterion_1_alpha_vs_quadrature():
    start = time.perf_counter()
    ts = np.linspace(0.0, 40.0, 200)
    worst = 0.0
    for t in ts:
        oracle = _alpha_quadrature(float(t))
        worst = max(worst, abs(alpha(float(t)) - oracle) / oracle)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report("criterion-1", f"max rel err {worst:.2e} over 200 thresholds in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: precision identities across all families


def test_criterion_2_precision_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    cases = 0
    worst = 0.0
    while cases < 1000:
        gamma = float(rng.choice([0.0, 0.3, 0.9, 0.999]))
        p = int(rng.choice([8, 32, 128, 512]))
        kind = cases % 3
        if kind == 0:
            model = Equicorrelated(p, gamma)
        elif kind == 1:
            divisors = [R for R in (1, 2, 4, 8, 16) if p % R == 0]
            model = Grouped(p, int(rng.choice(divisors)), gamma)
        else:
            model = RankOne.renormalized(p, gamma, rng.standard_normal(p) + 0.05)
        u = rng.standard_normal(p)
        back = covariance_apply(model, precision_apply(model, u))
        worst = max(worst, float(np.max(np.abs(back - u))) / max(1.0, float(np.max(np.abs(u)))))
        cases += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report("criterion-2", f"1000 round-trips, worst rel dev {worst:.2e} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: geometric lemma suite


def _random_sparse_batch(rng, n, p, s):
    theta = np.zeros((n, p))
    rows = np.arange(n)[:, None]
    idx = np.argsort(rng.random((n, p)), axis=1)[:, :s]
    vals = rng.standard_normal((n, s))
    vals[vals == 0.0] = 1.0
    theta[rows, idx] = vals
    return theta, idx


def test_criterion_3_geometric_lemmas():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 1)
    n = 10_000
    for p in (16, 100, 1024):
        v = rng.standard_normal(p)
        v *= math.sqrt(p / float(v @ v))
        for s in (1, int(math.isqrt(p)), p // 2):
            theta, idx = _random_sparse_batch(rng, n, p, s)
            nsq = np.einsum("ij,ij->i", theta, theta)
            slack = 1e-9 * np.maximum(nsq, 1.0)
            # all-ones pattern (centering) bounds
            mean = theta.mean(axis=1)
            orth = nsq - p * mean ** 2
            assert np.all(orth >= nsq * (p - s) / p - slack)
            mask = theta != 0.0
            supp_resid = np.einsum("ij,ij->i", (theta - mean[:, None]) ** 2 * mask,
                                   np.ones((n, 1)))
            assert np.all(supp_resid >= nsq * (p - 2 * s) / p - slack)
            # general pattern bounds with the greedy subset energy
            m_energy = largest_subset_energy(v, s)
            coef = (theta @ v) / p
            orth_v = nsq - p * coef ** 2
            assert np.all(orth_v >= nsq * (p - m_energy) / p - slack)
            resid_v = np.einsum("ij,ij->i",
                                (theta - coef[:, None] * v[None, :]) ** 2 * mask,
                                np.ones((n, 1)))
            assert np.all(resid_v >= nsq * (p - 2 * m_energy) / p - slack)
    # union decomposition over the grouped grid
    union_checked = 0
    for p in (8, 16, 64):
        for R in (1, 2, 4):
            for _ in range(10_000):
                s = int(rng.integers(1, p + 1))
                k = int(rng.integers(1, s + 1))
                idx = rng.choice(p, size=k, replace=False)
                vec = np.zeros(p)
                vec[idx] = rng.standard_normal(k)
                if not np.any(vec):
                    vec[idx[0]] = 1.0
                spec = SignalSpec(theta=vec, s=s, support=idx)
                eps = math.sqrt(float(vec @ vec)) * (1 - 1e-9)
                ok = (membership(spec, "upsilon_i", epsilon=eps, R=R).member
                      or membership(spec, "upsilon_ii", epsilon=eps, R=R).member)
                assert ok
                union_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion-3",
            f"9 projection cells x 10^4 draws + {union_checked} union checks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: perfect-correlation degeneracy


def test_criterion_4_perfect_correlation():
    start = time.perf_counter()
    for R in (1, 4):
        family = "grouped" if R > 1 else "equicorrelated"
        test = build_test(family, 64, 8, 1.0, R=(R if R > 1 else None),
                          mode="paper_constants", C=3.0)
        model = model_for(test)
        alts = [
            UniformSparse(64, 8, 0.25),
            make_sparse_signal(64, 8, 0.25, support_rule="first"),
        ]
        est = estimate_risk(test, model, alts, 10_000, MASTER_SEED, cell_id=400 + R)
        assert est.total == 0.0, f"noiseless risk {est.total} at R={R}"
    # gamma = 1, s = p: calibrated raw-energy test.  The panel is the
    # sign-symmetric dense prior: a 1_p-aligned point mass at this separation
    # has irreducible risk ~0.5 by a direct normal-quantile computation, so
    # the criterion's numbers pin the sign-symmetric least-favorable shape.
    p = 256
    test = build_test("equicorrelated", p, p, 1.0, mode="calibrated", eta=0.1,
                      n_cal=4000, rng=substream(MASTER_SEED, 450))
    model = model_for(test)
    rate = rate_equicorrelated(p, p, 1.0).value
    results = {}
    for mult in (4.0, 1.0 / 16.0):
        prior = UniformSparse(p, p, math.sqrt(mult * rate / p), signs="rademacher")
        est = estimate_risk(test, model, [prior], 5000, MASTER_SEED,
                            cell_id=460 + int(mult * 16))
        results[mult] = est.total
    assert results[4.0] <= 0.15
    assert results[1.0 / 16.0] >= 0.85
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion-4",
            f"noiseless risk exactly 0; s=p risks {results[4.0]:.3f} @ x4, "
            f"{results[1/16.0]:.3f} @ x1/16 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 and 6: the 20-cell grid


def _sign_pattern(p, seed):
    return np.random.default_rng(seed).choice([-1.0, 1.0], size=p)


def _hetero_pattern(p):
    v = np.zeros(p)
    v[: int(math.isqrt(p))] = p ** 0.25
    return v


GRID = [
    # label, family, p, s, gamma, R, v-maker, adaptive
    ("eq-sparse",    "equicorrelated", 1024, 5,    0.5,  None, None, False),
    ("eq-sparse-hi", "equicorrelated", 1024, 10,   0.99, None, None, False),
    ("eq-sparse-id", "equicorrelated", 4096, 10,   0.0,  None, None, False),
    ("eq-dense",     "equicorrelated", 1024, 256,  0.3,  None, None, False),
    ("eq-dense-cap", "equicorrelated", 1024, 900,  0.9,  None, None, False),
    ("eq-vdense",    "equicorrelated", 1024, 1000, 0.5,  None, None, False),
    ("eq-vdense-hi", "equicorrelated", 1024, 1020, 0.99, None, None, False),
    ("gr-A-sparse",  "grouped", 1024, 8,   0.5, 8,   None, False),
    ("gr-A-dense",   "grouped", 1024, 60,  0.5, 4,   None, False),
    ("gr-B-chiscan", "grouped", 1024, 64,  0.5, 8,   None, False),
    ("gr-B-linscan", "grouped", 1024, 64,  0.0, 8,   None, False),
    ("gr-C-colscan", "grouped", 1024, 120, 0.5, 8,   None, False),
    ("gr-C-linscan", "grouped", 1024, 120, 0.0, 8,   None, False),
    ("gr-D-avg-sp",  "grouped", 4096, 128, 0.5, 256, None, False),
    ("gr-D-avg-dn",  "grouped", 1024, 256, 0.5, 64,  None, False),
    ("r1-sparse",    "rank_one", 1024, 5,   0.5, None, lambda p: _sign_pattern(p, 42), False),
    ("r1-dense",     "rank_one", 1024, 100, 0.9, None, lambda p: _sign_pattern(p, 43), False),
    ("r1-hetero",    "rank_one", 1024, 5,   0.5, None, _hetero_pattern, False),
    ("adapt-sparse", "equicorrelated", 400, 3,   0.5, None, None, True),
    ("adapt-dense",  "equicorrelated", 400, 300, 0.7, None, None, True),
]


def _certificate_prior(family, p, s, gamma, R, v, target_sq):
    """Exact-overlap-method prior certifying indistinguishability."""
    if family == "grouped" and R is not None:
        bs = p // R
        if s >= bs:
            m = max(1, s // bs)
            return GroupSupported(p, R, m, math.sqrt(target_sq / (m * bs)))
        return SingleGroupSparse(p, R, s, math.sqrt(target_sq / s))
    if family == "rank_one":
        if np.all(np.abs(np.abs(v) - 1.0) < 1e-12):
            return UniformSparse(p, s, math.sqrt(target_sq / s), signs="match_pattern")
        zeros = np.flatnonzero(v == 0.0)
        return UniformSparse(p, s, math.sqrt(target_sq / s), universe=zeros)
    if s > p - math.sqrt(p):
        return ShiftedSparse(p, s, math.sqrt(target_sq / s))
    s_eff = s if s < math.sqrt(p) else int(math.isqrt(p))
    return UniformSparse(p, s_eff, math.sqrt(target_sq / s_eff))


@functools.cache
def grid_results():
    """Each cell's rate, risks at multipliers 8 and 1/64 and certificate
    bound: built once, shared by criteria 5 and 6."""
    rows = []
    for idx, (label, family, p, s, gamma, R, vmk, adaptive) in enumerate(GRID):
        v = vmk(p) if vmk else None
        rate = rate_for(family, p, s, gamma, R=R, v=v)
        test = build_test(family, p, "adaptive" if adaptive else s, gamma, R=R,
                          v=v, mode="calibrated", eta=0.1, n_cal=4000,
                          rng=substream(MASTER_SEED, 500 + idx, 0))
        model = model_for(test)  # shares the test's pattern: no per-replication compare
        high = estimate_risk(
            test, model,
            default_alternatives(family, p, s, gamma, R, v, 8.0 * rate.value),
            4000, MASTER_SEED, cell_id=500 + idx)
        low_target = rate.value / 64.0
        cert = _certificate_prior(family, p, s, gamma, R, v, low_target)
        bound = risk_lower_bound(cert, model, method="hypergeometric_sum", v=v)
        low = estimate_risk(
            test, model,
            default_alternatives(family, p, s, gamma, R, v, low_target),
            4000, MASTER_SEED, cell_id=700 + idx)
        rows.append({"label": label, "regime": rate.regime, "rate": rate.value,
                     "high": high, "low": low, "cert_bound": bound})
    return rows


def test_criterion_5_upper_bound_power():
    grid = grid_results()
    start = time.perf_counter()
    regimes = {r["regime"] for r in grid}
    assert {"sparse", "dense", "very-dense", "within-group-sparse",
            "scan-moderate", "scan-dense", "average-sparse",
            "average-dense"} <= regimes
    worst = max(grid, key=lambda r: r["high"].total)
    for row in grid:
        assert row["high"].total <= 0.2, (row["label"], row["high"].total)
    _report("criterion-5",
            f"{len(grid)} cells at multiplier 8, worst total risk "
            f"{worst['high'].total:.3f} ({worst['label']}); "
            f"checked in {time.perf_counter() - start:.1f}s (plus shared grid build)")


def test_criterion_6_lower_bound_indistinguishability():
    grid = grid_results()
    for row in grid:
        assert row["cert_bound"] >= 0.75, (row["label"], row["cert_bound"])
        assert row["low"].total >= 0.7, (row["label"], row["low"].total)
    worst_cert = min(grid, key=lambda r: r["cert_bound"])
    worst_low = min(grid, key=lambda r: r["low"].total)
    _report("criterion-6",
            f"weakest certificate {worst_cert['cert_bound']:.3f} "
            f"({worst_cert['label']}); lowest empirical total "
            f"{worst_low['low'].total:.3f} ({worst_low['label']}) at multiplier 1/64")


# ---------------------------------------------------------------------------
# criterion 7: divergence exactness


def test_criterion_7_divergence_exactness():
    start = time.perf_counter()
    checked = 0
    for p in range(2, 21):
        for s in range(1, p + 1):
            prior = UniformSparse(p, s, 0.35)
            model = Equicorrelated(p, 0.3)
            hyp = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
            enum = ingster_suslina_chisq(prior, model, method="exact_enumeration")
            scale = max(1.0, abs(enum.chi_sq))
            assert abs(hyp.chi_sq - enum.chi_sq) <= 1e-10 * scale, (p, s)
            checked += 1
    # point-mass closed forms
    for p, gamma, c in [(10, 0.0, 0.3), (50, 0.6, 0.11), (200, 0.95, 0.05)]:
        res = ingster_suslina_chisq(PointMass(c * np.ones(p)), Equicorrelated(p, gamma))
        expected = math.expm1(p * c * c / (1 - gamma + gamma * p))
        assert abs(res.chi_sq - expected) <= 1e-12 * max(1.0, expected)
    v = _sign_pattern(64, 3)
    res = ingster_suslina_chisq(PointMass(0.4 * v), RankOne(64, 1.0, v))
    assert abs(res.chi_sq - math.expm1(0.16)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion-7",
            f"{checked} overlap-vs-enumeration instances + closed forms in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: phase phenomena


def test_criterion_8_phase_phenomena():
    start = time.perf_counter()
    p = 2500
    # blessing of strong correlation at s = 10 < sqrt(p)
    plan = SweepPlan(family="equicorrelated", p_grid=(p,), s_grid=(10,),
                     gamma_grid=(0.0, 0.9, 0.99), multipliers=(3.0,),
                     n_reps=2000, master_seed=MASTER_SEED, n_cal=3000,
                     separation_reference="gamma0")
    rows, reports = run_sweep(plan)
    assert all(r["status"] == "ok" for r in reports)
    blessing = [r["total"] for r in rows]
    ses = [r["se"] for r in rows]
    for (a, sa), (b, sb) in zip(zip(blessing, ses), zip(blessing[1:], ses[1:])):
        assert b <= a + 2 * math.hypot(sa, sb), (blessing, ses)
    # curse of moderate correlation at s = p - sqrt(p)
    plan = SweepPlan(family="equicorrelated", p_grid=(p,), s_grid=(2450,),
                     gamma_grid=(0.0, 0.2), multipliers=(3.0,),
                     n_reps=2000, master_seed=MASTER_SEED, n_cal=3000,
                     separation_reference="gamma0")
    rows, reports = run_sweep(plan)
    assert all(r["status"] == "ok" for r in reports)
    curse = [r["total"] for r in rows]
    curse_se = [r["se"] for r in rows]
    assert curse[1] >= curse[0] - 2 * math.hypot(*curse_se), curse
    # irrelevance of weak correlation at s = sqrt(p)
    plan = SweepPlan(family="equicorrelated", p_grid=(p,), s_grid=(50,),
                     gamma_grid=(0.0, 1.0 / 50.0), multipliers=(0.5, 1.0, 2.0, 4.0),
                     n_reps=2000, master_seed=MASTER_SEED, n_cal=3000,
                     separation_reference="gamma0")
    rows, reports = run_sweep(plan)
    assert all(r["status"] == "ok" for r in reports)
    by_gamma = {}
    for r in rows:
        by_gamma.setdefault(r["gamma"], []).append(r)
    curves = list(by_gamma.values())
    for r0, r1 in zip(*curves):
        assert r0["multiplier"] == r1["multiplier"]
        assert abs(r0["total"] - r1["total"]) <= 3 * math.hypot(r0["se"], r1["se"]), \
            (r0, r1)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    _report("criterion-8",
            f"blessing {['%.3f' % b for b in blessing]}, curse {curse[0]:.3f}->"
            f"{curse[1]:.3f}, irrelevance curves coincide; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: concentration lemmas at the stated replication counts


def test_criterion_9_concentration_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 9)
    p, x, n = 50, 3.0, 1_000_000
    thr = laurent_massart_upper(np.ones(p), x)
    exceed = 0
    for _ in range(10):
        exceed += int(np.count_nonzero(rng.chisquare(p, size=n // 10) >= thr))
    lm_rate = exceed / n
    budget = math.exp(-x)
    assert lm_rate <= budget + 3 * math.sqrt(budget * (1 - budget) / n)
    p2, t, x2, n2 = 200, 2.0, 4.0, 100_000
    bound = thresholded_sum_tail_bound(p2, t, x2)
    a = alpha(t)
    exceed2 = 0
    for _ in range(10):
        z = rng.standard_normal((n2 // 10, p2))
        stats = ((z * z - a) * (np.abs(z) >= t)).sum(axis=1)
        exceed2 += int(np.count_nonzero(stats > bound))
    ts_rate = exceed2 / n2
    budget2 = math.exp(-x2)
    assert ts_rate <= budget2 + 3 * math.sqrt(budget2 * (1 - budget2) / n2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion-9",
            f"tail rates {lm_rate:.5f} <= {budget:.5f}, {ts_rate:.5f} <= "
            f"{budget2:.5f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: selftest determinism across worker counts


def test_criterion_10_selftest_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for workers, out in ((1, tmp_path / "w1"), (8, tmp_path / "w8")):
        proc = subprocess.run(
            [sys.executable, "-m", "corrdetect", "selftest", "--out", str(out),
             "--seed", str(MASTER_SEED), "--workers", str(workers)],
            capture_output=True, text=True, timeout=900)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        outputs.append((out / "selftest_risk.csv").read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    _report("criterion-10",
            f"selftest CSVs byte-identical across worker counts (1 vs 8); {elapsed:.0f}s")
