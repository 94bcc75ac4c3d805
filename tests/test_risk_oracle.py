"""Exact-risk oracle: one-constituent tests against the laws of their statistics.

Decorrelation maps a draw with mean theta to N(mu, I), where mu is theta
centred on each block's loadings over sqrt(1 - gamma).  So ``chisq`` is a
noncentral chi-square on p degrees of freedom, and ``chisq_scan`` is the
maximum of independent per-block noncentral chi-squares.  The raw-data kinds
are functions of Gaussian block sums of known variance: ``linear`` is
sigma_sq times a noncentral chi-square on one degree of freedom,
``linear_scan`` the maximum of R of them and ``chisq_avg`` their sum.  Under
a prior whose every draw has the same centred energy and block sums, the law
is the same for every draw.  (``noiseless`` at gamma = 1 is deterministic;
``tests/test_risk.py`` checks its zero risk.)  Each Monte Carlo rate from
``estimate_risk`` must lie within 4 Wilson standard errors of its exact
value from ``scipy.stats``.
"""

import dataclasses

import numpy as np
from scipy.stats import chi2, ncx2

from corrdetect.divergences import GroupSupported, PointMass, SingleGroupSparse, UniformSparse
from corrdetect.geometry import make_sparse_signal
from corrdetect.models import Equicorrelated, Grouped, RankOne
from corrdetect.procedures import Constituent, build_test
from corrdetect.risk import estimate_risk
from corrdetect.streams import substream

N_REPS = 4000


def _one(test, kind, threshold, params=None):
    """The test with one constituent of ``kind`` at ``threshold``."""
    c = Constituent(kind, kind, params or {}, threshold, "oracle")
    return dataclasses.replace(test, constituents=(c,))


def _centred_energy(theta, members, loadings):
    """sum over blocks of ||theta_B||^2 - <l_B, theta_B>^2 / ||l_B||^2, one
    entry per block; ``members`` lists each block's coordinates."""
    return np.array([theta[m] @ theta[m]
                     - (loadings[m] @ theta[m]) ** 2 / (loadings[m] @ loadings[m])
                     for m in members])


def _check(rate, se, exact):
    assert abs(rate - exact) <= 4.0 * se, (rate, exact, se)


def _check_risk(test, model, alternatives, null_sf, alt_cdfs, seed):
    """Type I against ``null_sf``, and each alternative's type II against
    its entry of ``alt_cdfs``."""
    est = estimate_risk(test, model, alternatives, N_REPS, master_seed=seed)
    _check(est.type_i, est.se_type_i, null_sf)
    for alt, exact in zip(alternatives, alt_cdfs):
        worst, se, _, _ = est.panel([alt])
        _check(worst, se, exact)


def test_equicorrelated_chisq_under_a_signal_and_a_plus_sign_prior():
    p, s, gamma, a = 64, 16, 0.5, 0.4
    test = build_test("equicorrelated", p, s, gamma, mode="paper_constants", C=1.0)
    [c] = test.constituents
    assert c.kind == "chisq"
    one = dataclasses.replace(test, constituents=(c,))
    lam = (s * a * a - (s * a) ** 2 / p) / (1.0 - gamma)  # the same for every support
    exact_ii = ncx2.cdf(c.threshold, p, lam)
    _check_risk(one, Equicorrelated(p, gamma),
                [make_sparse_signal(p, s, a), UniformSparse(p, s, a)],
                chi2.sf(c.threshold, p), [exact_ii, exact_ii], seed=7)


def test_grouped_chisq_with_a_signal_in_every_group_and_a_calibrated_threshold():
    p, R, gamma = 64, 4, 0.3
    test = build_test("grouped", p, 16, gamma, R=R, mode="calibrated", eta=0.4,
                      n_cal=4000, rng=substream(5, 0))
    [c] = [c for c in test.constituents if c.kind == "chisq"]
    one = dataclasses.replace(test, constituents=(c,))
    groups = np.arange(p).reshape(R, p // R)
    theta = np.where(np.arange(p) % (p // R) < 4, 0.5, 0.0)  # four entries per group
    lam = _centred_energy(theta, groups, np.ones(p)).sum() / (1.0 - gamma)
    _check_risk(one, Grouped(p, R, gamma), [PointMass(theta)],
                chi2.sf(c.threshold, p), [ncx2.cdf(c.threshold, p, lam)], seed=8)


def test_grouped_chisq_scan_is_a_maximum_of_independent_blocks():
    p, R, gamma, s, a = 64, 4, 0.5, 6, 0.6
    bs, t = p // R, 26.0
    one = _one(build_test("grouped", p, 1, gamma, R=R, mode="paper_constants", C=1.0),
               "chisq_scan", t)
    # every draw puts its support in one group: one noncentral block, R - 1 central
    lam = (s * a * a - (s * a) ** 2 / bs) / (1.0 - gamma)
    _check_risk(one, Grouped(p, R, gamma), [SingleGroupSparse(p, R, s, a)],
                1.0 - chi2.cdf(t, bs) ** R,
                [ncx2.cdf(t, bs, lam) * chi2.cdf(t, bs) ** (R - 1)], seed=9)


def test_equicorrelated_linear_is_a_scaled_one_degree_chi_square():
    p, gamma, a = 64, 0.5, 0.2
    sigma_sq = 1.0 - gamma + gamma * p
    t = 1.5 * sigma_sq
    one = _one(build_test("equicorrelated", p, 1, gamma, mode="paper_constants", C=1.0),
               "linear", t, {"sigma_sq": sigma_sq})
    lam = (p * a) ** 2 / (p * sigma_sq)  # (sum theta)^2 / Var(sum x)
    _check_risk(one, Equicorrelated(p, gamma), [UniformSparse(p, p, a)],
                chi2.sf(t / sigma_sq, 1), [ncx2.cdf(t / sigma_sq, 1, lam)], seed=10)


def test_rank_one_chisq_centres_on_a_heterogeneous_pattern():
    p, gamma, t = 64, 0.6, 72.0
    v = np.linspace(0.2, 1.8, p)
    v *= np.sqrt(p / (v @ v))
    one = _one(build_test("rank_one", p, 1, gamma, v=v, mode="paper_constants", C=1.0),
               "chisq", t)
    theta = np.r_[np.zeros(p - 12), np.full(12, 0.45)]  # where v is largest
    lam = _centred_energy(theta, [np.arange(p)], v).sum() / (1.0 - gamma)
    _check_risk(one, RankOne(p, gamma, one.model.v), [PointMass(theta)],
                chi2.sf(t, p), [ncx2.cdf(t, p, lam)], seed=11)


def test_grouped_block_sums_under_whole_groups():
    # a block sum is N(sum theta_B, b sigma_sq): linear_scan is the maximum
    # of R scaled one-degree chi-squares, chisq_avg their sum
    p, R, gamma, m, a = 64, 4, 0.5, 2, 0.8
    bs = p // R
    sigma_sq = 1.0 - gamma + gamma * bs
    lam = bs * a * a / sigma_sq  # per chosen group, the same for every draw
    base = build_test("grouped", p, 1, gamma, R=R, mode="paper_constants", C=1.0)
    t = 2.5
    scan = _one(base, "linear_scan", t * sigma_sq, {"sigma_sq": sigma_sq})
    _check_risk(scan, Grouped(p, R, gamma), [GroupSupported(p, R, m, a)],
                1.0 - chi2.cdf(t, 1) ** R,
                [ncx2.cdf(t, 1, lam) ** m * chi2.cdf(t, 1) ** (R - m)], seed=12)
    t = 6.0
    avg = _one(base, "chisq_avg", t * sigma_sq, {"sigma_sq": sigma_sq})
    _check_risk(avg, Grouped(p, R, gamma), [GroupSupported(p, R, m, a)],
                chi2.sf(t, R), [ncx2.cdf(t, R, m * lam)], seed=13)
