"""Tail-moment and concentration-threshold checks.

The quadrature oracle below was written before the library implementation;
it evaluates the conditional second moment by adaptive quadrature of
exponentially tilted integrands (substituting x = t + u removes the common
e^{-t^2/2} factor from numerator and denominator, so nothing underflows).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from corrdetect.errors import DomainError
from corrdetect.gaussian import (
    _erfcx,
    alpha,
    laurent_massart_upper,
    thresholded_sum_tail_bound,
)


def alpha_quadrature(t: float) -> float:
    """Independent oracle: E[g^2 | |g| >= t] by adaptive quadrature."""
    num = quad(lambda u: (t + u) ** 2 * math.exp(-t * u - 0.5 * u * u),
               0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    den = quad(lambda u: math.exp(-t * u - 0.5 * u * u),
               0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return num / den


def alpha_mills_series(t: float) -> float:
    """Large-t oracle from the Mills-ratio asymptotic expansion."""
    return t * t + 2.0 - 2.0 / (t * t)


class TestAlpha:
    def test_at_zero_is_one(self):
        assert alpha(0.0) == 1.0

    def test_matches_quadrature_at_one(self):
        expected = alpha_quadrature(1.0)
        assert abs(alpha(1.0) - expected) <= 1e-10 * expected

    def test_large_t_asymptotics(self):
        val = alpha(30.0)
        assert 900.0 < val < 902.0
        series = alpha_mills_series(30.0)
        assert abs(val - series) <= 1e-6 * series

    def test_quadrature_grid(self):
        # Spot grid; the acceptance suite runs the full 200-point sweep.
        for t in [0.0, 0.3, 1.7, 4.0, 8.0, 15.0, 25.0, 40.0]:
            expected = alpha_quadrature(t)
            assert abs(alpha(t) - expected) <= 1e-10 * expected

    def test_huge_thresholds(self):
        # alpha(t) ~ t^2 + 2: finite up to t ~ 1.3e154 and +inf past it
        assert alpha(1e150) == pytest.approx(1e300, rel=1e-15)
        with np.errstate(over="ignore"):
            assert np.all(alpha(np.array([1e155, 1e300])) == math.inf)

    def test_strictly_increasing_and_dominates(self):
        ts = np.linspace(0.0, 40.0, 400)
        vals = alpha(ts)
        assert np.all(np.diff(vals) > 0)
        pos = ts > 0
        assert np.all(vals[pos] > np.maximum(1.0, ts[pos] ** 2))

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 1.0, 2.5, 10.0])
        vals = alpha(ts)
        assert vals.shape == ts.shape
        for t, v in zip(ts, vals):
            assert v == alpha(float(t))

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            alpha(bad)


def test_erfcx_matches_scipy():
    """Both branches (below and from x = 26) on a dense grid of [0, 40]."""
    xs = np.linspace(0.0, 40.0, 200_001)
    ours = np.array([_erfcx(float(x)) for x in xs])
    reference = erfcx(xs)
    assert np.max(np.abs(ours - reference) / reference) <= 2e-15
    for x in [1e100, 1e154, 1e200, 1e300]:  # x^2 past the float range from 1.3e154
        assert abs(_erfcx(x) - erfcx(x)) <= 2e-15 * erfcx(x)


class TestLaurentMassart:
    def test_unit_weights_length4(self):
        assert laurent_massart_upper(np.ones(4), 1.0) == 10.0

    def test_degenerate_zero_weights(self):
        assert laurent_massart_upper(np.zeros(3), 2.7) == 0.0
        assert laurent_massart_upper([], 1.0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            laurent_massart_upper([1.0, -0.1], 1.0)

    def test_monotone_in_x_and_weights(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.0, 3.0, size=12)
        xs = np.linspace(0.1, 5.0, 20)
        vals = [laurent_massart_upper(a, x) for x in xs]
        assert np.all(np.diff(vals) > 0)
        bumped = a.copy()
        bumped[3] += 0.5
        assert laurent_massart_upper(bumped, 2.0) >= laurent_massart_upper(a, 2.0)

    def test_chisq_tail_monte_carlo(self):
        # Unit weights, p = 50, x = 3: empirical exceedance of the threshold
        # must respect the e^{-x} budget within Monte Carlo error.
        p, x, n = 50, 3.0, 1_000_000
        thr = laurent_massart_upper(np.ones(p), x)
        rng = np.random.default_rng(12345)
        exceed = 0
        for _ in range(10):
            draws = rng.chisquare(p, size=n // 10)
            exceed += int(np.count_nonzero(draws >= thr))
        rate = exceed / n
        budget = math.exp(-x)
        se = math.sqrt(budget * (1 - budget) / n)
        assert rate <= budget + 3 * se


class TestThresholdedSumTailBound:
    def test_trivial_point(self):
        assert thresholded_sum_tail_bound(1, 0.0, 1.0) == 18.0

    def test_arithmetic_point(self):
        p, x = 100, 2.0
        t = math.sqrt(2.0 * math.log(101.0))
        expected = 9.0 * (math.sqrt(100 * (1.0 / 101.0) * 2.0) + 2.0)
        assert thresholded_sum_tail_bound(p, t, x) == pytest.approx(expected, rel=1e-15)

    def test_null_exceedance_monte_carlo(self):
        # p = 200, t = 2, x = 4 over 1e5 seeded draws.
        p, t, x, n = 200, 2.0, 4.0, 100_000
        bound = thresholded_sum_tail_bound(p, t, x)
        a = alpha(t)
        rng = np.random.default_rng(2024)
        exceed = 0
        for _ in range(10):
            z = rng.standard_normal((n // 10, p))
            terms = (z * z - a) * (np.abs(z) >= t)
            stats = terms.sum(axis=1)
            exceed += int(np.count_nonzero(stats > bound))
        rate = exceed / n
        budget = math.exp(-x)
        se = math.sqrt(budget * (1 - budget) / n)
        assert rate <= budget + 3 * se

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            thresholded_sum_tail_bound(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            thresholded_sum_tail_bound(10, -1.0, 1.0)
        with pytest.raises(DomainError):
            thresholded_sum_tail_bound(10, 1.0, 0.0)
