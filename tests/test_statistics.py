"""Statistic-level checks: identities, null moments, equivariance."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from corrdetect.errors import ContractError
from corrdetect.gaussian import alpha
from corrdetect.models import Equicorrelated, Grouped, RankOne, decorrelate, sample
from corrdetect.procedures import build_test, evaluate, model_for
from corrdetect.statistics import (
    averaged_group,
    linear_projection,
    linear_scan,
    noiseless_residual,
    scan,
    squared_norm,
    thresholded_profile,
    thresholded_sum,
    value,
)
from corrdetect.streams import substream


def alpha_quadrature(t):
    num = quad(lambda u: (t + u) ** 2 * math.exp(-t * u - 0.5 * u * u),
               0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    den = quad(lambda u: math.exp(-t * u - 0.5 * u * u),
               0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    return num / den


class TestThresholdedSum:
    def test_zero_vector_above_threshold(self):
        assert thresholded_sum(np.zeros(5), 1.0).value == 0.0

    def test_t_zero_equals_energy_minus_dimension_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.standard_normal(37)
            assert thresholded_sum(z, 0.0).value == squared_norm(z).value - 37

    def test_single_term(self):
        z = np.array([3.0, 0.0, 0.0])
        expected = 9.0 - alpha_quadrature(2.0)
        assert thresholded_sum(z, 2.0).value == pytest.approx(expected, rel=1e-10)

    def test_null_mean_near_zero(self):
        # E Y_t = 0 under the null; check within 4 standard errors.
        rng = np.random.default_rng(1)
        p, n = 64, 100_000
        for t in [0.5, 1.0, 2.0, 3.0]:
            z = rng.standard_normal((n, p))
            a = alpha(t)
            terms = (z * z - a) * (np.abs(z) >= t)
            stats = terms.sum(axis=1)
            se = stats.std(ddof=1) / math.sqrt(n)
            assert abs(stats.mean()) <= 4 * se

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(101)
        perm = rng.permutation(101)
        assert thresholded_sum(z, 1.3).value == thresholded_sum(z[perm], 1.3).value

    def test_profile_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(200)
        ts = np.array([0.0, 0.7, 1.5, 2.5, 4.0])
        prof = thresholded_profile(z, ts)
        for t, y in zip(ts, prof):
            assert y == pytest.approx(thresholded_sum(z, float(t)).value, rel=1e-12, abs=1e-9)


class TestChisqAndLinear:
    def test_squared_norm_values(self):
        assert squared_norm(np.zeros(4)).value == 0.0
        assert squared_norm(np.ones(9)).value == 9.0

    def test_null_mean_of_decorrelated_energy(self):
        model = Equicorrelated(32, 0.6)
        rng = np.random.default_rng(4)
        x = sample(model, None, rng, size=100_000)
        xt = decorrelate(model, x, rng)
        stats = (xt * xt).sum(axis=1)
        se = stats.std(ddof=1) / math.sqrt(len(stats))
        assert abs(stats.mean() - 32) <= 3 * se

    def test_linear_all_ones(self):
        model = Equicorrelated(4, 0.5)
        sv = linear_projection(np.ones(4), model, "global")
        assert sv.value == pytest.approx(4.0)
        # the null variance is the plan's, not the statistic's
        test = build_test("equicorrelated", 4, 4, 0.5, mode="paper_constants", C=1.0)
        assert test.constituents[-1].params["sigma_sq"] == pytest.approx(0.5 + 0.5 * 4)

    def test_linear_null_variance_scaling(self):
        # Var of the squared projection is 2 sigma^4 under the null.
        model = Equicorrelated(10, 0.5)
        rng = np.random.default_rng(5)
        x = sample(model, None, rng, size=100_000)
        proj = x.sum(axis=1) / math.sqrt(10)
        stats = proj ** 2
        sigma_sq = 0.5 + 0.5 * 10
        assert abs(stats.var(ddof=1) - 2 * sigma_sq ** 2) <= 0.05 * 2 * sigma_sq ** 2

    def test_group_direction_depends_only_on_block(self):
        model = Grouped(8, 2, 0.4)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8)
        sv = linear_projection(x, model, "group", group=0)
        y = x.copy()
        y[4:] += 100.0  # off-block perturbation
        assert linear_projection(y, model, "group", group=0).value == sv.value


class TestScans:
    def test_single_group_reduces_to_global(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal(24)
        blocks = z.reshape(1, 24)
        assert scan(blocks, "chisq").value == squared_norm(z).value
        assert scan(blocks, "thresholded", t=1.1).value == thresholded_sum(z, 1.1).value

    def test_linear_scan_single_group_matches_global(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(12)
        model = Grouped(12, 1, 0.3)
        assert linear_scan(x, model).value == pytest.approx(
            linear_projection(x, Equicorrelated(12, 0.3), "global").value, rel=1e-12)

    def test_per_group_chisq_sums_to_global(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal(32)
        sv = scan(z.reshape(4, 8), "chisq")
        assert math.fsum(sv.aux["per_group"].tolist()) == pytest.approx(
            squared_norm(z).value, rel=1e-14)

    def test_argmax_locates_shifted_group(self):
        model = Grouped(16, 4, 0.5)
        theta = np.zeros(16)
        theta[4:6] = 6.0  # half of group 1 (0-based): survives block centering
        rng = np.random.default_rng(10)
        hits = 0
        n = 10_000
        x = sample(model, theta, rng, size=n)
        xt = decorrelate(model, x, rng)
        for row in xt:
            sv = scan(row.reshape(4, 4), "chisq")
            hits += sv.aux["argmax"] == 1
        assert hits / n >= 0.99

    def test_argmax_invariant_under_constant_shift(self):
        rng = np.random.default_rng(11)
        blocks = rng.standard_normal((5, 6))
        base = scan(blocks, "chisq")
        shifted = base.aux["per_group"] + 42.0
        assert int(np.argmax(shifted)) == base.aux["argmax"]

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ContractError):
            scan(np.zeros(7), "chisq")


class TestAveragedGroup:
    def test_standardized_means_are_standard_normal(self):
        model = Grouped(64, 8, 0.5)
        rng = np.random.default_rng(12)
        x = sample(model, None, rng, size=50_000)
        bs = 8
        sums = x.reshape(-1, 8, bs).sum(axis=2)
        u = sums / (math.sqrt(bs) * math.sqrt(0.5 + 0.5 * bs))
        assert np.all(np.abs(u.mean(axis=0)) <= 4 / math.sqrt(len(u)))
        corr = np.corrcoef(u.T)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) <= 0.02
        assert np.all(np.abs(u.std(axis=0, ddof=1) - 1) <= 0.02)

    def test_shifted_group_mean_expectation(self):
        model = Grouped(64, 8, 0.5)
        a = 1.25
        theta = np.zeros(64)
        theta[:8] = a  # group 0 constant at a
        rng = np.random.default_rng(13)
        x = sample(model, theta, rng, size=40_000)
        # Y_0 of the standardized means is ||u||^2 - R: its mean is the squared
        # shift of u_0, the other seven means being standard normal
        y0 = averaged_group(x[:5000], model, "thresholded", t=0.0).value
        expected = a * math.sqrt(8) / math.sqrt(0.5 + 0.5 * 8)
        se = y0.std(ddof=1) / math.sqrt(len(y0))
        assert abs(y0.mean() - expected ** 2) <= 3 * se

    def test_single_group_chisq_avg_equals_linear(self):
        model = Grouped(12, 1, 0.0)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(12)
        lhs = averaged_group(x, model, "chisq").value
        rhs = linear_projection(x, Equicorrelated(12, 0.0), "global").value
        assert lhs == pytest.approx(rhs, rel=1e-14)


class TestNoiselessResidual:
    def test_null_is_exactly_zero(self):
        model = Equicorrelated(16, 1.0)
        rng = np.random.default_rng(15)
        x = sample(model, None, rng, size=500)
        for row in x:
            assert noiseless_residual(row, model).value == 0.0

    def test_sparse_signal_gives_centered_energy(self):
        model = Equicorrelated(4, 1.0)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(16)
        for _ in range(200):
            x = sample(model, theta, rng)
            assert noiseless_residual(x, model).value == pytest.approx(0.75, abs=1e-10)

    def test_constant_signal_invisible(self):
        model = Equicorrelated(6, 1.0)
        theta = 2.5 * np.ones(6)
        rng = np.random.default_rng(17)
        x = sample(model, theta, rng, size=100)
        for row in x:
            assert noiseless_residual(row, model).value == 0.0

    def test_grouped_null_exact_zero(self):
        model = Grouped(12, 3, 1.0)
        rng = np.random.default_rng(18)
        x = sample(model, None, rng, size=200)
        for row in x:
            assert noiseless_residual(row, model).value == 0.0

    def test_requires_perfect_correlation(self):
        with pytest.raises(ContractError):
            noiseless_residual(np.zeros(4), Equicorrelated(4, 0.5))

    def test_rank_one_projection_residual(self):
        v = np.ones(4) * 1.0
        model = RankOne(4, 1.0, v)
        rng = np.random.default_rng(19)
        x = sample(model, None, rng, size=100)
        for row in x:
            assert noiseless_residual(row, model).value <= 1e-20

    def test_hetero_pattern_residual_is_the_kernel_value(self):
        # the "hetero" pattern of test_pinned_values is not a sign pattern: a
        # null residual is rounding noise, which the statistic, like the
        # kernel, sets to 0 within a relative tolerance of the energy
        v = np.concatenate([np.full(8, 64 ** 0.25), np.zeros(56)])
        model = RankOne(64, 1.0, v)
        x = sample(model, None, substream(7, 0), size=200)
        unclamped = ((x - np.outer(x @ v / 64, v)) ** 2).sum(axis=1)
        assert unclamped.max() > 0.0
        assert np.all(noiseless_residual(x, model).value == 0.0)
        # with the pinned signal the statistic is the pinned kernel value
        test = build_test("rank_one", 64, 3, 1.0, v=v, mode="paper_constants", C=1.0)
        theta = np.zeros(64)
        theta[[1, 9, 20, 33, 50]] = 3.0
        theta[40:52] += 0.4
        x = sample(model_for(test), theta, substream(2024, 8, 0))
        kernel = evaluate(test, x, substream(2024, 8, 1)).values["noiseless"]
        assert kernel.hex() == "0x1.818f5c28f5c29p+5"
        assert noiseless_residual(x, model).value == kernel


@pytest.mark.parametrize("z", [np.full(4, 1j), "abcd", ["a"] * 4, [None] * 4],
                         ids=["complex", "text", "strings", "none"])
def test_data_that_is_not_real_is_refused(z):
    # complex data once lost their imaginary parts with a warning, text
    # raised numpy's ValueError and None entries became NaN
    for statistic in (squared_norm, lambda z: thresholded_sum(z, 1.0), lambda z: value(
            "linear", z, Equicorrelated(4, 0.5))):
        with pytest.raises(ContractError):
            statistic(z)
