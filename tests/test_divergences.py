"""Divergence checks: closed forms, overlap sums vs enumeration, bounds."""

import math
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import chisquare, norm

from corrdetect.divergences import (
    _log_sum_exp,
    _pair_terms,
    _subsets,
    ENUMERATION_PAIR_BUDGET,
    DivergenceResult,
    GroupSupported,
    PointMass,
    ShiftedSparse,
    SingleGroupSparse,
    UniformSparse,
    draw,
    hypergeometric_logpmf,
    hypergeometric_mgf_bound,
    ingster_suslina_chisq,
    mean_shift_tv,
    risk_lower_bound,
)
from corrdetect.errors import ContractError, DomainError, SingularCovarianceError
from corrdetect.models import Equicorrelated, Grouped, RankOne, precision_apply
from corrdetect.streams import substream


def brute_force_chisq(prior, model, v=None):
    """Oracle: direct summation over all ordered support pairs."""
    if isinstance(prior, UniformSparse):
        pool = (prior.universe if prior.universe is not None
                else np.arange(prior.p))
        supports = list(combinations(pool.tolist(), prior.s))
    elif isinstance(prior, SingleGroupSparse):
        bs = prior.p // prior.R
        supports = [tuple(k * bs + np.asarray(S))
                    for k in range(prior.R)
                    for S in combinations(range(bs), prior.s)]
    elif isinstance(prior, GroupSupported):
        bs = prior.p // prior.R
        supports = [tuple(k * bs + j for k in G for j in range(bs))
                    for G in combinations(range(prior.R), prior.m)]
    else:
        raise AssertionError("oracle handles sparse priors only")
    total = 0.0
    for S in supports:
        th1 = np.zeros(prior.p)
        th1[list(S)] = prior.magnitude
        prec = precision_apply(model, th1)
        for T in supports:
            th2 = np.zeros(prior.p)
            th2[list(T)] = prior.magnitude
            total += math.exp(float(th2 @ prec))
    return total / len(supports) ** 2 - 1.0


def gram_oracle_chisq(prior, model):
    """Oracle: the mean of exp over the Gram matrix of every ordered support
    pair of a uniform plus-sign prior, its supports listed by ``combinations``."""
    pool = prior.universe if prior.universe is not None else np.arange(prior.p)
    supports = list(combinations(pool.tolist(), prior.s))
    thetas = np.zeros((len(supports), prior.p))
    for row, S in zip(thetas, supports):
        row[list(S)] = prior.magnitude
    gram = thetas @ precision_apply(model, thetas).T
    return float(np.exp(gram).mean()) - 1.0


class TestPointMass:
    def test_constant_vector_closed_form(self):
        p, g, c = 12, 0.6, 0.37
        model = Equicorrelated(p, g)
        res = ingster_suslina_chisq(PointMass(c * np.ones(p)), model)
        expected = math.expm1(p * c * c / (1 - g + g * p))
        assert res.chi_sq == pytest.approx(expected, rel=1e-12)

    def test_rank_one_pattern_mass_at_gamma_one(self):
        p, c = 16, 0.45
        v = np.ones(p)
        model = RankOne(p, 1.0, v)
        res = ingster_suslina_chisq(PointMass(c * v), model)
        assert res.chi_sq == pytest.approx(math.expm1(c * c), rel=1e-12)

    def test_gamma_one_off_span_is_singular(self):
        model = Equicorrelated(4, 1.0)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(SingularCovarianceError):
            ingster_suslina_chisq(PointMass(theta), model)

    def test_grouped_span_mass_at_gamma_one(self):
        model = Grouped(8, 2, 1.0)
        theta = np.concatenate([0.5 * np.ones(4), -0.25 * np.ones(4)])
        res = ingster_suslina_chisq(PointMass(theta), model)
        # reduced 2-d statistic: chi2 = exp(sum_k mean_k^2) - 1
        expected = math.expm1(0.5 ** 2 + 0.25 ** 2)
        assert res.chi_sq == pytest.approx(expected, rel=1e-12)


class TestUniformSparse:
    def test_two_point_enumeration(self):
        # p=2, s=1, gamma=0, a^2 = ln 2: E e^{a^2 |S\cap S~|} = 1/2 + 1/2*2.
        prior = UniformSparse(2, 1, math.sqrt(math.log(2.0)))
        model = Equicorrelated(2, 0.0)
        res = ingster_suslina_chisq(prior, model, method="exact_enumeration")
        assert res.chi_sq == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("p,s,gamma", [(6, 2, 0.0), (8, 3, 0.4), (10, 4, 0.9)])
    def test_overlap_sum_matches_bruteforce(self, p, s, gamma):
        prior = UniformSparse(p, s, 0.45)
        model = Equicorrelated(p, gamma)
        res = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        oracle = brute_force_chisq(prior, model)
        assert res.chi_sq == pytest.approx(oracle, rel=1e-10)

    def test_enumeration_and_overlap_agree(self):
        prior = UniformSparse(12, 3, 0.3)
        model = Equicorrelated(12, 0.5)
        hyp = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        enum = ingster_suslina_chisq(prior, model, method="exact_enumeration")
        assert hyp.chi_sq == pytest.approx(enum.chi_sq, rel=1e-10)

    def test_monte_carlo_covers_exact(self):
        prior = UniformSparse(30, 4, 0.35)
        model = Equicorrelated(30, 0.3)
        exact = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        mc = ingster_suslina_chisq(prior, model, method="monte_carlo",
                                   n_mc=60_000, rng=np.random.default_rng(0))
        assert abs(mc.chi_sq - exact.chi_sq) <= 4 * mc.stderr

    @pytest.mark.parametrize("universe", [None, np.arange(2, 20)])
    def test_exchangeable_enumeration_matches_overlap_sum(self, universe):
        # C(22, 9) or C(18, 9) supports, with coordinates outside the universe
        prior = UniformSparse(22, 9, 0.3, universe=universe)
        model = Equicorrelated(22, 0.4)
        hyp = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        enum = ingster_suslina_chisq(prior, model, method="exact_enumeration")
        assert hyp.chi_sq == pytest.approx(enum.chi_sq, rel=1e-10)

    @pytest.mark.parametrize("prior", [
        UniformSparse(8, 3, 0.4, universe=np.array([0, 2, 3, 5, 7])),
        UniformSparse(8, 3, 0.4, universe=np.array([1, 4, 6])),  # one support
        UniformSparse(6, 6, 0.4),  # s = p: no coordinate off the support
        UniformSparse(7, 1, 0.4),
    ])
    def test_exchangeable_enumeration_matches_bruteforce(self, prior):
        model = Equicorrelated(prior.p, 0.35)
        res = ingster_suslina_chisq(prior, model, method="exact_enumeration")
        assert res.method == "exact_enumeration"
        assert res.chi_sq == pytest.approx(brute_force_chisq(prior, model), rel=1e-10)

    def test_exchangeable_enumeration_matches_full_pair_sum(self):
        # the (p, s) grid of acceptance criterion 7, wherever the n^2 pairs of
        # its n = C(p, s) supports fit the enumeration budget: the overlap
        # counts against a sum over every support pair
        checked = 0
        for p in range(2, 21):
            model = Equicorrelated(p, 0.3)
            for s in range(1, p + 1):
                if math.comb(p, s) ** 2 > ENUMERATION_PAIR_BUDGET:
                    continue
                prior = UniformSparse(p, s, 0.35)
                enum = ingster_suslina_chisq(prior, model, method="exact_enumeration")
                oracle = gram_oracle_chisq(prior, model)
                assert abs(enum.chi_sq - oracle) <= 1e-10 * max(1.0, abs(oracle)), (p, s)
                checked += 1
        assert checked == 133

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_monte_carlo_needs_two_pairs(self, n_mc):
        with pytest.raises(ContractError, match="n_mc"):
            ingster_suslina_chisq(UniformSparse(16, 2, 0.4), Equicorrelated(16, 0.3),
                                  method="monte_carlo", n_mc=n_mc,
                                  rng=np.random.default_rng(0))

    def test_nonincreasing_in_gamma(self):
        # Magnitude scaled as sqrt(1-gamma) (the sparse-rate prior scaling):
        # the exponent's overlap term is then gamma-free and the subtracted
        # mean term grows, so the divergence can only shrink.
        p, s, a0 = 40, 5, 0.4
        vals = []
        for g in np.linspace(0.0, 0.95, 12):
            prior = UniformSparse(p, s, a0 * math.sqrt(1 - g))
            vals.append(ingster_suslina_chisq(prior, Equicorrelated(p, g)).chi_sq)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rank_one_sign_matched_pattern(self):
        rng = np.random.default_rng(1)
        p = 10
        v = rng.choice([-1.0, 1.0], size=p)
        model = RankOne(p, 0.6, v)
        prior = UniformSparse(p, 3, 0.5, signs="match_pattern")
        res = ingster_suslina_chisq(prior, model, method="hypergeometric_sum", v=v)
        enum = ingster_suslina_chisq(prior, model, method="exact_enumeration", v=v)
        assert res.chi_sq == pytest.approx(enum.chi_sq, rel=1e-10)

    def test_off_pattern_universe(self):
        p = 12
        v = np.zeros(p)
        v[:3] = 2.0  # ||v||^2 = 12
        model = RankOne(p, 0.5, v)
        prior = UniformSparse(p, 2, 0.4, universe=np.arange(3, p))
        res = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        enum = ingster_suslina_chisq(prior, model, method="exact_enumeration")
        assert res.chi_sq == pytest.approx(enum.chi_sq, rel=1e-10)


class TestGroupedPriors:
    def test_single_group_sparse_two_level_sum(self):
        prior = SingleGroupSparse(12, 3, 2, 0.5)
        model = Grouped(12, 3, 0.4)
        res = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        oracle = brute_force_chisq(prior, model)
        assert res.chi_sq == pytest.approx(oracle, rel=1e-10)

    def test_group_supported_overlap(self):
        prior = GroupSupported(12, 4, 2, 0.3)
        model = Grouped(12, 4, 0.7)
        res = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        enum = ingster_suslina_chisq(prior, model, method="exact_enumeration")
        assert res.chi_sq == pytest.approx(enum.chi_sq, rel=1e-10)

    def test_group_supported_at_gamma_one(self):
        prior = GroupSupported(8, 4, 1, 0.35)
        model = Grouped(8, 4, 1.0)
        res = ingster_suslina_chisq(prior, model)
        # reduced R-dim law: a group's value is its factor plus a, with unit
        # variance, so a shared group contributes lam = a^2
        lam = 0.35 ** 2
        expected = (1 - 1 / 4 + math.exp(lam) / 4) - 1
        assert res.chi_sq == pytest.approx(expected, rel=1e-10)

    def test_group_supported_at_gamma_one_is_the_continuous_limit(self):
        # m = R puts all mass on one theta: the point-mass route applies too
        prior = GroupSupported(12, 4, 4, 0.3)
        res = ingster_suslina_chisq(prior, Grouped(12, 4, 1.0))
        point = ingster_suslina_chisq(PointMass(np.full(12, 0.3)), Grouped(12, 4, 1.0))
        near = ingster_suslina_chisq(prior, Grouped(12, 4, 1.0 - 1e-6))
        assert res.chi_sq == pytest.approx(point.chi_sq, rel=1e-12)
        assert res.chi_sq == pytest.approx(near.chi_sq, rel=1e-5)
        assert res.chi_sq == pytest.approx(math.expm1(4 * 0.3 ** 2), rel=1e-12)


class TestHypergeometricMgf:
    def test_mean(self):
        assert hypergeometric_mgf_bound(10, 2, 0.5)["mean"] == pytest.approx(0.4)

    def test_single_element_equality(self):
        p, lam = 7, 0.8
        out = hypergeometric_mgf_bound(p, 1, lam)
        expected = 1 - 1 / p + math.exp(lam) / p
        assert out["exact"] == pytest.approx(expected, rel=1e-12)
        assert out["bound"] == pytest.approx(expected, rel=1e-12)

    def test_exact_below_bound_and_matches_enumeration(self):
        p, s, lam = 10, 3, 0.3
        out = hypergeometric_mgf_bound(p, s, lam)
        assert out["exact"] <= out["bound"] * (1 + 1e-12)
        # enumeration oracle over all ordered support pairs (fsum: the pair
        # count is large enough that naive accumulation loses digits)
        supports = list(combinations(range(p), s))
        total = math.fsum(math.exp(lam * len(set(S) & set(T)))
                          for S in supports for T in supports)
        oracle = total / len(supports) ** 2
        assert out["exact"] == pytest.approx(oracle, rel=1e-10)

    def test_exact_below_bound_on_grid(self):
        for p in [8, 14, 20]:
            for s in range(0, p + 1):
                out = hypergeometric_mgf_bound(p, s, 0.45)
                assert out["exact"] <= out["bound"] * (1 + 1e-12)

    @pytest.mark.parametrize("lam_sq", [800.0, math.inf])
    def test_infinite_past_the_float_range(self, lam_sq):
        # 800 once raised OverflowError in the majorant; inf gave an exact
        # value of NaN (inf * 0 at overlap 0) with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hypergeometric_mgf_bound(10, 2, lam_sq)
        assert out["exact"] == math.inf and out["bound"] == math.inf
        assert out["mean"] == pytest.approx(0.4)

    def test_majorant_stays_finite_when_only_its_exponential_overflows(self):
        # e^710 overflows, but q e^710 at q = 1e-5 does not; at s = 1 the
        # majorant is the exact MGF, 1 - q + q e^lam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hypergeometric_mgf_bound(10 ** 5, 1, 710.0)
        expected = math.exp(710.0 - 700.0 + math.log(1e-5)) * math.exp(700.0)
        assert out["bound"] == pytest.approx(expected, rel=1e-12)
        assert out["exact"] == pytest.approx(expected, rel=1e-8)

    def test_nan_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="nonnegative"):
                hypergeometric_mgf_bound(10, 2, math.nan)


@pytest.mark.parametrize("population,draw1,draw2", [
    (20, 7, 7), (256, 8, 8), (1024, 5, 5), (1024, 32, 32), (4096, 64, 64), (20, 12, 13),
    (10 ** 7, 6, 6), (4096, 256, 256)])
def test_hypergeometric_logpmf_matches_exact_binomials(population, draw1, draw2):
    ks, logpmf = hypergeometric_logpmf(population, draw1, draw2)
    assert ks.tolist() == list(range(max(0, draw1 + draw2 - population), min(draw1, draw2) + 1))
    exact = [math.log(math.comb(draw2, k)) + math.log(math.comb(population - draw2, draw1 - k))
             - math.log(math.comb(population, draw1)) for k in ks.tolist()]
    # the running sum of log ratios forms no term near log(population!), so
    # the error does not grow with the population: 1.1e-14 at 10^7 and
    # 4.6e-13 at (4096, 256, 256)
    assert np.max(np.abs(logpmf - exact)) <= 1e-12


@pytest.mark.parametrize("population,draw1,draw2", [(5, 7, 2), (5, 2, 6), (5, -1, 2)])
def test_hypergeometric_logpmf_refuses_draws_outside_the_population(population, draw1, draw2):
    with pytest.raises(ContractError, match=r"draw[12] must be in \[0, 5\]") as caught:
        hypergeometric_logpmf(population, draw1, draw2)
    assert caught.value.argument == ("draw1" if draw1 != 2 else "draw2")


@st.composite
def _log_sum_exp_cases(draw):
    """Finite entries around an offset in [-700, 700], some tied at the
    maximum, with positive weights up to 1e6 or none."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 300.0]))
    a = draw(st.floats(-700, 700)) + spread * rng.standard_normal(n)
    ties = draw(st.integers(0, min(n, 4)))
    a[rng.choice(n, size=ties, replace=False)] = a.max()
    weighted = draw(st.booleans())
    return a, 10.0 ** rng.uniform(-6, 6, size=n) if weighted else None


class TestLogSumExp:
    """The exact routes' log-sum-exp against scipy's."""

    @given(_log_sum_exp_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_scipy(self, case):
        a, b = case
        expected = float(logsumexp(a, b=b))
        assert abs(_log_sum_exp(a, b) - expected) <= 1e-13 * max(1.0, abs(expected))

    @pytest.mark.parametrize("a,expected", [
        ([2.5], 2.5),
        ([-math.inf, 0.0, 1.0], math.log(1.0 + math.e)),
        ([-math.inf, -math.inf], -math.inf),
        ([1.0, math.inf, -math.inf], math.inf),
    ])
    def test_edge_entries(self, a, expected):
        a = np.array(a)
        assert _log_sum_exp(a) == pytest.approx(expected, rel=1e-15)
        assert _log_sum_exp(a) == pytest.approx(float(logsumexp(a)), rel=1e-15)

    def test_weights_and_every_axis(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.full((2, 3), 4.0)
        assert _log_sum_exp(a) == pytest.approx(float(logsumexp(a)), rel=1e-15)
        assert _log_sum_exp(a, b) == pytest.approx(_log_sum_exp(a) + math.log(4.0), rel=1e-15)


class TestMeanShiftTV:
    def test_zero_shift(self):
        assert mean_shift_tv(Equicorrelated(5, 0.2), 0.0) == 0.0

    def test_formula_point(self):
        val = mean_shift_tv(Equicorrelated(4, 0.0), 0.5)
        assert val == pytest.approx(0.5 * math.sqrt(math.e - 1.0), rel=1e-12)

    def test_dominates_exact_tv(self):
        # Exact TV via the one-dimensional reduction along the shift
        # direction, integrated by quadrature.
        p, g, m = 6, 0.3, 0.4
        model = Equicorrelated(p, g)
        sigma = math.sqrt(1 - g + g * p)
        mu = math.sqrt(p) * m
        exact = quad(lambda x: 0.5 * abs(norm.pdf(x, mu, sigma) - norm.pdf(x, 0, sigma)),
                     -np.inf, np.inf, epsabs=1e-12)[0]
        assert exact <= mean_shift_tv(model, m)


class TestRiskLowerBound:
    def test_trivial_prior(self):
        model = Equicorrelated(8, 0.4)
        assert risk_lower_bound(PointMass(np.zeros(8)), model) == 1.0

    def test_sparse_prior_majorant(self):
        # The closed-form majorant (1 + (1/s)(2/(2-sqrt2)) c^2)^s - 1 must
        # dominate the exact overlap sum, giving risk >= 0.9 at c = 0.1.
        p, s, g, c = 64, 4, 0.5, 0.1
        model = Equicorrelated(p, g)
        rate = (1 - g) * s * math.log1p(p / s ** 2)
        scale = math.sqrt(2.0 / (2.0 - math.sqrt(2.0)))
        a = scale * c * math.sqrt(rate / s)
        prior = UniformSparse(p, s, a)
        res = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
        majorant = (1 + (1 / s) * scale ** 2 * c ** 2) ** s - 1
        assert res.chi_sq <= majorant * (1 + 1e-9)
        assert risk_lower_bound(prior, model, method="hypergeometric_sum") >= 0.9

    def test_shifted_route(self):
        # Complement-support reduction at p=100, s=60, gamma=0.2, c=0.05.
        p, s, g, c = 100, 60, 0.2, 0.05
        model = Equicorrelated(p, g)
        kappa = min((1 - g) * p ** 1.5 / (p - s), 1 - g + g * p)
        b = c * math.sqrt(kappa * p) / s
        prior = ShiftedSparse(p, s, b)
        assert risk_lower_bound(prior, model) >= 0.8

    def test_result_internal_consistency(self):
        res = DivergenceResult(0.09, "closed_form")
        assert res.tv_bound == pytest.approx(0.15)
        assert res.risk_bound == pytest.approx(0.85)
        big = DivergenceResult(100.0, "closed_form")
        assert big.risk_bound == 0.0


class TestDraw:
    def test_draws_live_in_declared_space(self):
        rng = np.random.default_rng(2)
        prior = UniformSparse(20, 3, 0.7)
        for _ in range(100):
            th = draw(prior, rng)
            assert np.count_nonzero(th) == 3
            assert th[th != 0].tolist() == [0.7] * 3
        gp = SingleGroupSparse(12, 3, 2, 1.1)
        for _ in range(100):
            th = draw(gp, rng)
            idx = np.flatnonzero(th)
            assert idx.size == 2
            assert len(set(idx // 4)) == 1  # both hits in one block
        gs = GroupSupported(12, 4, 2, 0.9)
        for _ in range(100):
            th = draw(gs, rng)
            blocks = th.reshape(4, 3)
            used = [k for k in range(4) if np.any(blocks[k] != 0)]
            assert len(used) == 2
            for k in used:
                assert np.all(blocks[k] == 0.9)

    def test_sign_matching_needs_pattern(self):
        prior = UniformSparse(8, 2, 1.0, signs="match_pattern")
        with pytest.raises(ContractError):
            draw(prior, np.random.default_rng(0))

    def test_shifted_prior_refused_batched(self):
        with pytest.raises(ContractError):
            draw(ShiftedSparse(8, 3, 0.5), np.random.default_rng(0), size=4)


# Single draws (no ``size``) feed the risk engine, so their stream use is
# pinned: the nonzero entries (index, float.hex) of three draws from
# default_rng(20261018), then the next uniform from that generator, as the
# code before batched draws produced them.
_PATTERN = np.array([1, -1, 2, -0.5, 1, -1, 1, -3, 1.0])
_A, _B = "0x1.6666666666666p-1", "0x1.4cccccccccccdp+0"
_C, _D = "0x1.ccccccccccccdp-1", "0x1.3333333333333p-1"
_E = "0x1.199999999999ap+0"
PINNED_SINGLE_DRAWS = [
    (UniformSparse(20, 3, 0.7), None,
     [[(12, _A), (16, _A), (19, _A)], [(0, _A), (13, _A), (14, _A)],
      [(8, _A), (13, _A), (14, _A)]], "0x1.30d00aece4100p-9"),
    (UniformSparse(9, 4, 1.3, signs="match_pattern"), _PATTERN,
     [[(3, "-" + _B), (4, _B), (6, _B), (7, "-" + _B)],
      [(0, _B), (4, _B), (6, _B), (8, _B)],
      [(0, _B), (3, "-" + _B), (5, "-" + _B), (8, _B)]], "0x1.73a923a64e95bp-1"),
    (UniformSparse(15, 5, 0.9, signs="rademacher"), None,
     [[(5, _C), (7, _C), (8, "-" + _C), (10, _C), (12, _C)],
      [(0, _C), (6, "-" + _C), (9, "-" + _C), (13, "-" + _C), (14, "-" + _C)],
      [(1, "-" + _C), (3, _C), (5, _C), (10, "-" + _C), (14, _C)]],
     "0x1.1ab6a6dfa9db8p-4"),
    (UniformSparse(16, 3, 0.6, universe=np.array([1, 4, 5, 9, 11, 15])), None,
     [[(5, _D), (11, _D), (15, _D)], [(1, _D), (9, _D), (11, _D)],
      [(4, _D), (9, _D), (11, _D)]], "0x1.30d00aece4100p-9"),
    (SingleGroupSparse(12, 3, 2, 1.1), None,
     [[(10, _E), (11, _E)], [(4, _E), (6, _E)], [(1, _E), (2, _E)]],
     "0x1.5527321162951p-1"),
    (GroupSupported(12, 4, 2, 0.9), None,
     [[(i, _C) for i in range(6, 12)], [(i, _C) for i in range(3, 9)],
      [(i, _C) for i in range(6, 12)]], "0x1.8a376402e7fbdp-1"),
]


@pytest.mark.parametrize("prior,v,expected,after", PINNED_SINGLE_DRAWS)
def test_single_draws_keep_their_stream(prior, v, expected, after):
    rng = np.random.default_rng(20261018)
    for want in expected:
        theta = draw(prior, rng, v=v)
        idx = np.flatnonzero(theta)
        assert [(int(i), float(theta[i]).hex()) for i in idx] == want
    assert float(rng.random()).hex() == after


_UNIFORM_CASES = [
    (UniformSparse(6, 2, 1.0), 15),
    (UniformSparse(10, 2, 1.0, universe=np.array([0, 3, 4, 7, 9])), 10),
    (SingleGroupSparse(12, 3, 2, 1.0), 18),
    (GroupSupported(12, 4, 2, 1.0), 6),
]


class TestBatchedDraw:
    def test_rows_live_in_declared_space(self):
        rng = np.random.default_rng(3)
        batch = draw(UniformSparse(20, 3, 0.7), rng, size=500)
        assert batch.shape == (500, 20)
        assert np.all(np.count_nonzero(batch, axis=1) == 3)
        assert np.all(batch[batch != 0] == 0.7)
        batch = draw(SingleGroupSparse(12, 3, 2, 1.1), rng, size=500)
        for th in batch:
            idx = np.flatnonzero(th)
            assert idx.size == 2 and len(set(idx // 4)) == 1
            assert np.all(th[idx] == 1.1)
        batch = draw(GroupSupported(12, 4, 2, 0.9), rng, size=500)
        for th in batch:
            blocks = th.reshape(4, 3)
            used = [k for k in range(4) if np.any(blocks[k] != 0)]
            assert len(used) == 2
            assert np.all(blocks[used] == 0.9)

    def test_signs_and_universe(self):
        rng = np.random.default_rng(4)
        prior = UniformSparse(9, 4, 1.3, signs="match_pattern")
        batch = draw(prior, rng, v=_PATTERN, size=500)
        assert np.all(np.count_nonzero(batch, axis=1) == 4)
        hit = batch != 0
        assert np.all(np.sign(batch[hit]) == np.broadcast_to(np.sign(_PATTERN), batch.shape)[hit])
        assert np.all(np.abs(batch[hit]) == 1.3)
        rad = draw(UniformSparse(15, 5, 0.9, signs="rademacher"), rng, size=2000)
        assert np.all(np.count_nonzero(rad, axis=1) == 5)
        assert set(np.unique(rad[rad != 0])) == {-0.9, 0.9}
        assert abs(float(np.mean(rad[rad != 0] > 0)) - 0.5) < 0.03
        universe = np.array([1, 4, 5, 9, 11, 15])
        batch = draw(UniformSparse(16, 3, 0.6, universe=universe), rng, size=500)
        assert np.all(np.count_nonzero(batch, axis=1) == 3)
        assert not np.any(np.delete(batch, universe, axis=1))
        with pytest.raises(ContractError):
            draw(prior, rng, size=3)

    def test_point_mass_tiles(self):
        theta = np.array([0.1, -0.2, 0.3])
        batch = draw(PointMass(theta), np.random.default_rng(0), size=4)
        assert np.array_equal(batch, np.tile(theta, (4, 1)))

    @pytest.mark.parametrize("prior,n_supports", _UNIFORM_CASES)
    def test_supports_are_uniform(self, prior, n_supports):
        # every support equally likely: chi-square goodness of fit of the
        # support counts, on a fixed seed
        n = 30_000
        batch = draw(prior, substream(12, 0), size=n)
        counts = Counter(tuple(np.flatnonzero(th)) for th in batch)
        assert len(counts) == n_supports
        assert chisquare(list(counts.values())).pvalue > 1e-3

    @pytest.mark.parametrize("prior,n_supports", _UNIFORM_CASES)
    def test_single_draws_are_uniform(self, prior, n_supports):
        # the risk engine's draws, one per stream, take another path
        rng = substream(12, 1)
        counts = Counter(tuple(np.flatnonzero(draw(prior, rng))) for _ in range(20_000))
        assert len(counts) == n_supports
        assert chisquare(list(counts.values())).pvalue > 1e-3


class TestFloydSubsets:
    """Batched subsets: distinct, in range, and every element equally often."""

    @pytest.mark.parametrize("population,k", [(1, 1), (5, 5), (9, 4), (256, 8), (128, 16)])
    def test_rows_are_distinct_and_in_range(self, population, k):
        rows = _subsets(np.random.default_rng(6), population, k, 500)
        assert rows.shape == (500, k)
        assert rows.min() >= 0 and rows.max() < population
        assert np.all(np.diff(np.sort(rows, axis=1), axis=1) > 0)

    def test_positions_are_uniform(self):
        rows = _subsets(np.random.default_rng(7), 256, 8, 32_000)
        counts = np.bincount(rows.ravel(), minlength=256)
        assert chisquare(counts).pvalue > 1e-3


class TestEnumerationSupports:
    def test_supports_follow_itertools_on_pools(self):
        universe = np.array([2, 3, 7, 8, 11, 12, 15])
        got, _ = UniformSparse(16, 3, 1.0, universe=universe).support_rows(10_000)
        assert np.array_equal(got, list(combinations(universe.tolist(), 3)))
        got, _ = SingleGroupSparse(12, 3, 2, 1.0).support_rows(10_000)
        want = [tuple(k * 4 + np.asarray(S)) for k in range(3)
                for S in combinations(range(4), 2)]
        assert np.array_equal(got, want)
        got, _ = GroupSupported(12, 4, 2, 1.0).support_rows(10_000)
        want = [np.concatenate([np.arange(k * 3, k * 3 + 3) for k in g])
                for g in combinations(range(4), 2)]
        assert np.array_equal(got, want)

    def test_support_limit(self):
        assert UniformSparse(1024, 8, 1.0).support_rows(10 ** 6) is None
        assert UniformSparse(10, 3, 1.0).support_rows(119) is None
        assert UniformSparse(10, 3, 1.0).support_rows(120)[0].shape == (120, 3)


@pytest.mark.parametrize("prior,model,v", [
    (SingleGroupSparse(64, 4, 3, 0.5), Grouped(64, 4, 0.4), None),
    (GroupSupported(64, 8, 2, 0.3), Grouped(64, 8, 0.6), None),
    (UniformSparse(64, 4, 0.5, signs="match_pattern"),
     RankOne(64, 0.5, np.tile([1.0, -1.0], 32)), np.tile([1.0, -1.0], 32)),
])
def test_batched_monte_carlo_covers_exact(prior, model, v):
    exact = ingster_suslina_chisq(prior, model, method="hypergeometric_sum", v=v)
    mc = ingster_suslina_chisq(prior, model, method="monte_carlo", n_mc=20_000,
                               rng=np.random.default_rng(5), v=v)
    assert mc.stderr > 0
    assert abs(mc.chi_sq - exact.chi_sq) <= 4 * mc.stderr


# Monte Carlo pair terms from supports: every prior the route draws, under
# every model, against the dense form on the same supports
_SIGNS64 = np.random.default_rng(8).choice([-1.0, 1.0], size=64)
MC_PRIORS = [
    UniformSparse(64, 5, 0.7),
    UniformSparse(64, 5, 0.7, signs="match_pattern"),
    UniformSparse(64, 5, 0.7, signs="rademacher"),
    UniformSparse(64, 5, 0.7, universe=np.arange(3, 60, 3)),
    SingleGroupSparse(64, 4, 3, 0.6),
    GroupSupported(64, 8, 3, 0.4),
]
MC_MODELS = [
    Equicorrelated(64, 0.4),
    Grouped(64, 4, 0.5),
    RankOne(64, 0.5, _SIGNS64),
    RankOne.renormalized(64, 0.7, np.linspace(-1.5, 2.0, 64)),
]


def _dense(idx, values, p):
    thetas = np.zeros((idx.shape[0], p))
    for row, cols, vals in zip(thetas, idx, np.broadcast_to(values, idx.shape)):
        row[cols] = vals
    return thetas


@pytest.mark.parametrize("model", MC_MODELS, ids=lambda m: m.family)
@pytest.mark.parametrize("prior", MC_PRIORS, ids=lambda pr: pr.descriptor()["prior"])
def test_support_pair_terms_equal_the_dense_form(prior, model):
    v = getattr(model, "v", _SIGNS64)
    idx, values = prior.supports(substream(21, 0), v, 2 * 300)
    thetas = _dense(idx, values, prior.p)
    prec = precision_apply(model, thetas[1::2])
    dense = (thetas[0::2] * prec).sum(axis=-1)
    # the size of the summands: a pair term that cancels to about 0 is
    # compared at the scale of what cancelled
    scale = (np.abs(thetas[0::2]) * np.abs(prec)).sum(axis=-1)
    terms = _pair_terms(model, idx, values)
    assert terms.shape == (300,)
    assert np.all(np.abs(terms - dense) <= 1e-12 * scale)
    # the supports overlap, so the inner-product branch is exercised too
    assert np.any((thetas[0::2] != 0) & (thetas[1::2] != 0))


@pytest.mark.parametrize("prior", MC_PRIORS + [PointMass(np.linspace(-1.0, 1.0, 64))],
                         ids=lambda pr: pr.descriptor()["prior"])
def test_draw_is_the_dense_form_of_the_supports(prior):
    for size in (None, 40):
        idx, values = prior.supports(substream(22, 0), _SIGNS64, size)
        theta = draw(prior, substream(22, 0), v=_SIGNS64, size=size)
        want = _dense(np.atleast_2d(idx), values, prior.p)
        assert np.array_equal(theta, want if size else want[0])


@pytest.mark.parametrize("prior,model", [
    # overlaps are rare (s^2/p ~ 0.004): blocks of 504 pairs, not 8 of width p
    (UniformSparse(4096, 4, 1.0), Equicorrelated(4096, 0.5)),
    # supports of 64 coordinates in 256 groups of 16
    (GroupSupported(4096, 256, 4, 1.0), Grouped(4096, 256, 0.5)),
])
def test_monte_carlo_covers_exact_at_large_p(prior, model):
    exact = ingster_suslina_chisq(prior, model, method="hypergeometric_sum")
    mc = ingster_suslina_chisq(prior, model, method="monte_carlo", n_mc=20_000,
                               rng=np.random.default_rng(5))
    assert mc.stderr > 0
    assert abs(mc.chi_sq - exact.chi_sq) <= 4 * mc.stderr


# Routing by what the model is: block count, exchangeable blocks, block sums

_SIGNS16 = np.tile([1.0, -1.0], 8)
_GAMMA_ONE_MODELS = [Equicorrelated(16, 1.0), Grouped(16, 2, 1.0), Grouped(16, 4, 1.0),
                     RankOne(16, 1.0, _SIGNS16)]
_GAMMA_ONE_PRIORS = [
    UniformSparse(16, 3, 0.4),
    UniformSparse(16, 3, 0.4, signs="match_pattern"),
    UniformSparse(16, 3, 0.4, signs="rademacher"),
    UniformSparse(16, 3, 0.4, universe=np.arange(4, 12)),
    SingleGroupSparse(16, 2, 3, 0.4),
    SingleGroupSparse(16, 4, 3, 0.4),
    GroupSupported(16, 2, 1, 0.4),
    GroupSupported(16, 4, 2, 0.4),
    GroupSupported(16, 1, 1, 0.4),  # one whole group: the point mass 0.4 * 1
]


@pytest.mark.parametrize("with_rng", [False, True])
@pytest.mark.parametrize("method", ["auto", "hypergeometric_sum", "exact_enumeration",
                                    "monte_carlo"])
@pytest.mark.parametrize("model", _GAMMA_ONE_MODELS, ids=lambda m: f"{m.family}-R{m.R}")
@pytest.mark.parametrize("prior", _GAMMA_ONE_PRIORS,
                         ids=lambda pr: "-".join(str(x) for x in pr.descriptor().values()))
def test_gamma_one_refuses_every_prior_off_the_span(prior, model, method, with_rng):
    rng = np.random.default_rng(0) if with_rng else None
    whole = isinstance(prior, GroupSupported) and prior.R == model.R and model.exchangeable
    if whole and method in ("auto", "hypergeometric_sum"):
        res = ingster_suslina_chisq(prior, model, method=method, rng=rng, v=_SIGNS16)
        assert res.method == "hypergeometric_sum" and math.isfinite(res.chi_sq)
        if prior.m == prior.R:
            point = ingster_suslina_chisq(PointMass(np.full(16, prior.magnitude)), model)
            assert res.chi_sq == pytest.approx(point.chi_sq, rel=1e-12)
        return
    if whole and method == "monte_carlo" and rng is None:
        # the prior lies in the span; the route itself needs an rng
        with pytest.raises(ContractError, match="rng"):
            ingster_suslina_chisq(prior, model, method=method, v=_SIGNS16)
        return
    with pytest.raises(SingularCovarianceError) as refusal:
        ingster_suslina_chisq(prior, model, method=method, n_mc=100, rng=rng, v=_SIGNS16)
    assert "monte_carlo" not in str(refusal.value)


@pytest.mark.parametrize("method", ["auto", "hypergeometric_sum", "exact_enumeration",
                                    "monte_carlo"])
@pytest.mark.parametrize("prior,model", [
    (UniformSparse(10, 2, 0.5), Equicorrelated(20, 0.3)),
    (UniformSparse(32, 2, 0.4, signs="rademacher"), Equicorrelated(64, 0.3)),
    (SingleGroupSparse(12, 4, 2, 0.5), Grouped(24, 4, 0.3)),
    (GroupSupported(12, 4, 2, 0.5), Grouped(24, 4, 0.3)),
    (PointMass(np.ones(12)), Equicorrelated(24, 0.3)),
], ids=["uniform", "rademacher", "single-group", "group-supported", "point-mass"])
def test_every_route_refuses_a_prior_of_another_dimension(prior, model, method):
    with pytest.raises(ContractError, match="dimension"):
        ingster_suslina_chisq(prior, model, method=method, n_mc=100,
                              rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match="dimension"):
        risk_lower_bound(prior, model, method=method, n_mc=100,
                         rng=np.random.default_rng(0))


@pytest.mark.parametrize("prior,model", [
    (UniformSparse(10, 3, 0.45), Grouped(10, 1, 0.4)),
    (UniformSparse(10, 3, 0.45, universe=np.arange(2, 9)), Grouped(10, 1, 0.7)),
    (SingleGroupSparse(9, 1, 3, 0.45), Equicorrelated(9, 0.4)),
])
def test_single_block_models_take_the_overlap_sum(prior, model):
    res = ingster_suslina_chisq(prior, model)
    assert res.method == "hypergeometric_sum"
    assert res.chi_sq == pytest.approx(brute_force_chisq(prior, model), rel=1e-10)


def test_group_count_mismatch_is_enumerated():
    prior, model = SingleGroupSparse(12, 3, 2, 0.5), Grouped(12, 4, 0.4)
    res = ingster_suslina_chisq(prior, model)
    assert res.method == "exact_enumeration"
    assert res.chi_sq == pytest.approx(brute_force_chisq(prior, model), rel=1e-10)
    with pytest.raises(ContractError, match="overlap"):
        ingster_suslina_chisq(prior, model, method="hypergeometric_sum")


@pytest.mark.parametrize("signs", ["plus", "match_pattern"])
def test_rank_one_universe_inside_a_flat_support(signs):
    # _hetero_pattern's shape: a constant bump on the first coordinates, zero
    # elsewhere; a universe inside the bump weighs every coordinate alike
    p = 64
    v = np.zeros(p)
    v[:math.isqrt(p)] = p ** 0.25
    model = RankOne(p, 0.6, v)
    prior = UniformSparse(p, 3, 0.5, signs=signs, universe=np.arange(1, 7))
    hyp = ingster_suslina_chisq(prior, model, method="hypergeometric_sum", v=v)
    enum = ingster_suslina_chisq(prior, model, method="exact_enumeration", v=v)
    assert abs(hyp.chi_sq - enum.chi_sq) <= 1e-12 * abs(enum.chi_sq)
    # a universe reaching past the bump is not overlap-only
    wide = UniformSparse(p, 3, 0.5, signs=signs, universe=np.arange(4, 12))
    assert ingster_suslina_chisq(wide, model, v=v).method == "exact_enumeration"


def test_sign_matching_under_one_exchangeable_block_follows_the_signs():
    # mixed signs make the block sum depend on the support, so no overlap sum
    prior, model = UniformSparse(8, 2, 0.5, signs="match_pattern"), Equicorrelated(8, 0.3)
    mixed = np.tile([1.0, -1.0], 4)
    res = ingster_suslina_chisq(prior, model, v=mixed)
    enum = ingster_suslina_chisq(prior, model, method="exact_enumeration", v=mixed)
    assert res.method == "exact_enumeration" and res.chi_sq == enum.chi_sq
    plus = ingster_suslina_chisq(UniformSparse(8, 2, 0.5), model)
    assert ingster_suslina_chisq(prior, model, v=-np.ones(8)).chi_sq == plus.chi_sq
    with pytest.raises(ContractError, match="pattern v"):
        ingster_suslina_chisq(prior, model)


def test_unknown_sign_rule_is_refused():
    # a misspelt rule used to be drawn and summed as plus signs
    with pytest.raises(ContractError, match="radamacher"):
        UniformSparse(16, 3, 0.4, signs="radamacher")


@pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda a: UniformSparse(10, 2, a),
    lambda a: SingleGroupSparse(12, 3, 2, a),
    lambda a: GroupSupported(12, 3, 1, a),
    lambda a: ShiftedSparse(10, 2, a),
    lambda a: PointMass(np.r_[0.4, a, np.zeros(8)]),
])
def test_non_finite_magnitude_is_refused(make, magnitude):
    # UniformSparse(10, 2, nan) used to be enumerated to a chi-square of NaN
    with pytest.raises(ContractError, match="finite"):
        make(magnitude)


@pytest.mark.parametrize("method", ["exact", "montecarlo", ""])
def test_unknown_method_is_refused_before_any_route(method):
    # "exact" with an rng used to return a Monte Carlo estimate
    prior, model = UniformSparse(16, 3, 0.4), Equicorrelated(16, 0.4)
    for bound in (ingster_suslina_chisq, risk_lower_bound):
        with pytest.raises(ContractError, match="hypergeometric_sum") as info:
            bound(prior, model, method=method, rng=substream(0, 0))
        assert all(name in str(info.value) for name in
                   ("auto", "closed_form", "exact_enumeration", "monte_carlo"))
    with pytest.raises(ContractError, match="unknown method"):
        ingster_suslina_chisq(PointMass(np.full(16, 0.1)), model, method=method)


def test_closed_forms_past_the_float_range_are_infinite():
    # math.expm1 used to raise OverflowError here; every other route gives +inf
    model = Equicorrelated(16, 0.3)
    res = ingster_suslina_chisq(PointMass(np.full(16, 100.0)), model)
    assert res.chi_sq == math.inf and res.risk_bound == 0.0
    assert mean_shift_tv(model, 100.0) == math.inf
    assert risk_lower_bound(ShiftedSparse(16, 3, 100.0), model) == 0.0


@pytest.mark.parametrize("prior,model,method", [
    (PointMass(np.full(16, 1e300)), Equicorrelated(16, 0.4), "closed_form"),
    (UniformSparse(16, 3, 1e300), Equicorrelated(16, 0.4), "hypergeometric_sum"),
    (UniformSparse(16, 3, 1e154), Equicorrelated(16, 0.0), "hypergeometric_sum"),
    (UniformSparse(16, 3, 1e300), Equicorrelated(16, 0.4), "exact_enumeration"),
    (UniformSparse(8, 2, 1e300), Grouped(8, 2, 0.5), "exact_enumeration"),
    (UniformSparse(16, 3, 1e300), Equicorrelated(16, 0.4), "monte_carlo"),
    (SingleGroupSparse(16, 4, 3, 1e300), Grouped(16, 4, 0.5), "hypergeometric_sum"),
    (GroupSupported(16, 4, 2, 1e300), Grouped(16, 4, 0.5), "hypergeometric_sum"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_every_route_is_infinite_past_the_float_range(prior, model, method):
    # a uniform support once gave NaN (inf * 0 at overlap 0), and numpy
    # warned of overflow on every route
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ingster_suslina_chisq(prior, model, method=method, n_mc=1000,
                                    rng=substream(0, 0))
        descriptor = prior.descriptor()
    assert res.chi_sq == math.inf and res.risk_bound == 0.0
    assert res.stderr == (math.inf if method == "monte_carlo" else None)
    assert all(not isinstance(x, float) or not math.isnan(x) for x in descriptor.values())


def test_a_nan_divergence_stays_nan():
    # only the routes map inf - inf past the float range to +inf
    res = DivergenceResult(math.nan, "monte_carlo")
    assert math.isnan(res.chi_sq) and math.isnan(res.tv_bound)


@pytest.mark.parametrize("call", [
    lambda: UniformSparse(8, 2.0, 1.0),
    lambda: UniformSparse(4.5, 1, 1.0),
    lambda: UniformSparse(4, 1, "a"),
    lambda: ShiftedSparse(4.5, 1, 1.0),
    lambda: SingleGroupSparse(8, 0, 1, 1.0),
    lambda: GroupSupported(8, 0, 1, 1.0),
    lambda: PointMass("ab"),
    lambda: draw(UniformSparse(8, 2, 1.0), substream(0, 0), size=2.5),
    lambda: draw(UniformSparse(8, 2, 1.0), substream(0, 0), size=-1),
    lambda: ingster_suslina_chisq(UniformSparse(8, 2, 1.0), Equicorrelated(8, 0.5),
                                  method="monte_carlo", n_mc=2.5, rng=substream(0, 0)),
    lambda: hypergeometric_mgf_bound(4.5, 1, 1.0),
    lambda: UniformSparse(4, 1, 1.0, universe=[0.5, 1.7]),
    lambda: UniformSparse(4, 1, 1.0, universe=["a"]),
    lambda: UniformSparse(4, 1, 1.0, universe=[[0, 1], [2]]),
    lambda: UniformSparse(4, 1, 10 ** 400),
    lambda: SingleGroupSparse(8, 2, 1, -10 ** 400),
    lambda: hypergeometric_logpmf(4.5, 1, 1),
    lambda: hypergeometric_logpmf(5, 1.5, 1),
    lambda: mean_shift_tv(Equicorrelated(4, 0.5), 10 ** 400),
    lambda: mean_shift_tv(Equicorrelated(4, 0.5), "a"),
], ids=["uniform-float-s", "uniform-fraction-p", "uniform-text-magnitude",
        "shifted-fraction-p", "single-group-zero-R", "group-supported-zero-R",
        "point-mass-text", "draw-fraction-size", "draw-negative-size", "monte-carlo-fraction-n",
        "mgf-fraction-p", "universe-fractions", "universe-text", "universe-ragged",
        "magnitude-past-float-range", "group-magnitude-past-float-range",
        "logpmf-fraction-population", "logpmf-fraction-draw", "shift-past-float-range",
        "shift-text"])
def test_bad_arguments_raise_contract_errors(call):
    # each once built a prior (one whose draws and stream token differ from
    # the integer one's, or whose universe truncated [0.5, 1.7] to [0, 1]),
    # returned a log-pmf, or raised a bare TypeError, ValueError,
    # OverflowError or ZeroDivisionError
    with pytest.raises(ContractError):
        call()


@pytest.mark.parametrize("model", [Grouped(8, 2, 0.5), RankOne(8, 0.5, np.ones(8))],
                         ids=lambda m: m.family)
def test_the_shifted_route_refuses_a_model_that_is_not_equicorrelated(model):
    # mean_shift_tv's refusal, which risk_lower_bound no longer copies
    with pytest.raises(ContractError, match="equicorrelated"):
        risk_lower_bound(ShiftedSparse(8, 3, 0.5), model)
