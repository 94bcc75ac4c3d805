"""Sampler, decorrelation, and closed-form precision checks.

Dense-solve oracles build the full covariance at tiny p and compare against
the O(p) closed forms; distributional checks run on seeded vectorized draws.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from corrdetect import models
from corrdetect.errors import (
    ContractError,
    CorrdetectError,
    SingularCovarianceError,
    UnsupportedRegimeError,
)
from corrdetect.models import (
    Equicorrelated,
    Grouped,
    Observation,
    RankOne,
    canonical_layout,
    check_family,
    covariance_apply,
    decorrelate,
    model_from,
    precision_apply,
    sample,
)
from corrdetect.procedures import build_test


def dense_covariance(model) -> np.ndarray:
    """Oracle: materialize the covariance matrix."""
    p, g = model.p, model.gamma
    if isinstance(model, Equicorrelated):
        return (1 - g) * np.eye(p) + g * np.ones((p, p))
    if isinstance(model, Grouped):
        sigma = (1 - g) * np.eye(p)
        for k in range(model.R):
            ind = (np.arange(p) // model.block_size == k).astype(float)
            sigma += g * np.outer(ind, ind)
        return sigma
    return (1 - g) * np.eye(p) + g * np.outer(model.v, model.v)


class TestConstruction:
    def test_grouped_requires_divisibility(self):
        with pytest.raises(ContractError):
            Grouped(10, 3, 0.5)

    def test_rank_one_normalization_enforced(self):
        with pytest.raises(ContractError):
            RankOne(4, 0.5, np.array([1.0, 1.0, 1.0, 2.0]))
        m = RankOne.renormalized(4, 0.5, np.array([1.0, 1.0, 1.0, 2.0]))
        assert np.isclose(m.v @ m.v, 4.0, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rank_one_refuses_a_non_finite_pattern(self, bad):
        # ||v||^2 = nan passes a tolerance check written as |nsq - p| > tol
        with pytest.raises(ContractError, match="finite"):
            RankOne(4, 0.5, np.array([bad, 1.0, 1.0, 1.0]))

    def test_rank_one_sign_pattern(self):
        assert RankOne(4, 0.5, np.array([1.0, -1.0, -1.0, 1.0])).sign_pattern
        assert not RankOne.renormalized(4, 0.5, np.array([1.0, 2.0, 2.0, 1.0])).sign_pattern
        assert not RankOne(4, 0.5, np.array([2.0, 0.0, 0.0, 0.0])).sign_pattern

    def test_gamma_range(self):
        with pytest.raises(ContractError):
            Equicorrelated(4, 1.5)
        Equicorrelated(4, 1.0)  # singular covariance is a first-class variant

    @pytest.mark.parametrize("gamma", [2 ** 70, -2 ** 70, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [lambda g: Equicorrelated(16, g),
                                       lambda g: Grouped(16, 4, g),
                                       lambda g: RankOne(16, g, np.ones(16))],
                             ids=["equicorrelated", "grouped", "rank_one"])
    def test_gamma_outside_the_floats_is_refused(self, build, gamma):
        # an integer beyond float range is refused as NaN and infinities are
        with pytest.raises(ContractError, match="gamma must lie in"):
            build(gamma)

    @pytest.mark.parametrize("build", [
        lambda: Equicorrelated(16.5, 0.5),
        lambda: Equicorrelated(math.nan, 0.5),
        lambda: Equicorrelated(16.0, 0.5),
        lambda: Grouped(16, 4.0, 0.5),
        lambda: Grouped(16.0, 4, 0.5),
        lambda: RankOne(16.0, 0.5, np.ones(16)),
        lambda: build_test("equicorrelated", 8.0, 2, 0.5, mode="paper_constants", C=1.0),
    ], ids=["equicorrelated-p", "equicorrelated-nan", "equicorrelated-float", "grouped-R",
            "grouped-p", "rank-one-p", "build-test-p"])
    def test_dimensions_must_be_integers(self, build):
        with pytest.raises(ContractError, match="must be an integer"):
            build()

    def test_integer_types_are_dimensions(self):
        assert Grouped(np.int64(16), np.int32(4), 0.5).block_size == 4
        assert Equicorrelated(np.uint8(16), 0.5).p == 16

    def test_rank_one_leaves_caller_pattern_writeable(self):
        v = np.ones(16)
        model = RankOne(16, 0.5, v)
        v[0] = 2.0
        assert model.v[0] == 1.0 and not model.v.flags.writeable
        assert RankOne(16, 0.3, model.v).v is model.v  # a frozen pattern is shared
        strided = np.ones(32)[::2]
        strided.setflags(write=False)
        copied = RankOne(16, 0.5, strided).v
        assert copied is not strided and copied.flags.c_contiguous

    @pytest.mark.parametrize("family,direct", [
        ("equicorrelated", Equicorrelated(12, 0.4)),
        ("grouped", Grouped(12, 3, 0.4)),
        ("rank_one", RankOne(12, 0.4, np.array([1.0, -1.0] * 6))),
    ])
    def test_model_from_matches_constructor(self, family, direct):
        R = 3 if family == "grouped" else None
        v = np.array([1.0, -1.0] * 6) if family == "rank_one" else None
        model = model_from(family, 12, 0.4, R=R, v=v)
        assert type(model) is type(direct) and model.family == family
        assert model.descriptor() == direct.descriptor()

    @pytest.mark.parametrize("family,R,v", [
        ("independent", None, None),
        ("grouped", None, np.ones(12)),
        ("rank_one", 3, None),
        ("equicorrelated", 3, None),  # a stray R or v is refused, not ignored
        ("equicorrelated", None, np.ones(12)),
        ("grouped", 3, np.ones(12)),
        ("rank_one", 3, np.ones(12)),
    ])
    def test_model_from_refuses(self, family, R, v):
        with pytest.raises(ContractError):
            model_from(family, 12, 0.4, R=R, v=v)


class TestSampler:
    def test_gamma_zero_marginals(self):
        model = Equicorrelated(8, 0.0)
        rng = np.random.default_rng(0)
        obs = sample(model, None, rng, size=100_000)
        var = obs.x.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.02)
        assert np.all(np.abs(obs.x.mean(axis=0)) < 0.02)

    def test_equicorrelated_pair_correlation(self):
        model = Equicorrelated(2, 0.5)
        rng = np.random.default_rng(1)
        x = sample(model, None, rng, size=100_000).x
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr - 0.5) < 0.02

    def test_perfect_correlation_collapses(self):
        model = Equicorrelated(3, 1.0)
        rng = np.random.default_rng(2)
        x = sample(model, None, rng, size=200).x
        assert np.all(x[:, 0] == x[:, 1])
        assert np.all(x[:, 0] == x[:, 2])

    def test_deterministic_given_stream(self):
        model = Grouped(12, 3, 0.4)
        theta = np.arange(12.0)
        x1 = sample(model, theta, np.random.default_rng(99), size=5).x
        x2 = sample(model, theta, np.random.default_rng(99), size=5).x
        assert np.array_equal(x1, x2)

    def test_grouped_covariance_small_p(self):
        model = Grouped(4, 2, 0.6)
        rng = np.random.default_rng(3)
        x = sample(model, None, rng, size=200_000).x
        emp = np.cov(x.T)
        assert np.allclose(emp, dense_covariance(model), atol=0.03)

    def test_grouped_R_equals_p_reduces_to_iid(self):
        # Per-coordinate two-sample KS against gamma = 0 draws.
        p = 8
        x_grouped = sample(Grouped(p, p, 0.7), None, np.random.default_rng(11), size=10_000).x
        x_iid = sample(Equicorrelated(p, 0.0), None, np.random.default_rng(12), size=10_000).x
        for j in range(p):
            assert ks_2samp(x_grouped[:, j], x_iid[:, j]).pvalue > 0.001

    @pytest.mark.parametrize("model,groups,loadings", [
        (Equicorrelated(12, 0.3), np.zeros(12, dtype=int), 1.0),
        (Grouped(12, 3, 0.4), np.repeat(np.arange(3), 4), 1.0),
        (RankOne(12, 0.6, np.tile([1.0, -1.0], 6)), np.zeros(12, dtype=int),
         np.tile([1.0, -1.0], 6)),
        (RankOne.renormalized(12, 0.6, np.linspace(0.5, 2.0, 12)), np.zeros(12, dtype=int),
         RankOne.renormalized(12, 0.6, np.linspace(0.5, 2.0, 12)).v),
    ])
    @pytest.mark.parametrize("signal", [False, True])
    def test_fixed_normals_follow_the_coordinatewise_formula(self, model, groups,
                                                             loadings, signal):
        # x_i = theta_i + sqrt(g) * w[group_i] * loading_i + sqrt(1 - g) * z_i,
        # bit for bit
        k, p, g = model.R, model.p, model.gamma
        normals = np.random.default_rng(4).standard_normal((5, k + p))
        w, z = normals[:, :k], normals[:, k:]
        theta = np.linspace(-1.0, 2.0, p) if signal else None
        want = ((0.0 if theta is None else theta)
                + (np.sqrt(g) * w)[:, groups] * loadings + np.sqrt(1.0 - g) * z)
        assert np.array_equal(sample(model, theta, normals=normals).x, want)
        assert np.array_equal(sample(model, theta, normals=normals[2]).x, want[2])

    def test_theta_dimension_guard(self):
        with pytest.raises(ContractError):
            sample(Equicorrelated(4, 0.0), np.ones(5), np.random.default_rng(0))

    @pytest.mark.parametrize("theta,kwargs", [
        (None, {}),  # neither rng nor normals
        (None, {"size": 3, "normals": np.zeros((2, 5))}),
        (None, {"size": -1, "rng": 0}),
        (np.ones((3, 4)), {"normals": np.zeros((2, 5))}),
        (np.ones((2, 4)), {"rng": 0}),  # two theta rows for one draw
        (np.ones((1, 2, 4)), {"normals": np.zeros((1, 2, 5))}),
    ])
    def test_bad_argument_combinations_refused(self, theta, kwargs):
        if "rng" in kwargs:
            kwargs = dict(kwargs, rng=np.random.default_rng(kwargs["rng"]))
        with pytest.raises(ContractError):
            sample(Equicorrelated(4, 0.0), theta, **kwargs)

    @pytest.mark.parametrize("model", [
        Equicorrelated(12, 0.3),
        Grouped(12, 3, 0.4),
        RankOne.renormalized(12, 0.6, np.linspace(0.5, 2.0, 12)),
    ])
    def test_theta_rows_equal_single_draws(self, model):
        # row j of one batched call equals a single draw from stream j, bit for bit
        n, k = 4, model.R
        theta = np.random.default_rng(3).standard_normal((n, 12))
        normals = np.array([np.random.default_rng(j).standard_normal(k + 12)
                            for j in range(n)])
        want = [sample(model, theta[j], np.random.default_rng(j)).x for j in range(n)]
        assert np.array_equal(sample(model, theta, normals=normals).x, want)


class TestDecorrelate:
    @pytest.mark.parametrize("model", [
        Equicorrelated(20, 0.5),
        Grouped(24, 4, 0.75),
        RankOne.renormalized(20, 0.3, np.linspace(1.0, 2.0, 20)),
    ])
    def test_null_output_standard_normal(self, model):
        rng = np.random.default_rng(42)
        x = sample(model, None, rng, size=100_000).x
        xt = decorrelate(model, x, rng)
        n = x.shape[0]
        assert np.all(np.abs(xt.mean(axis=0)) <= 4.0 / np.sqrt(n))
        corr = np.corrcoef(xt.T)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) <= 0.02
        assert np.all(np.abs(corr.diagonal() - 1.0) <= 0.02)

    def test_constant_signal_annihilated(self):
        # theta = a*1 contributes nothing: same stream, shifted data,
        # identical output up to float roundoff in the mean subtraction.
        model = Equicorrelated(4, 0.5)
        x = np.array([0.3, -1.2, 0.7, 2.1])
        out0 = decorrelate(model, x, np.random.default_rng(5))
        out1 = decorrelate(model, x + 17.25, np.random.default_rng(5))
        assert np.allclose(out0, out1, atol=1e-12)

    def test_grouped_shift_formula(self):
        # p=4, R=2, theta=(1,0,0,0), gamma=0.75: the deterministic part of the
        # transform maps theta to (0.5,-0.5)/sqrt(0.25) = (1,-1) on block 1.
        model = Grouped(4, 2, 0.75)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        with_theta = decorrelate(model, theta, np.random.default_rng(7))
        without = decorrelate(model, np.zeros(4), np.random.default_rng(7))
        shift = with_theta - without
        assert np.allclose(shift, [1.0, -1.0, 0.0, 0.0], atol=1e-12)

    def test_gamma_one_unsupported(self):
        model = Equicorrelated(4, 1.0)
        with pytest.raises(UnsupportedRegimeError):
            decorrelate(model, np.zeros(4), np.random.default_rng(0))


class TestPrecision:
    def test_gamma_zero_is_identity(self):
        u = np.random.default_rng(0).standard_normal(16)
        for model in [Equicorrelated(16, 0.0), Grouped(16, 4, 0.0),
                      RankOne.renormalized(16, 0.0, np.ones(16))]:
            assert np.allclose(precision_apply(model, u), u, rtol=1e-14)

    def test_inverse_identity_equicorrelated(self):
        model = Equicorrelated(3, 0.5)
        u = np.ones(3)
        back = covariance_apply(model, precision_apply(model, u))
        assert np.allclose(back, u, atol=1e-10)

    def test_grouped_matches_dense_solve(self):
        model = Grouped(4, 2, 0.3)
        u = np.random.default_rng(4).standard_normal(4)
        expected = np.linalg.solve(dense_covariance(model), u)
        assert np.allclose(precision_apply(model, u), expected, atol=1e-10)

    def test_rank_one_matches_dense_solve(self):
        model = RankOne.renormalized(6, 0.8, np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25]))
        u = np.random.default_rng(5).standard_normal(6)
        expected = np.linalg.solve(dense_covariance(model), u)
        assert np.allclose(precision_apply(model, u), expected, atol=1e-10)

    def test_roundtrip_property_all_families(self):
        rng = np.random.default_rng(6)
        models = []
        for g in [0.0, 0.3, 0.9, 0.999]:
            models += [Equicorrelated(40, g), Grouped(40, 5, g),
                       RankOne.renormalized(40, g, rng.standard_normal(40) + 0.1)]
        for model in models:
            for _ in range(5):
                u = rng.standard_normal(40)
                back = covariance_apply(model, precision_apply(model, u))
                assert np.max(np.abs(back - u)) <= 1e-9 * max(1.0, np.max(np.abs(u)))

    @pytest.mark.parametrize("layout", ["1d", "batch", "strided_rows"])
    def test_equicorrelated_is_grouped_with_one_block_bitwise(self, layout):
        rng = np.random.default_rng(13)
        u = {"1d": rng.standard_normal(24), "batch": rng.standard_normal((5, 24)),
             "strided_rows": rng.standard_normal((10, 48))[::2, 1::2]}[layout]
        xi = rng.standard_normal(u.shape[:-1] + (1,))
        for g in [0.0, 0.3, 0.999]:
            eq, one = Equicorrelated(24, g), Grouped(24, 1, g)
            for op in (precision_apply, covariance_apply):
                assert np.array_equal(op(eq, u), op(one, u))
            assert np.array_equal(decorrelate(eq, u, xi=xi), decorrelate(one, u, xi=xi))

    def test_singular_at_gamma_one(self):
        with pytest.raises(SingularCovarianceError):
            precision_apply(Equicorrelated(4, 1.0), np.ones(4))


_MODEL = Grouped(4, 2, 0.5)


@pytest.mark.parametrize("call", [
    lambda: decorrelate(_MODEL, np.ones(4)),  # neither rng nor xi
    lambda: decorrelate(_MODEL, np.ones(4), xi=[0.0]),
    lambda: precision_apply(_MODEL, 1.0),
    lambda: covariance_apply(_MODEL, 1.0),
    lambda: Observation(1.0, _MODEL),
    lambda: canonical_layout(_MODEL, np.ones(3)),
    lambda: sample(_MODEL, None, np.random.default_rng(0), size=2.5),
    lambda: RankOne(4, 0.5, "abcd"),
    lambda: RankOne.renormalized(4, 0.5, [1e200, 1, 1, 1]),  # no overflow warning first
    lambda: check_family("grouped", w=3),
], ids=["decorrelate-no-stream", "decorrelate-xi-list", "precision-0d", "covariance-0d",
        "observation-0d", "canonical-layout-length", "sample-size", "rank-one-text",
        "renormalized-overflow", "check-family-stray"])
def test_bad_arguments_raise_contract_errors(call):
    with pytest.raises(ContractError):
        call()


# Arguments for every entry point of ``models``: valid values, and bad
# dimensions, gammas and arrays.  Huge integers go to the constructors only,
# which allocate nothing p-sized before refusing them.
_BAD_DIMS = [0, -3, 16.5, 4.0, math.nan, "8", None]
_HUGE = [2 ** 70, 10 ** 30]
_GAMMAS = st.sampled_from([0.0, 0.3, 1.0, -0.1, 1.5, math.nan, math.inf, 2 ** 70, "0.5", None])
_SIZES = st.sampled_from([None, 0, 1, 3, -1, 2.5, math.nan, "2"])


def _dims(huge=False):
    return st.one_of(st.integers(1, 64), st.sampled_from(_BAD_DIMS + (_HUGE if huge else [])))


def _arrays(p):
    """p reals (one row, or two), or an array that is 0-d, of another length,
    not real-valued or with an entry whose square overflows."""
    good = st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p).map(np.array)
    return st.one_of(good, st.sampled_from([
        np.float64(1.0), np.ones(p + 1), np.ones((2, p)), np.r_[1e200, np.ones(p - 1)],
        ["a"] * p, [None] * p, np.full(p, 1j), "abcd", None]))


@st.composite
def _valid_models(draw):
    family = draw(st.sampled_from(["equicorrelated", "grouped", "rank_one"]))
    p = draw(st.sampled_from([4, 12, 64]))
    return model_from(family, p, draw(st.sampled_from([0.0, 0.5, 1.0])),
                      R=2 if family == "grouped" else None,
                      v=np.ones(p) if family == "rank_one" else None)


@st.composite
def _calls(draw):
    """One entry point and the arguments it is called with."""
    model, q = draw(_valid_models()), draw(st.integers(1, 16))
    p, rng = model.p, np.random.default_rng(0)

    def maybe(strategy):
        return draw(st.one_of(st.none(), strategy))

    calls = {
        "Equicorrelated": lambda: (Equicorrelated, draw(_dims(True)), draw(_GAMMAS)),
        "Grouped": lambda: (Grouped, draw(_dims(True)), draw(_dims(True)), draw(_GAMMAS)),
        "RankOne": lambda: (RankOne, draw(_dims(True)), draw(_GAMMAS), draw(_arrays(q))),
        "RankOne.renormalized": lambda: (RankOne.renormalized, draw(_dims()), draw(_GAMMAS),
                                         draw(_arrays(q))),
        "Observation": lambda: (Observation, draw(_arrays(p)), model),
        "check_family": lambda: (check_family, draw(st.sampled_from(
            ["equicorrelated", "grouped", "rank_one", "independent", None, 3])),
            {"R": maybe(_dims()), "v": maybe(_arrays(q))}),
        "model_from": lambda: (model_from, draw(st.sampled_from(
            ["equicorrelated", "grouped", "rank_one", "independent"])), draw(_dims(True)),
            draw(_GAMMAS), {"R": maybe(_dims(True)), "v": maybe(_arrays(q))}),
        "canonical_layout": lambda: (canonical_layout, model, draw(_arrays(p))),
        "sample": lambda: (sample, model, maybe(_arrays(p)), maybe(st.just(rng)),
                           {"size": draw(_SIZES), "normals": maybe(_arrays(model.R + p))}),
        "decorrelate": lambda: (decorrelate, model, draw(_arrays(p)), maybe(st.just(rng)),
                                {"xi": maybe(_arrays(model.R))}),
        "precision_apply": lambda: (precision_apply, model, draw(_arrays(p))),
        "covariance_apply": lambda: (covariance_apply, model, draw(_arrays(p))),
    }
    assert set(calls) >= set(models.__all__) - {"CorrelationModel"}  # a type, not a call
    f, *args = calls[draw(st.sampled_from(sorted(calls)))]()
    kwargs = args.pop() if args and isinstance(args[-1], dict) else {}
    return f, args, kwargs


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_calls())
def test_every_entry_point_returns_or_raises_a_package_error(call):
    f, args, kwargs = call
    try:
        f(*args, **kwargs)
    except CorrdetectError:
        pass
