"""The batched evaluation kernel: block calibration reproduces sequential
single-vector replications, every constituent kind equals its public
statistic on canonical input and its plain numpy formula, rows do not depend
on their batch, batched values are bit-identical under within-group
permutations, and each family's kind set holds the kinds its plans use."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdetect import statistics as stats
from corrdetect.errors import ContractError
from corrdetect.gaussian import alpha
from corrdetect.models import (
    Equicorrelated,
    Grouped,
    RankOne,
    canonical_layout,
    decorrelate,
    sample,
)
from corrdetect.procedures import (
    Constituent,
    TestProcedure,
    _plan,
    _values,
    build_test,
    calibrate_null_quantile,
    evaluate,
)
from corrdetect.statistics import _REDUCTIONS
from corrdetect.streams import substream

P = 60  # 32768 // 60 = 546 rows per calibration block: n_cal=1000 spans two blocks
PATTERN = np.random.default_rng(1).choice([-1.0, 1.0], size=P)
ADAPTIVE = {"ts": np.array([0.5, 1.5, 2.5]), "shapes": np.array([3.0, 2.0, 1.0])}


# model, calibrated plans, and each plan's value on (x, decorrelated x);
# at gamma = 1 no plan reads decorrelated data
CASES = {
    "equicorrelated": (
        Equicorrelated(P, 0.5),
        [("chisq", "chisq", {}), ("thresholded", "thresholded", {"t": 1.5}),
         ("linear", "linear", {}), ("adaptive", "adaptive_scan", ADAPTIVE)],
        {"chisq": lambda x, xt, m: stats.squared_norm(xt).value,
         "thresholded": lambda x, xt, m: stats.thresholded_sum(xt, 1.5).value,
         "linear": lambda x, xt, m: stats.linear_projection(x, m, "global").value,
         "adaptive": lambda x, xt, m: (stats.thresholded_profile(xt, ADAPTIVE["ts"])
                                       / ADAPTIVE["shapes"]).max()}),
    "grouped": (
        Grouped(P, 4, 0.5),
        [("chisq_scan", "chisq_scan", {}),
         ("thresholded_scan", "thresholded_scan", {"t": 1.2}),
         ("linear_scan", "linear_scan", {}), ("chisq_avg", "chisq_avg", {}),
         ("thresholded_avg", "thresholded_avg", {"t": 0.8})],
        {"chisq_scan": lambda x, xt, m: stats.scan(m.block_view(xt), "chisq").value,
         "thresholded_scan": lambda x, xt, m: stats.scan(m.block_view(xt), "thresholded",
                                                         t=1.2).value,
         "linear_scan": lambda x, xt, m: stats.linear_scan(x, m).value,
         "chisq_avg": lambda x, xt, m: stats.averaged_group(x, m, "chisq").value,
         "thresholded_avg": lambda x, xt, m: stats.averaged_group(
             x, m, "thresholded", t=0.8).value}),
    "grouped-noiseless": (
        Grouped(P, 4, 1.0),
        [("noiseless", "noiseless", {}), ("chisq_raw", "chisq_raw", {}),
         ("thresholded_avg", "thresholded_avg", {"t": 0.8})],
        {"noiseless": lambda x, xt, m: stats.noiseless_residual(x, m).value,
         "chisq_raw": lambda x, xt, m: stats.squared_norm(m.block_view(x)).value.sum(axis=-1),
         "thresholded_avg": lambda x, xt, m: stats.averaged_group(
             x, m, "thresholded", t=0.8).value}),
    "rank-one": (
        RankOne(P, 0.5, PATTERN),
        [("chisq", "chisq", {}), ("thresholded", "thresholded", {"t": 1.5}),
         ("linear", "linear", {})],
        {"chisq": lambda x, xt, m: stats.squared_norm(xt).value,
         "thresholded": lambda x, xt, m: stats.thresholded_sum(xt, 1.5).value,
         "linear": lambda x, xt, m: stats.linear_projection(x, m, "pattern").value}),
    "rank-one-noiseless": (
        RankOne(P, 1.0, PATTERN),
        [("noiseless", "noiseless", {}), ("chisq_raw", "chisq_raw", {})],
        {"noiseless": lambda x, xt, m: stats.noiseless_residual(x, m).value,
         "chisq_raw": lambda x, xt, m: stats.squared_norm(x).value}),
}


def _records(plans):
    """Constituent records of (name, kind, params) plans; the kernel and
    calibration do not read their thresholds."""
    return [Constituent(name, kind, params, math.nan, "unthresholded")
            for name, kind, params in plans]


def test_calibration_cases_cover_every_constituent_kind():
    kinds = {kind for _, plans, _ in CASES.values() for _, kind, _ in plans}
    assert kinds == set(_REDUCTIONS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_calibration_matches_sequential_replications(case):
    model, plans, reference = CASES[case]
    n_cal, q = 1000, 0.95
    rng = substream(11, 3)
    records = calibrate_null_quantile(_records(plans), model, q, n_cal, rng)

    ref_rng = substream(11, 3)
    values = {name: np.empty(n_cal) for name, _, _ in plans}
    for i in range(n_cal):
        x = sample(model, None, ref_rng)
        xt = decorrelate(model, x, ref_rng) if model.gamma < 1.0 else None
        for name, fn in reference.items():
            values[name][i] = fn(x, xt, model)
    k = math.ceil(q * n_cal)
    for name, arr in values.items():
        assert records[name].value == pytest.approx(np.sort(arr)[k - 1], rel=1e-12, abs=0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_is_the_public_statistic_on_canonical_input(case):
    # same input, bit for bit: the public statistics sort blocks the kernel
    # takes sorted, and the data carry a signal so that residuals are nonzero
    model, plans, reference = CASES[case]
    items = _records(plans)
    n, k = 30, model.R
    theta = np.where(np.arange(P) < 6, 1.5, 0.0)
    x = canonical_layout(model, sample(model, theta, substream(11, 4), size=n))
    xi = substream(11, 5).standard_normal((n, k))
    xt = decorrelate(model, x, xi=xi) if model.gamma < 1.0 else [None] * n
    kernel = _values(items, x, model, xi=xi)
    for name, fn in reference.items():
        want = [fn(x[i], xt[i], model) for i in range(n)]
        assert np.array_equal(kernel[name], want), name


def _groups(model, a):
    """Rows (n, p) as (n, k, p/k), one block per group; one block without
    groups."""
    return model.block_view(a)


def _tail(z, t):
    keep = np.abs(z) >= t
    return np.where(keep, z * z, 0.0).sum(axis=-1) - keep.sum(axis=-1) * alpha(t)


def _group_energy(x, m):
    return _groups(m, x).sum(axis=-1) ** 2 * m.R / m.p


def _residual(x, m):
    if m.family == "rank_one":
        return ((x - np.outer(x @ m.v / m.p, m.v)) ** 2).sum(axis=-1)
    blocks = _groups(m, x)
    return ((blocks - blocks.mean(axis=-1, keepdims=True)) ** 2).sum(axis=(-2, -1))


def _standardized_means(x, m):
    bs = m.p // m.R
    return _groups(m, x).sum(axis=-1) / math.sqrt(bs * (1.0 - m.gamma + m.gamma * bs))


# each kind's statistic per row, written out in plain numpy from raw rows x
# and decorrelated rows xt (n, p) in the model's own layout
PLAIN = {
    "chisq": lambda x, xt, m, prm: (xt * xt).sum(axis=-1),
    "thresholded": lambda x, xt, m, prm: _tail(xt, prm["t"]),
    "chisq_scan": lambda x, xt, m, prm: (_groups(m, xt) ** 2).sum(axis=-1).max(axis=-1),
    "thresholded_scan": lambda x, xt, m, prm: _tail(_groups(m, xt), prm["t"]).max(axis=-1),
    "adaptive_scan": lambda x, xt, m, prm: np.max(
        [_tail(xt, t) / shape for t, shape in zip(prm["ts"], prm["shapes"])], axis=0),
    "linear": lambda x, xt, m, prm: (x @ (m.v if m.family == "rank_one"
                                          else np.ones(m.p))) ** 2 / m.p,
    "linear_scan": lambda x, xt, m, prm: _group_energy(x, m).max(axis=-1),
    "chisq_avg": lambda x, xt, m, prm: _group_energy(x, m).sum(axis=-1),
    "thresholded_avg": lambda x, xt, m, prm: _tail(_standardized_means(x, m), prm["t"]),
    "noiseless": lambda x, xt, m, prm: _residual(x, m),
    "chisq_raw": lambda x, xt, m, prm: (x * x).sum(axis=-1),
}


def test_plain_formulas_cover_every_constituent_kind():
    assert set(PLAIN) == set(_REDUCTIONS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_plain_numpy_formulas(case):
    # an independent reference: the data stay in the model's own layout and
    # no statistic of the package is run
    model, plans, _ = CASES[case]
    items = _records(plans)
    n, k = 30, model.R
    theta = np.where(np.arange(P) < 6, 1.5, 0.0)
    x = sample(model, theta, substream(11, 4), size=n)
    xi = substream(11, 5).standard_normal((n, k))
    xt = decorrelate(model, x, xi=xi) if model.gamma < 1.0 else None
    kernel = _values(items, canonical_layout(model, x), model, xi=xi)
    for name, kind, params in plans:
        want = PLAIN[kind](x, xt, model, params)
        assert kernel[name] == pytest.approx(want, rel=1e-12, abs=0), name


def test_raw_data_plans_take_no_injections():
    model = Grouped(P, 4, 0.5)
    rng = substream(12, 0)
    calibrate_null_quantile(_records([("linear_scan", "linear_scan", {})]), model, 0.95, 1000, rng)
    ref = substream(12, 0)
    for _ in range(1000):
        sample(model, None, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


# one configuration per constituent kind (p = 64)
KIND_CONFIGS = [
    ("grouped", 1, 0.5, 4), ("grouped", 5, 0.0, 4), ("grouped", 5, 0.5, 4),
    ("grouped", 10, 0.5, 4), ("grouped", 16, 0.0, 4), ("grouped", 32, 0.0, 4),
    ("grouped", 32, 1.0, 4), ("equicorrelated", 33, 0.3, None),
    ("equicorrelated", 64, 1.0, None), ("equicorrelated", "adaptive", 0.5, None),
    ("rank_one", 5, 0.5, None), ("rank_one", 5, 1.0, None),
]


def _model(family, gamma, R):
    if family == "grouped":
        return Grouped(64, R, gamma)
    if family == "rank_one":
        return RankOne.renormalized(64, gamma, np.linspace(0.5, 1.5, 64))
    return Equicorrelated(64, gamma)


def test_kind_configs_cover_every_constituent_kind():
    kinds = set()
    for family, s, gamma, R in KIND_CONFIGS:
        model = _model(family, gamma, R)
        v = model.v if family == "rank_one" else None
        test = build_test(family, 64, s, gamma, R=R, v=v, mode="paper_constants", C=3.0)
        kinds |= {c.kind for c in test.constituents}
    assert kinds == {"thresholded", "chisq", "linear", "chisq_scan", "thresholded_scan",
                     "linear_scan", "thresholded_avg", "chisq_avg", "noiseless",
                     "chisq_raw", "adaptive_scan"}


@pytest.mark.parametrize("family,s,gamma,R", KIND_CONFIGS)
def test_planned_kinds_are_in_the_family_kind_set(family, s, gamma, R):
    model = _model(family, gamma, R)
    assert {kind for _, kind, _, _ in _plan(model, s)} <= stats.KINDS[family]


@pytest.mark.parametrize("family", [None, "equicorrelated", "grouped", "rank_one"])
def test_value_refuses_exactly_the_kinds_outside_the_kind_set(family):
    model = None if family is None else _model(family, 0.5, 4)
    x = np.ones((2, 4, 16)) if model is None else np.ones((2, 64))
    params = {"t": 1.0, "ts": np.array([0.5, 1.0]), "shapes": np.array([1.0, 2.0])}
    for kind in sorted(set(_REDUCTIONS) - stats.KINDS[family]):
        with pytest.raises(ContractError):
            stats.value(kind, x, model, **params)
    for kind in sorted(stats.KINDS[family]):
        assert stats.value(kind, x, model, **params).value.shape == (2,)


def test_views_keep_the_refusals_of_the_former_model_checks():
    equi, grouped = _model("equicorrelated", 0.5, None), _model("grouped", 0.5, 4)
    rank_one, x = _model("rank_one", 0.5, None), np.ones(64)
    with pytest.raises(ContractError):
        stats.linear_projection(x, rank_one, "global")
    for model in (equi, grouped):
        with pytest.raises(ContractError):
            stats.linear_projection(x, model, "pattern")
    for model in (equi, rank_one):
        for refused in (lambda: stats.linear_projection(x, model, "group", group=0),
                        lambda: stats.linear_scan(x, model),
                        lambda: stats.averaged_group(x, model, "chisq"),
                        lambda: stats.averaged_group(x, model, "thresholded", t=1.0)):
            with pytest.raises(ContractError):
                refused()


@pytest.mark.parametrize("family,s,gamma,R", KIND_CONFIGS)
def test_rows_evaluate_alone_as_in_the_batch(family, s, gamma, R):
    model = _model(family, gamma, R)
    v = model.v if family == "rank_one" else None
    test = build_test(family, 64, s, gamma, R=R, v=v, mode="paper_constants", C=3.0)
    items = test.constituents
    n, k = 40, model.R
    theta = np.where(np.arange(64) < 6, 1.5, 0.0)
    x = sample(model, theta, substream(13, 0), size=n)
    xi = substream(13, 1).standard_normal((n, k))
    batch = _values(items, canonical_layout(model, x), model, xi=xi)
    for i in range(n):
        single = _values(items, canonical_layout(model, x[i:i + 1]), model, xi=xi[i:i + 1])
        # evaluate draws the row's injections from its stream
        verdict = evaluate(test, x[i], substream(13, 2, i))
        injections = substream(13, 2, i).standard_normal((1, k))
        alone = _values(items, canonical_layout(model, x[i:i + 1]), model, xi=injections)
        for c in items:
            assert single[c.name][0] == batch[c.name][i]
            assert verdict.values[c.name] == alone[c.name][0]


def _random_case(data, families=("equicorrelated", "grouped", "rank_one")):
    """A model of one of ``families``, a one-to-several-constituent test of
    its kinds built for that model (raw-data kinds only at gamma = 1), and a
    seed, all drawn by ``data``."""
    family = data.draw(st.sampled_from(families))
    p = data.draw(st.sampled_from([8, 12, 16, 30, 64]))
    gamma = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    if family == "grouped":
        R = data.draw(st.sampled_from([r for r in (2, 3, 4) if p % r == 0]))
        model = Grouped(p, R, gamma)
    elif family == "rank_one":
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        signs = data.draw(st.booleans())
        v = rng.choice([-1.0, 1.0], size=p) if signs else rng.uniform(-1.5, 1.5, size=p)
        model = RankOne.renormalized(p, gamma, v)
    else:
        model = Equicorrelated(p, gamma)
    kinds = sorted(kind for kind in stats.KINDS[family]
                   if gamma < 1.0 or _REDUCTIONS[kind].reads == "raw")
    chosen = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4, unique=True))
    constituents = []
    for kind in chosen:
        params = {}
        if kind in ("thresholded", "thresholded_scan", "thresholded_avg"):
            params["t"] = data.draw(st.floats(0.1, 3.0))
        elif kind == "adaptive_scan":
            ts = data.draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4, unique=True))
            params = {"ts": np.sort(ts), "shapes": np.linspace(1.0, 2.0, len(ts))}
        threshold = data.draw(st.floats(-5.0, 2.0 * p))
        constituents.append(Constituent(kind, kind, params, threshold, "drawn"))
    test = TestProcedure(name="drawn", model=model, s=1, mode="paper_constants",
                         constituents=tuple(constituents))
    return model, test, data.draw(st.integers(0, 2 ** 20))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_kernel_rows_equal_single_evaluate_calls(data):
    model, test, seed = _random_case(data)
    n = data.draw(st.integers(1, 64))
    theta = np.zeros(model.p)
    theta[:data.draw(st.integers(0, model.p))] = data.draw(st.floats(-2.0, 2.0))
    x = sample(model, theta, substream(seed, 0), size=n)
    verdicts = [evaluate(test, x[i], substream(seed, 1, i))
                for i in range(n)]
    items = test.constituents
    # the injections each evaluate call drew from its stream
    xi = np.concatenate([substream(seed, 1, i).standard_normal((1, model.R))
                         for i in range(n)]) if test.reads_decorrelated else None
    batch = _values(items, canonical_layout(model, x), model, xi=xi)
    for i, verdict in enumerate(verdicts):
        assert verdict.values == {name: batch[name][i].item() for name in batch}
        assert verdict.fired == tuple(c.name for c in items
                                      if batch[c.name][i] > c.threshold)


def _within_blocks(model, rng):
    """A permutation of the coordinates that keeps each one in its block."""
    return rng.permuted(np.arange(model.p).reshape(model.R, -1), axis=1).ravel()


# a batch of one is sorted again by each sum; a batch of 50 is only
# order-checked (models.ascending_rows)
@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("p,s,gamma,R", [(64, s, gamma, R) for family, s, gamma, R
                                         in KIND_CONFIGS if family == "grouped"]
                         + [(512, 5, 0.5, 2), (512, 200, 0.5, 2)])
def test_batched_values_invariant_under_group_relabeling(p, s, gamma, R, n):
    test = build_test("grouped", p, s, gamma, R=R, mode="paper_constants", C=3.0)
    items = test.constituents
    base = Grouped(p, R, gamma)
    perm = _within_blocks(base, substream(14, 0))
    x = sample(base, None, substream(14, 1), size=n)
    xi = substream(14, 2).standard_normal((n, R))
    v1 = _values(items, canonical_layout(base, x), base, xi=xi)
    v2 = _values(items, canonical_layout(base, x[:, perm]), base, xi=xi)
    for c in items:
        assert np.array_equal(v1[c.name], v2[c.name])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_batched_values_invariant_under_within_block_permutations(data):
    """Any permutation of the coordinates within each block leaves every
    kernel value bit-identical: an equicorrelated model is one block of all
    p coordinates, and a grouped one a block per group."""
    model, test, seed = _random_case(data, families=("equicorrelated", "grouped"))
    p, n = model.p, data.draw(st.integers(1, 16))
    perm = _within_blocks(model, substream(seed, 0))
    theta = np.zeros(p)
    theta[:data.draw(st.integers(0, p))] = data.draw(st.floats(-2.0, 2.0))
    x = sample(model, theta, substream(seed, 1), size=n)
    items = test.constituents
    xi = substream(seed, 2).standard_normal((n, model.R)) if test.reads_decorrelated else None
    values = _values(items, canonical_layout(model, x), model, xi=xi)
    permuted = _values(items, canonical_layout(model, x[:, perm]), model, xi=xi)
    for name in values:
        assert np.array_equal(values[name], permuted[name])


def test_sign_pattern_noiseless_residual_is_zero_under_the_null():
    # at gamma = 1 every entry of v * x is the same factor, so the residual
    # is exactly 0 and the exact-null test never fires
    model = RankOne(64, 1.0, np.random.default_rng(2).choice([-1.0, 1.0], size=64))
    test = build_test("rank_one", 64, 5, 1.0, v=model.v, mode="paper_constants", C=3.0)
    assert [c.kind for c in test.constituents] == ["noiseless"]
    rng = substream(15, 0)
    rejections = sum(evaluate(test, sample(model, None, rng), rng).reject
                     for _ in range(1000))
    assert rejections == 0
