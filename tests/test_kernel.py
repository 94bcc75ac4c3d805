"""The batched evaluation kernel: block calibration reproduces sequential
single-vector replications, every constituent kind equals its public
statistic on canonical input, rows do not depend on their batch, and batched
values are bit-identical under within-group permutations."""

import math

import numpy as np
import pytest

from corrdetect import statistics as stats
from corrdetect.models import (
    Equicorrelated,
    Grouped,
    Observation,
    RankOne,
    canonical_layout,
    decorrelate,
    factor_count,
    sample,
)
from corrdetect.procedures import (
    _REDUCTIONS,
    _values,
    build_test,
    calibrate_null_quantile,
    evaluate,
)
from corrdetect.streams import substream

P = 60  # 32768 // 60 = 546 rows per calibration block: n_cal=1000 spans two blocks
LABELS = np.random.default_rng(0).permutation(np.repeat(np.arange(4), P // 4))
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
    "grouped-noncontiguous": (
        Grouped(P, 4, 0.5, labels=LABELS),
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
    "grouped-noncontiguous-noiseless": (
        Grouped(P, 4, 1.0, labels=LABELS),
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


def test_calibration_cases_cover_every_constituent_kind():
    kinds = {kind for _, plans, _ in CASES.values() for _, kind, _ in plans}
    assert kinds == set(_REDUCTIONS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_calibration_matches_sequential_replications(case):
    model, plans, reference = CASES[case]
    n_cal, q = 1000, 0.95
    items = [(name, kind, params, None) for name, kind, params in plans]
    rng = substream(11, 3)
    records = calibrate_null_quantile(items, model, q, n_cal, rng)

    ref_rng = substream(11, 3)
    values = {name: np.empty(n_cal) for name, _, _ in plans}
    for i in range(n_cal):
        x = sample(model, None, ref_rng).x
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
    items = [(name, kind, params, None) for name, kind, params in plans]
    n, k = 30, factor_count(model)
    theta = np.where(np.arange(P) < 6, 1.5, 0.0)
    x, layout = canonical_layout(model, sample(model, theta, substream(11, 4), size=n).x)
    xi = substream(11, 5).standard_normal((n, k))
    xt = decorrelate(layout, x, xi=xi) if model.gamma < 1.0 else [None] * n
    kernel = _values(items, x, layout, xi=xi)
    for name, fn in reference.items():
        want = [fn(x[i], xt[i], layout) for i in range(n)]
        assert np.array_equal(kernel[name], want), name


def test_canonical_layout_model_is_built_once():
    model, plans, _ = CASES["grouped-noncontiguous"]
    items = [(name, kind, params, None) for name, kind, params in plans]
    x = sample(model, None, substream(16, 0), size=5).x
    xi = substream(16, 1).standard_normal((5, 4))
    first, second = canonical_layout(model, x), canonical_layout(model, x)
    assert second[1] is first[1]
    assert first[1].descriptor() == Grouped(P, 4, 0.5).descriptor()
    v1, v2 = _values(items, *first, xi=xi), _values(items, *second, xi=xi)
    for name, _, _ in plans:
        assert np.array_equal(v1[name], v2[name])
    contiguous = Grouped(P, 4, 0.5)
    assert canonical_layout(contiguous, x)[1] is contiguous


def test_raw_data_plans_take_no_injections():
    model = Grouped(P, 4, 0.5)
    rng = substream(12, 0)
    calibrate_null_quantile([("linear_scan", "linear_scan", {}, None)], model, 0.95, 1000, rng)
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
def test_rows_evaluate_alone_as_in_the_batch(family, s, gamma, R):
    model = _model(family, gamma, R)
    v = model.v if family == "rank_one" else None
    test = build_test(family, 64, s, gamma, R=R, v=v, mode="paper_constants", C=3.0)
    items = [(c.name, c.kind, c.params, None) for c in test.constituents]
    n, k = 40, factor_count(model)
    theta = np.where(np.arange(64) < 6, 1.5, 0.0)
    x = sample(model, theta, substream(13, 0), size=n).x
    xi = substream(13, 1).standard_normal((n, k))
    batch = _values(items, *canonical_layout(model, x), xi=xi)
    for i in range(n):
        single = _values(items, *canonical_layout(model, x[i:i + 1]), xi=xi[i:i + 1])
        # evaluate draws the row's injections from its stream
        verdict = evaluate(test, Observation(x[i], model), substream(13, 2, i))
        injections = substream(13, 2, i).standard_normal((1, k))
        alone = _values(items, *canonical_layout(model, x[i:i + 1]), xi=injections)
        for name, _, _, _ in items:
            assert single[name][0] == batch[name][i]
            assert verdict.values[name] == alone[name][0]


# a batch of one is sorted again by each sum; a batch of 50 is only
# order-checked (models.ascending_rows)
@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("p,s,gamma,R", [(64, s, gamma, R) for family, s, gamma, R
                                         in KIND_CONFIGS if family == "grouped"]
                         + [(512, 5, 0.5, 2), (512, 200, 0.5, 2)])
def test_batched_values_invariant_under_group_relabeling(p, s, gamma, R, n):
    test = build_test("grouped", p, s, gamma, R=R, mode="paper_constants", C=3.0)
    items = [(c.name, c.kind, c.params, None) for c in test.constituents]
    base = Grouped(p, R, gamma)
    perm = substream(14, 0).permutation(p)
    relabeled = Grouped(p, R, gamma, labels=base.labels[perm])
    x = sample(base, None, substream(14, 1), size=n).x
    xi = substream(14, 2).standard_normal((n, R))
    v1 = _values(items, *canonical_layout(base, x), xi=xi)
    v2 = _values(items, *canonical_layout(relabeled, x[:, perm]), xi=xi)
    for name, _, _, _ in items:
        assert np.array_equal(v1[name], v2[name])


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
