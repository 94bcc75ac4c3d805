"""Composite assembly, calibration correctness, and power sanity checks."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from corrdetect.divergences import UniformSparse, draw
from corrdetect.errors import CalibrationError, ContractError, UnsupportedRegimeError
from corrdetect.geometry import make_sparse_signal
from corrdetect.models import Equicorrelated, Grouped, RankOne, sample
from corrdetect.procedures import (
    Constituent,
    _plan,
    build_test,
    calibrate_null_quantile,
    evaluate,
    model_for,
)
from corrdetect.rates import rate_equicorrelated
from corrdetect.statistics import REDUCTIONS
from corrdetect.streams import substream


def _rng(seed):
    return np.random.default_rng(seed)


class TestAssembly:
    def test_sparse_regime_single_thresholded_constituent(self):
        p, s, C = 100, 5, 4.0
        t = build_test("equicorrelated", p, s, 0.5, mode="paper_constants", C=C)
        assert [c.name for c in t.constituents] == ["thresholded"]
        c = t.constituents[0]
        assert c.params["t"] == pytest.approx(math.sqrt(2 * math.log(1 + p / s ** 2)))
        assert c.threshold == pytest.approx((C ** 2 / 32) * s * math.log(1 + p / s ** 2))

    def test_fully_dense_is_linear_only(self):
        t = build_test("equicorrelated", 64, 64, 0.3, mode="paper_constants", C=3.0)
        assert [c.name for c in t.constituents] == ["linear"]
        sigma_sq = 0.7 + 0.3 * 64
        assert t.constituents[0].threshold == pytest.approx(sigma_sq * (1 + 9 / 2))

    def test_dense_above_half_adds_linear(self):
        t = build_test("equicorrelated", 100, 60, 0.2, mode="paper_constants", C=3.0)
        assert [c.name for c in t.constituents] == ["chisq", "linear"]

    def test_very_dense_triple(self):
        t = build_test("equicorrelated", 100, 95, 0.2, mode="paper_constants", C=3.0)
        assert [c.name for c in t.constituents] == ["chisq", "thresholded_dense", "linear"]

    def test_grouped_scan_selection_follows_rate_minimum(self):
        # gamma = 0.5: the scan term attains the minimum -> chisq scan;
        # gamma = 0: the group-mean cap attains it -> linear scan.
        t1 = build_test("grouped", 1024, 64, 0.5, R=8, mode="paper_constants", C=3.0)
        assert [c.name for c in t1.constituents] == ["chisq", "chisq_scan"]
        t2 = build_test("grouped", 1024, 64, 0.0, R=8, mode="paper_constants", C=3.0)
        assert [c.name for c in t2.constituents] == ["chisq", "linear_scan"]

    def test_grouped_dense_scan_regime(self):
        t = build_test("grouped", 1024, 120, 0.5, R=8, mode="paper_constants", C=3.0)
        assert [c.name for c in t.constituents] == ["chisq", "thresholded_scan"]

    def test_grouped_average_regimes(self):
        t = build_test("grouped", 1024, 128, 0.5, R=16, mode="paper_constants", C=3.0)
        assert t.constituents[-1].name == "thresholded_avg"
        t2 = build_test("grouped", 1024, 512, 0.5, R=64, mode="paper_constants", C=3.0)
        assert t2.constituents[-1].name == "chisq_avg"

    def test_perfect_correlation_paths(self):
        t = build_test("equicorrelated", 64, 8, 1.0, mode="paper_constants", C=3.0)
        assert [c.name for c in t.constituents] == ["noiseless"]
        t2 = build_test("equicorrelated", 64, 64, 1.0, mode="paper_constants", C=3.0)
        assert [c.name for c in t2.constituents] == ["chisq_raw"]
        t3 = build_test("grouped", 64, 20, 1.0, R=4, mode="paper_constants", C=3.0)
        assert [c.name for c in t3.constituents] == ["noiseless", "thresholded_avg"]
        t4 = build_test("grouped", 64, 32, 1.0, R=4, mode="paper_constants", C=3.0)
        assert [c.name for c in t4.constituents] == ["noiseless", "chisq_avg"]

    def test_deterministic_null_is_read_from_the_kind_table(self):
        # a hand-built constituent reads it too: no copy to set or forget
        assert Constituent("noiseless", "noiseless", {}, 0.0, "hand-built").deterministic_null
        assert not Constituent("chisq", "chisq", {}, 0.0, "hand-built").deterministic_null

    def test_rank_one_needs_characterized_range(self):
        v = np.ones(64)
        with pytest.raises(UnsupportedRegimeError):
            build_test("rank_one", 64, 40, 0.5, v=v, mode="paper_constants", C=3.0)
        t = build_test("rank_one", 64, 4, 0.5, v=v, mode="paper_constants", C=4.0)
        shape = 4 * math.log(1 + 64 / 16)
        assert t.constituents[0].threshold == pytest.approx((16 / 16) * shape)

    def test_adaptive_members(self):
        t = build_test("equicorrelated", 100, "adaptive", 0.4,
                       mode="paper_constants", C=3.0)
        names = [c.name for c in t.constituents]
        assert names == ["adaptive_sparse", "chisq", "adaptive_dense", "linear"]
        sparse = t.constituents[0]
        assert list(sparse.params["members"]) == list(range(1, 10))
        dense = t.constituents[2]
        assert list(dense.params["members"]) == list(range(91, 100))

    @pytest.mark.parametrize("mode,kw", [
        ("paper_constants", {"C": 3.0}),
        ("calibrated", {"n_cal": 1000, "rng": _rng(13)}),
    ])
    @pytest.mark.parametrize("family,p,gamma,R,v", [
        ("grouped", 10, 0.5, 3, None),  # R does not divide p
        ("grouped", 12, 1.5, 3, None),
        ("grouped", 12, -0.2, 3, None),
        ("equicorrelated", 12, 1.5, None, None),
        ("rank_one", 12, 0.5, None, np.ones(10)),  # pattern of the wrong length
        ("equicorrelated", 12, 0.5, 3, None),  # R or v the family does not have
        ("grouped", 12, 0.5, 3, np.ones(12)),
    ])
    def test_refuses_an_invalid_model_in_either_mode(self, family, p, gamma, R, v,
                                                      mode, kw):
        with pytest.raises(ContractError):
            build_test(family, p, 2, gamma, R=R, v=v, mode=mode, **kw)

    @pytest.mark.parametrize("kw,message", [
        ({"mode": "bogus"}, "unknown mode"),
        ({"mode": "paper_constants"}, "needs the constant C"),
        ({"eta": 1.5}, "eta"),
        ({"eta": -0.1}, "eta"),
        ({"mode": "paper_constants", "C": 3.0, "eta": 1.0}, "eta"),
        ({"n_cal": 999}, "n_cal"),
        # each was accepted (a test recording a C it never used, or at gamma = 1
        # a fractional n_cal) or raised a bare TypeError
        ({"C": 2.0}, "only it uses C"),
        ({"n_cal": 1000.5}, "n_cal must be an integer"),
        ({"eta": "x"}, "eta must be a finite real number"),
    ])
    def test_refuses_a_mode_every_threshold_would_fail_on(self, kw, message):
        # the noiseless test calibrates nothing, so only the refusal can catch these
        for s, gamma in ((3, 0.5), (3, 1.0)):
            with pytest.raises(ContractError, match=message):
                build_test("equicorrelated", 16, s, gamma, rng=_rng(0), **kw)

    @pytest.mark.parametrize("s", [2.7, "3"])
    def test_a_sparsity_that_is_not_an_integer_is_refused(self, s):
        # 2.7 once built the s = 2 test and "3" the s = 3 one; the rates refused both
        with pytest.raises(ContractError, match="s must be an integer"):
            build_test("equicorrelated", 64, s, 0.5, mode="paper_constants", C=3.0)

    def test_descriptor_roundtrip_json(self):
        import json
        t = build_test("equicorrelated", 50, 3, 0.2, mode="paper_constants", C=4.0)
        d = json.loads(t.to_json())
        assert d["family"] == "equicorrelated" and d["p"] == 50
        assert d["constituents"][0]["kind"] == "thresholded"


def _equicorrelated_names(p, s, gamma):
    """The constituents the printed regime table asks for, each inequality
    in integers: s < sqrt(p) iff s^2 < p, s > p - sqrt(p) iff (p - s)^2 < p."""
    if gamma == 1.0:
        return ["noiseless"] if s < p else ["chisq_raw"]
    names = ["thresholded" if s * s < p else "chisq"]
    if 2 * s > p:  # the mean direction carries part of the separation
        if s == p:
            names = []
        elif (p - s) ** 2 < p:
            names.append("thresholded_dense")
        names.append("linear")
    return names


def _rank_one_names(p, s, gamma, v, omega):
    """The rank-one constituents, or None where the rate is uncharacterized
    (s > omega(v)); the sparse boundary s <= sqrt(p) is inclusive."""
    if gamma == 1.0:
        return ["noiseless"] if s < np.count_nonzero(v) else ["chisq_raw"]
    if s > omega:
        return None
    return ["thresholded" if s * s <= p else "chisq"]


def _grouped_names(p, s, gamma, R):
    """The grouped constituents: R = 1 is the single random effect and R = p
    independence (the gamma = 0 names).  Otherwise, with b = p/R, the printed
    inequalities in integers: s <= p/(4R) iff 4Rs <= p, s < b, and
    s < p/sqrt(R) iff R s^2 < p^2; in a scan regime, the smaller of the scan
    term and the group-mean cap picks the scan constituent."""
    if R == 1:
        return _equicorrelated_names(p, s, gamma)
    if R == p:
        return _equicorrelated_names(p, s, 0.0)
    b = p // R
    average = "thresholded_avg" if R * s * s < p * p else "chisq_avg"
    if gamma == 1.0:
        return ["noiseless"] if s < b else ["noiseless", average]
    names = ["thresholded" if s * s < p else "chisq"]
    if 4 * R * s <= p:
        return names
    if s >= b:
        return names + [average]
    return names + [_scan_name(p, s, gamma, R)]


def _scan_name(p, s, gamma, R):
    """The scan constituent at p/(4R) < s < b = p/R, log(eR) = 1 + log R: the
    scan term is (1-g) p/(p-Rs) (sqrt(b log(eR)) + log R) when
    (b - s)^2 >= b log(eR), else (1-g) p/(p-Rs) ((b-s) log(1 + Rp log(eR)/(p-Rs)^2)
    + log R); above the cap (1-g+gb) log(eR) the linear scan carries the test."""
    b, log_er = p // R, 1 + math.log(R)
    moderate = (b - s) ** 2 >= b * log_er
    inner = (math.sqrt(b * log_er) if moderate
             else (b - s) * math.log1p(R * p * log_er / (p - R * s) ** 2))
    term = (1 - gamma) * p * (inner + math.log(R)) / (p - R * s)
    if term > (1 - gamma + gamma * b) * log_er:
        return "linear_scan"
    return "chisq_scan" if moderate else "thresholded_scan"


def _omega(v):
    """The largest s whose s largest squared entries sum to at most p/4."""
    squares = sorted((x * x for x in v), reverse=True)
    return max(s for s in range(len(v) + 1) if sum(squares[:s]) <= len(v) / 4)


def _patterns(p):
    """A +-1 pattern, and the bump of ``_hetero_pattern`` (the first isqrt(p)
    entries) scaled to ||v||^2 = p."""
    signs = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
    k = math.isqrt(p)
    bump = np.zeros(p)
    bump[:k] = math.sqrt(p / k)
    return signs, bump


class TestPlanOracle:
    """Every plan at p <= 64 against the regime table, including s = sqrt(p)
    and the small p at which the sqrt(p) and p - sqrt(p) boundaries meet."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 1.0])
    def test_equicorrelated_plans_follow_the_regime_table(self, gamma):
        for p in range(1, 65):
            model = Equicorrelated(p, gamma)
            for s in range(1, p + 1):
                names = [name for name, _, _, _ in _plan(model, s)]
                assert names == _equicorrelated_names(p, s, gamma), (p, s)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 1.0])
    def test_rank_one_plans_follow_the_regime_table(self, gamma):
        for p in range(1, 65):
            for v in _patterns(p):
                model, omega = RankOne(p, gamma, v), _omega(v)
                for s in range(1, p + 1):
                    want = _rank_one_names(p, s, gamma, v, omega)
                    if want is None:
                        with pytest.raises(UnsupportedRegimeError,
                                           match=rf"omega\(v\) = {omega}$"):
                            _plan(model, s)
                    else:
                        names = [name for name, _, _, _ in _plan(model, s)]
                        assert names == want, (p, s, v)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 1.0])
    def test_grouped_plans_follow_the_regime_table(self, gamma):
        for p in range(1, 65):
            for R in (R for R in range(1, p + 1) if p % R == 0):
                model = Grouped(p, R, gamma)
                for s in range(1, p + 1):
                    items = _plan(model, s)
                    names = [name for name, _, _, _ in items]
                    assert names == _grouped_names(p, s, gamma, R), (p, R, s)
                    if R == p:  # independence reads raw data, at gamma = 1 too
                        assert all(REDUCTIONS[kind].reads == "raw"
                                   for _, kind, _, _ in items), (p, s)


class TestCalibration:
    def test_chisq_threshold_matches_chi2_quantile(self):
        model = Equicorrelated(50, 0.4)
        items = [Constituent("chisq", "chisq", {}, math.nan, "unthresholded")]
        recs = calibrate_null_quantile(items, model, 0.95, 20_000, _rng(0))
        rec = recs["chisq"]
        oracle = chi2.ppf(0.95, 50)  # decorrelated null energy is chi^2_50
        assert rec.wilson_low <= oracle <= rec.wilson_high

    def test_linear_median(self):
        p, g = 40, 0.7
        model = Equicorrelated(p, g)
        items = [Constituent("linear", "linear", {}, math.nan, "unthresholded")]
        recs = calibrate_null_quantile(items, model, 0.5, 20_000, _rng(1))
        oracle = (1 - g + g * p) * chi2.ppf(0.5, 1)
        assert abs(recs["linear"].value - oracle) <= 0.08 * oracle

    def test_refuses_thin_tails(self):
        model = Equicorrelated(10, 0.0)
        items = [Constituent("chisq", "chisq", {}, math.nan, "unthresholded")]
        with pytest.raises(CalibrationError):
            calibrate_null_quantile(items, model, 0.999, 1000, _rng(2))

    def test_tail_count_survives_rounding(self):
        # four constituents at eta=0.1: 1600 * (1 - 0.9875) rounds to 19.999...
        test = build_test("equicorrelated", 400, "adaptive", 0.5, mode="calibrated",
                          eta=0.1, n_cal=1600, rng=substream(0, 1))
        assert len(test.constituents) == 4
        assert test.calibration["n_cal"] == 1600

    @pytest.mark.parametrize("family,p,s,gamma,R", [
        ("equicorrelated", 60, 55, 0.5, None),
        # R = p: the very-dense gamma = 0 plan on raw data, at any gamma
        ("grouped", 16, 14, 0.5, 16), ("grouped", 16, 14, 1.0, 16),
    ])
    def test_null_rejection_within_budget(self, family, p, s, gamma, R):
        # eta = 0.1 composite: type I <= 0.05 plus Monte Carlo slack
        # (evaluation noise plus the calibration quantiles' level noise).
        eta, n_check, n_cal = 0.1, 10_000, 4000
        test = build_test(family, p, s, gamma, R=R, mode="calibrated",
                          eta=eta, n_cal=n_cal, rng=_rng(3))
        model = model_for(test)
        rng = _rng(4)
        rejects = 0
        for _ in range(n_check):
            obs = sample(model, None, rng)
            rejects += evaluate(test, obs, rng).reject
        rate = rejects / n_check
        budget = eta / 2
        m = len(test.constituents)
        q = 1 - eta / (2 * m)
        se = math.hypot(math.sqrt(budget * (1 - budget) / n_check),
                        math.sqrt(m * q * (1 - q) / n_cal))
        assert rate <= budget + 3 * se

    @pytest.mark.parametrize("family,p,s,gamma,R", [
        ("equicorrelated", 60, 55, 0.5, None),
        ("grouped", 64, 20, 0.5, 4),
        ("equicorrelated", 64, "adaptive", 0.5, None),
    ])
    def test_constituent_rejection_within_budget(self, family, p, s, gamma, R):
        # each calibrated constituent: type I <= eta/(2m) plus Monte Carlo
        # slack (evaluation noise plus its own quantile's level noise)
        eta, n_check, n_cal = 0.1, 10_000, 4000
        test = build_test(family, p, s, gamma, R=R, mode="calibrated",
                          eta=eta, n_cal=n_cal, rng=_rng(8))
        model = model_for(test)
        rng = _rng(9)
        fires = dict.fromkeys((c.name for c in test.constituents), 0)
        for _ in range(n_check):
            obs = sample(model, None, rng)
            for name in evaluate(test, obs, rng).fired:
                fires[name] += 1
        m = len(test.constituents)
        assert m >= 2
        budget = eta / (2 * m)
        assert test.calibration["budget_per_constituent"] == pytest.approx(budget)
        q = 1 - budget
        se = math.hypot(math.sqrt(budget * (1 - budget) / n_check),
                        math.sqrt(q * (1 - q) / n_cal))
        for name, count in fires.items():
            assert count / n_check <= budget + 3 * se, (name, count)

    def test_modes_share_statistic_values_bitwise(self):
        kw = dict(family="equicorrelated", p=64, s=60, gamma=0.3)
        paper = build_test(**kw, mode="paper_constants", C=4.0)
        cal = build_test(**kw, mode="calibrated", eta=0.1, n_cal=1200, rng=_rng(5))
        model = model_for(paper)
        obs = sample(model, None, _rng(6))
        v1 = evaluate(paper, obs, _rng(7)).values
        v2 = evaluate(cal, obs, _rng(7)).values
        assert v1 == v2  # bit-identical statistic plans


class TestGroupedReductions:
    """A grouped test at R = 1 is the equicorrelated test, and at R = p the
    gamma = 0 plan on raw data, as the grouped rate reduces."""

    @pytest.mark.parametrize("s,gamma", [(3, 0.5), (20, 0.5), (60, 0.9), (64, 0.3),
                                         (8, 1.0), (64, 1.0)])
    @pytest.mark.parametrize("kw", [{"mode": "paper_constants", "C": 3.0}, {"n_cal": 2000}])
    def test_R1_is_the_equicorrelated_test(self, s, gamma, kw):
        tests = [build_test(family, 64, s, gamma, R=R, rng=substream(5, 1), **kw)
                 for family, R in (("grouped", 1), ("equicorrelated", None))]
        described = [t.descriptor() for t in tests]
        for key in ("constituents", "calibration"):
            assert described[0][key] == described[1][key]
        x = sample(model_for(tests[1]), None, _rng(11))
        values = [evaluate(t, x, _rng(12)).values for t in tests]
        assert values[0] == values[1]

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    def test_R_p_group_energy_carries_its_variance(self, gamma):
        # at block size 1 each group mean has variance 1 - gamma + gamma = 1,
        # the sigma^2 of the law sigma^2 chi^2_R that every chisq_avg carries
        planned = [c for s in range(1, 17)
                   for c in build_test("grouped", 16, s, gamma, R=16,
                                       mode="paper_constants", C=1.0).constituents
                   if c.kind == "chisq_avg"]
        assert planned
        assert all(c.params["sigma_sq"] == pytest.approx(1.0) for c in planned)

    def test_R_p_group_energy_level_meets_its_budget(self):
        # the chi-square level check of tests/test_acceptance.py, on an R = p cell
        p = R = 16
        test = build_test("grouped", p, 14, 0.5, R=R, mode="calibrated", eta=0.1,
                          n_cal=4000, rng=substream(6, 0))
        [c] = [c for c in test.constituents if c.kind == "chisq_avg"]
        b, n_cal = test.calibration["budget_per_constituent"], test.calibration["n_cal"]
        level = chi2.sf(c.threshold / c.params["sigma_sq"], R)
        assert abs(level - b) <= 4.0 * math.sqrt(b * (1.0 - b) / n_cal)


class TestEvaluate:
    def test_composite_is_or_of_constituents(self):
        test = build_test("equicorrelated", 100, 95, 0.2, mode="paper_constants", C=2.0)
        model = model_for(test)
        rng = _rng(8)
        thresholds = {c.name: c.threshold for c in test.constituents}
        seen_fired = False
        for _ in range(200):
            obs = sample(model, None, rng)
            verdict = evaluate(test, obs, rng)
            exceed = {n for n, v in verdict.values.items() if v > thresholds[n]}
            assert verdict.reject == bool(exceed)
            assert set(verdict.fired) == exceed
            seen_fired = seen_fired or verdict.reject
        assert seen_fired  # C=2 is small enough that something fires under the null

    @pytest.mark.parametrize("x", [
        np.float64(1.0), np.ones((2, 16)), np.ones((1, 16)), np.ones(15), np.ones(17),
        np.full(16, 1j), ["a"] * 16, "abcd", None,
    ], ids=["0d", "2d", "one-row-batch", "short", "long", "complex", "strings", "text",
            "none"])
    def test_data_that_is_not_one_real_vector_of_length_p_is_refused(self, x):
        # the data are a bare array: evaluate refuses the shape, the
        # canonical layout the dtype and the length
        test = build_test("equicorrelated", 16, 4, 0.5, mode="paper_constants", C=3.0)
        with pytest.raises(ContractError):
            evaluate(test, x, _rng(10))

    def test_a_list_is_one_data_vector(self):
        test = build_test("grouped", 16, 4, 0.5, R=4, mode="paper_constants", C=3.0)
        x = sample(test.model, None, _rng(9))
        assert evaluate(test, list(x), _rng(10)) == evaluate(test, x, _rng(10))

    @pytest.mark.parametrize("mode,kw", [
        ("paper_constants", {"C": 3.0}),
        ("calibrated", {"n_cal": 1000, "eta": 0.2, "rng": _rng(12)}),
    ])
    @pytest.mark.parametrize("family,R,v", [
        ("equicorrelated", None, None), ("grouped", 4, None),
        ("rank_one", None, [1.0, -1.0] * 8),
    ])
    def test_model_for_is_the_model_the_test_was_built_for(self, family, R, v, mode, kw):
        test = build_test(family, 16, 2, 0.5, R=R, v=v, mode=mode, **kw)
        assert model_for(test) is test.model
        d = test.descriptor()  # the cell fields are read from the model
        cell = {key: d[key] for key in ("family", "p", "gamma", "R", "v") if d[key] is not None}
        assert cell == test.model.descriptor()

    @pytest.mark.parametrize("mode,kw", [
        ("paper_constants", {"C": 3.0}),
        ("calibrated", {"n_cal": 1000, "eta": 0.2, "rng": _rng(12)}),
    ])
    def test_rank_one_model_shares_the_test_pattern(self, mode, kw):
        v = np.array([1.0, -1.0] * 8)
        test = build_test("rank_one", 16, 2, 0.5, v=v, mode=mode, **kw)
        v[0] = 3.0  # the caller's array stays writeable and the test keeps its copy
        assert test.model.v[0] == 1.0
        assert model_for(test).v is test.model.v

    def test_noiseless_test_is_errorless(self):
        test = build_test("equicorrelated", 64, 8, 1.0, mode="paper_constants", C=3.0)
        model = model_for(test)
        rng = _rng(11)
        theta = draw(UniformSparse(64, 8, 1e-3), rng)
        for _ in range(1000):
            assert not evaluate(test, sample(model, None, rng), rng).reject
            assert evaluate(test, sample(model, theta, rng), rng).reject

    def test_scan_verdict_invariant_under_group_relabeling(self):
        # Coordinate j of the permuted layout carries value x[perm[j]] from
        # the same group: every group sees the same multiset of values as in
        # the base layout, so verdicts must agree exactly.
        p, R, g = 24, 4, 0.5
        test = build_test("grouped", p, 5, g, R=R, mode="paper_constants", C=2.5)
        rng_data = _rng(12)
        perm = _rng(13).permuted(np.arange(p).reshape(R, p // R), axis=1).ravel()
        for trial in range(50):
            x = rng_data.standard_normal(p) * 1.5
            v1 = evaluate(test, x, _rng(2000 + trial))
            v2 = evaluate(test, x[perm], _rng(2000 + trial))
            assert v1.reject == v2.reject
            assert v1.values == v2.values

    def test_monotone_power_in_signal_scale(self):
        test = build_test("equicorrelated", 64, 3, 0.4, mode="calibrated",
                          eta=0.1, n_cal=2000, rng=_rng(14))
        model = model_for(test)
        prev = -1.0
        n = 1500
        for lam in [0.5, 1.0, 2.0, 4.0]:
            theta = make_sparse_signal(64, 3, lam * 2.0).theta
            rng = _rng(15)
            rej = sum(evaluate(test, sample(model, theta, rng), rng).reject
                      for _ in range(n)) / n
            se = math.sqrt(max(rej * (1 - rej), 0.25 / n) / n)
            assert rej >= prev - 2 * (se + 0.013)
            prev = rej
        assert prev >= 0.9  # strong signal must be detected

    def test_adaptive_detects_without_sparsity_input(self):
        # true s* = 3, p = 400, separation 5x the rate in norm
        p, s_true, g = 400, 3, 0.5
        test = build_test("equicorrelated", p, "adaptive", g, mode="calibrated",
                          eta=0.1, n_cal=2000, rng=_rng(16))
        model = model_for(test)
        rate = rate_equicorrelated(p, s_true, g).value
        eps = 5.0 * math.sqrt(rate)
        theta = make_sparse_signal(p, s_true, eps / math.sqrt(s_true)).theta
        rng = _rng(17)
        n = 600
        rej = sum(evaluate(test, sample(model, theta, rng), rng).reject
                  for _ in range(n)) / n
        assert rej >= 0.9
        null_rej = sum(evaluate(test, sample(model, None, rng), rng).reject
                       for _ in range(n)) / n
        assert null_rej <= 0.1
