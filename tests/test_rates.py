"""Branch arithmetic, endpoint reductions, and the boundary-continuity audit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrdetect import rates
from corrdetect.errors import ContractError, CorrdetectError
from corrdetect.rates import (
    blessing_curse_thresholds,
    boundary_audit,
    psi1_sq,
    rate_equicorrelated,
    rate_for,
    rate_grouped,
    rate_rank_one,
)


class TestEquicorrelated:
    def test_sparse_branch_value(self):
        r = rate_equicorrelated(100, 5, 0.0)
        assert r.regime == "sparse"
        assert r.value == pytest.approx(5 * math.log(5.0), rel=1e-12)
        assert f"{r.value:.4f}" == "8.0472"

    def test_reduces_to_independent_rate_at_gamma_zero(self):
        # Independent-noise benchmark: s log(1+p/s^2) below sqrt(p),
        # sqrt(p) + O(1) mean part above.
        for p, s in [(400, 3), (400, 10), (10_000, 64)]:
            r = rate_equicorrelated(p, s, 0.0)
            if s < math.sqrt(p):
                assert r.value == pytest.approx(s * math.log1p(p / s ** 2))
            else:
                assert r.components["psi1_sq"] == pytest.approx(math.sqrt(p))

    def test_perfect_correlation_branches(self):
        assert rate_equicorrelated(100, 99, 1.0).value == 0.0
        r = rate_equicorrelated(100, 100, 1.0)
        assert r.value == 100.0 and r.regime == "perfect-dense"

    def test_middle_branch_arithmetic(self):
        r = rate_equicorrelated(100, 50, 0.0)
        assert r.regime == "dense"
        assert r.value == pytest.approx(10.0 + min(100 ** 1.5 / 50.0, 1.0))
        assert r.value == pytest.approx(11.0)

    def test_very_dense_cap(self):
        # s = p with gamma < 1: the log term blows up, the cap takes over.
        r = rate_equicorrelated(64, 64, 0.5)
        assert r.regime == "very-dense"
        assert r.value == pytest.approx(0.5 * 8.0 + (0.5 + 0.5 * 64))

    def test_monotonicity_in_gamma(self):
        gammas = np.linspace(0.0, 0.999, 50)
        vals = [rate_equicorrelated(1000, 7, g).value for g in gammas]
        assert np.all(np.diff(vals) < 0)  # sparse branch scales by (1-gamma)
        caps = [rate_equicorrelated(1000, 1000, g).components["cap"] for g in gammas]
        assert np.all(np.diff(caps) > 0)

    def test_range_guards(self):
        with pytest.raises(ContractError):
            rate_equicorrelated(10, 0, 0.5)
        with pytest.raises(ContractError):
            rate_equicorrelated(10, 11, 0.5)


class TestGrouped:
    def test_R_one_exactly_matches_equicorrelated(self):
        rng = np.random.default_rng(0)
        cells = 0
        for p in [16, 100, 1024]:
            for g in [0.0, 0.3, 0.9, 0.999, 1.0]:
                for s in sorted(set(int(x) for x in rng.integers(1, p + 1, size=4))):
                    eq = rate_equicorrelated(p, s, g)
                    gr = rate_grouped(p, s, g, 1)
                    assert gr.value == eq.value  # exact float equality
                    assert gr.regime == eq.regime
                    cells += 1
        assert cells >= 50

    def test_R_equals_p_is_independent_rate(self):
        for g in [0.0, 0.4, 0.97, 1.0]:
            for s in [1, 5, 32, 100]:
                gr = rate_grouped(100, s, g, 100)
                eq = rate_equicorrelated(100, s, 0.0)
                assert gr.value == eq.value  # no gamma dependence

    def test_perfect_correlation_middle_branch(self):
        r = rate_grouped(64, 16, 1.0, 4)
        assert r.regime == "perfect-average-sparse"
        assert r.value == pytest.approx(16 * math.log(5.0))

    def test_perfect_correlation_degenerate_and_dense(self):
        assert rate_grouped(64, 8, 1.0, 4).value == 0.0
        r = rate_grouped(64, 40, 1.0, 4)
        assert r.value == pytest.approx(64 / 2.0)

    def test_regime_dispatch(self):
        p, R = 1024, 8
        assert rate_grouped(p, 8, 0.5, R).regime == "within-group-sparse"
        assert rate_grouped(p, 64, 0.5, R).regime == "scan-moderate"
        assert rate_grouped(p, 120, 0.5, R).regime == "scan-dense"
        assert rate_grouped(p, 200, 0.5, R).regime == "average-sparse"
        assert rate_grouped(p, 400, 0.5, R).regime == "average-dense"

    def test_scan_branch_arithmetic(self):
        p, R, s, g = 1024, 8, 64, 0.5
        r = rate_grouped(p, s, g, R)
        bs = p / R
        log_er = 1 + math.log(R)
        first = (1 - g) * p / (p - R * s) * (math.sqrt(bs * log_er) + math.log(R))
        cap = (1 - g + g * bs) * log_er
        assert r.components["upsilon_sq"] == pytest.approx(min(first, cap))
        assert r.value == pytest.approx((1 - g) * 32.0 + min(first, cap))

    def test_divisibility_guard(self):
        with pytest.raises(ContractError):
            rate_grouped(100, 5, 0.5, 3)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            R = int(rng.choice([1, 2, 4, 8, 16]))
            p = R * int(rng.integers(1, 65))
            s = int(rng.integers(1, p + 1))
            g = float(rng.uniform(0, 1))
            assert rate_grouped(p, s, g, R).value >= 0.0


class TestRankOne:
    def test_all_ones_matches_base_branch(self):
        p = 256
        v = np.ones(p)
        w = 64  # omega(1_p) = p/4
        for s in list(range(1, 16)) + [17, 30, 40, 64]:
            if s == 16:  # s = sqrt(p): boundary conventions differ
                continue
            r1 = rate_rank_one(p, s, 0.4, v)
            eq = rate_equicorrelated(p, s, 0.4)
            assert s <= w
            assert r1.value == eq.components["psi1_sq"]

    def test_uncharacterized_region(self):
        v = np.ones(64)
        r = rate_rank_one(64, 30, 0.5, v)  # omega = 16 < 30
        assert r.uncharacterized and r.value is None
        assert r.regime == "uncharacterized"

    def test_perfect_correlation_spike_pattern(self):
        v = np.zeros(16)
        v[0] = 4.0
        r = rate_rank_one(16, 1, 1.0, v)  # s >= ||v||_0 = 1
        assert r.value == 16.0
        v2 = np.ones(16)
        assert rate_rank_one(16, 3, 1.0, v2).value == 0.0  # s < ||v||_0 = 16

    def test_inclusive_sqrt_boundary(self):
        # The rank-one sparse branch includes s = sqrt(p).
        p = 256
        r = rate_rank_one(p, 16, 0.5, np.ones(p))
        assert r.regime == "sparse"
        assert r.value == pytest.approx(0.5 * 16 * math.log(2.0))

    def test_pattern_length_must_be_p(self):
        with pytest.raises(ContractError):
            rate_rank_one(16, 2, 0.5, np.ones(8))

    @pytest.mark.parametrize("gamma", [-0.1, 1.5, math.nan])
    def test_gamma_outside_the_unit_interval_is_refused(self, gamma):
        # as the equicorrelated and grouped rates refuse it
        with pytest.raises(ContractError, match="gamma"):
            rate_rank_one(64, 2, gamma, np.ones(64))
        with pytest.raises(ContractError, match="gamma"):
            rate_for("rank_one", 64, 2, gamma, v=np.ones(64))


class TestRateFor:
    @pytest.mark.parametrize("s", [2, 20, 60])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_matches_family_functions(self, s, gamma):
        v = np.ones(64)
        assert rate_for("equicorrelated", 64, s, gamma) == rate_equicorrelated(64, s, gamma)
        assert rate_for("grouped", 64, s, gamma, R=4) == rate_grouped(64, s, gamma, 4)
        assert rate_for("rank_one", 64, s, gamma, v=v) == rate_rank_one(64, s, gamma, v)

    @pytest.mark.parametrize("family,R,v", [
        ("independent", None, None),
        ("grouped", None, np.ones(64)),
        ("rank_one", 4, None),
        ("equicorrelated", 8, None),  # a stray R or v is refused, not ignored
        ("equicorrelated", None, np.ones(64)),
        ("grouped", 4, np.ones(64)),
        ("rank_one", 4, np.ones(64)),
        ("rank_one", None, np.r_[np.nan, np.ones(63)]),
    ])
    def test_refuses(self, family, R, v):
        with pytest.raises(ContractError):
            rate_for(family, 64, 2, 0.5, R=R, v=v)


class TestBlessingCurse:
    def test_sparse_zone(self):
        out = blessing_curse_thresholds(100, 5)
        assert out["one_minus_gamma_star"] == 1.0
        assert out["one_minus_gamma_lower"] is None

    def test_middle_zone(self):
        out = blessing_curse_thresholds(100, 50)
        assert out["one_minus_gamma_star"] == pytest.approx(0.5)

    def test_very_dense_zone(self):
        out = blessing_curse_thresholds(100, 99)
        assert out["one_minus_gamma_star"] == pytest.approx(1.0 / (10.0 * math.log(101.0)))

    def test_full_support(self):
        out = blessing_curse_thresholds(100, 100)
        assert out["one_minus_gamma_star"] is None
        assert out["one_minus_gamma_lower"] == 0.0


class TestBoundaryAudit:
    def test_no_undocumented_jumps(self):
        for p in [64, 100, 256, 1024]:
            for g in [0.0, 0.3, 0.9, 0.999]:
                for row in boundary_audit("equicorrelated", p, g):
                    if row["flagged"]:
                        assert row["documented"], row
                for R in [2, 4, 8]:
                    if p % R:
                        continue
                    for row in boundary_audit("grouped", p, g, R):
                        if row["flagged"]:
                            assert row["documented"], row

    def test_strong_correlation_discontinuity_is_detected(self):
        rows = boundary_audit("equicorrelated", 100, 0.999)
        jump = [r for r in rows if r["boundary"] == "s=p"][0]
        assert jump["flagged"] and jump["documented"]

    def test_no_jump_at_independence(self):
        rows = boundary_audit("equicorrelated", 100, 0.0)
        assert not any(r["flagged"] for r in rows)

    @pytest.mark.parametrize("family,R", [("rank_one", None), ("rank_one", 4),
                                          ("grouped", None)])
    def test_refuses_unauditable_families(self, family, R):
        with pytest.raises(ContractError):
            boundary_audit(family, 64, 0.5, R)

    @pytest.mark.parametrize("family,p,gamma,R", [
        ("grouped", 8, 0.5, 0), ("grouped", 0, 0.5, 0), ("grouped", 8, 0.5, 3),
        ("equicorrelated", -4, 0.5, None), ("equicorrelated", 0, 0.5, None),
        ("equicorrelated", 16, 1.5, None)])
    def test_refuses_a_bad_cell_before_any_boundary(self, family, p, gamma, R):
        # R = 0 once divided by zero, p = -4 took a negative square root and
        # p = 0 returned no rows
        with pytest.raises(ContractError):
            boundary_audit(family, p, gamma, R)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 1.0])
    def test_grouped_audit_follows_the_rate_reductions(self, gamma):
        # R = 1 audits the single random effect at gamma, R = p independence
        for p in (2, 16, 64, 100):
            assert boundary_audit("grouped", p, gamma, 1) == boundary_audit(
                "equicorrelated", p, gamma)
            assert boundary_audit("grouped", p, gamma, p) == boundary_audit(
                "equicorrelated", p, 0.0)
        rows = {row["boundary"]: row for row in boundary_audit("grouped", 64, gamma, 1)}
        assert "s=sqrt(p)" in rows and "s=p/(4R)" not in rows
        assert rows["s=p"]["documented"] == (gamma >= 0.9)  # (1-g) log(64e) < 1

    def test_grouped_pR_discontinuity(self):
        rows = boundary_audit("grouped", 1024, 0.999, 8)
        jump = [r for r in rows if r["boundary"] == "s=p/R"][0]
        assert jump["flagged"] and jump["documented"]


_PROPERTY = dict(derandomize=True, database=None, deadline=None)


@st.composite
def _cells(draw):
    """(family, p, s, gamma, R) over the documented domain: 1 <= s <= p,
    gamma in [0, 1] with gamma = 1 drawn often, and R any divisor of p."""
    family = draw(st.sampled_from(["equicorrelated", "grouped"]))
    p = draw(st.integers(1, 4096))
    R = (draw(st.sampled_from([R for R in range(1, p + 1) if p % R == 0]))
         if family == "grouped" else None)
    gamma = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_max=True)))
    return family, p, draw(st.integers(1, p)), gamma, R


@settings(max_examples=400, **_PROPERTY)
@given(_cells())
def test_rate_is_finite_and_positive_on_its_domain(cell):
    family, p, s, gamma, R = cell
    value = rate_for(family, p, s, gamma, R).value
    assert math.isfinite(value), cell
    if gamma < 1.0:
        assert value > 0.0, cell
    else:
        # noiseless cells, a support inside one block, are 0; the rest positive
        assert (value == 0.0) == (s < p / (R or 1)), (cell, value)


@settings(max_examples=200, **_PROPERTY)
@given(_cells())
@example(("equicorrelated", 2, 1, 1.0, None))  # sqrt(p) and p once shared a row
def test_boundary_audit_flags_only_documented_jumps(cell):
    family, p, _, gamma, R = cell
    rows = boundary_audit(family, p, gamma, R)
    assert [row for row in rows if row["flagged"] and not row["documented"]] == [], cell


# Arguments for every entry point of ``rates``, as ``tests/test_models.py``
# draws them for ``models``: valid counts and gammas, and counts that are not
# integers, below 1 or huge, gammas outside [0, 1] or not numbers, patterns
# of another length, not real or with an entry whose square overflows.
_COUNTS = st.one_of(st.integers(1, 64),
                    st.sampled_from([0, -3, 16.5, 4.0, math.nan, "8", None, 2 ** 70]))
_GAMMAS = st.sampled_from([0.0, 0.3, 1.0, -0.1, 1.5, math.nan, math.inf, 2 ** 70, "a", None])
_FAMILIES = st.sampled_from(["equicorrelated", "grouped", "rank_one", "independent", None])


@st.composite
def _rate_calls(draw):
    """One entry point and the arguments it is called with."""
    p, s, gamma = draw(_COUNTS), draw(_COUNTS), draw(_GAMMAS)
    R = draw(st.one_of(st.none(), _COUNTS))
    n = p if isinstance(p, int) and 1 <= p <= 64 else 4
    v = draw(st.sampled_from([
        np.ones(n), np.where(np.arange(n) % 2, 1.0, -1.0), np.r_[1e300, np.ones(n - 1)],
        np.ones(n + 1), np.full(n, 1j), ["a"] * n, "abcd", None]))
    calls = {
        "rate_equicorrelated": (rate_equicorrelated, p, s, gamma),
        "rate_grouped": (rate_grouped, p, s, gamma, R),
        "rate_rank_one": (rate_rank_one, p, s, gamma, v),
        "rate_for": (rate_for, draw(_FAMILIES), p, s, gamma, R, v),
        "blessing_curse_thresholds": (blessing_curse_thresholds, p, s),
        "psi1_sq": (psi1_sq, p, s, gamma),
        "boundary_audit": (boundary_audit, draw(_FAMILIES), p, gamma, R),
    }
    assert set(calls) == set(rates.__all__) - {"RateResult"}  # a record, not a call
    return calls[draw(st.sampled_from(sorted(calls)))]


@settings(max_examples=600, **_PROPERTY)
@given(_rate_calls())
def test_every_entry_point_returns_or_raises_a_package_error(call):
    f, *args = call
    try:
        f(*args)
    except CorrdetectError:
        pass


@pytest.mark.parametrize("call", [
    lambda: rate_equicorrelated(16.5, 2, 0.5),
    lambda: rate_equicorrelated(16, 2.5, 0.5),
    lambda: rate_grouped(16, 2, 0.5, 4.0),
    lambda: blessing_curse_thresholds(16.5, 2),
    lambda: rate_equicorrelated(16, 2, "a"),
    lambda: rate_rank_one(4, 2, 0.5, "abcd"),
    lambda: rate_rank_one(4, 1, 0.5, [1, 1, 1, 1e300]),  # no overflow warning first
    lambda: psi1_sq(-3, 1, 0.5),
], ids=["p-fraction", "s-fraction", "R-float", "blessing-p-fraction", "gamma-text",
        "pattern-text", "pattern-overflow", "psi1-negative-p"])
def test_bad_arguments_raise_contract_errors(call):
    # each once returned a rate or raised a bare TypeError, ValueError or
    # overflow warning
    with pytest.raises(ContractError):
        call()
