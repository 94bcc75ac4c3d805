"""Risk engine: determinism, seed hygiene, and canonical risk values."""

import json
import math

import numpy as np
import pytest

from corrdetect import risk
from corrdetect.divergences import (
    GroupSupported,
    PointMass,
    ShiftedSparse,
    SingleGroupSparse,
    UniformSparse,
    draw,
    risk_lower_bound,
)
from corrdetect.errors import ContractError
from corrdetect.geometry import SignalSpec, make_sparse_signal
from corrdetect.models import (
    _BLOCK_ELEMENTS,
    Equicorrelated,
    Grouped,
    RankOne,
    model_from,
    sample,
)
from corrdetect.procedures import build_test, evaluate, model_for
from corrdetect.rates import rate_equicorrelated, rate_for, rate_grouped
from corrdetect.risk import (
    SweepPlan,
    certificate_prior,
    default_alternatives,
    estimate_risk,
    run_sweep,
    wilson_halfwidth,
    write_rows_csv,
)
from corrdetect.streams import substream


def _noiseless_test(p=32, s=4, R=None):
    family = "grouped" if R else "equicorrelated"
    return build_test(family, p, s, 1.0, R=R, mode="paper_constants", C=3.0)


class TestEstimateRisk:
    def test_perfect_correlation_zero_risk(self):
        test = _noiseless_test()
        model = model_for(test)
        theta = make_sparse_signal(32, 4, 0.5)
        est = estimate_risk(test, model, [theta], 500, master_seed=7)
        assert est.type_i == 0.0
        assert est.worst_type_ii == 0.0
        assert est.total == 0.0

    def test_null_alternative_complement(self):
        # theta = 0 passed as the "alternative": acceptance rate there is
        # exactly one minus the rejection rate of an identically distributed
        # stream; both estimates must sit within Monte Carlo error.
        test = build_test("equicorrelated", 24, 20, 0.4, mode="calibrated",
                          eta=0.2, n_cal=2000, rng=substream(0, 1))
        model = model_for(test)
        zero = make_sparse_signal(24, 1, 0.0)
        est = estimate_risk(test, model, [zero], 4000, master_seed=3)
        assert abs((1.0 - est.worst_type_ii) - est.type_i) <= 3 * math.hypot(
            est.se_type_i, est.se_worst_type_ii)

    def test_determinism_across_worker_counts(self):
        test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=2.0)
        model = model_for(test)
        alts = [UniformSparse(16, 3, 1.2),
                make_sparse_signal(16, 3, 1.2)]
        est1 = estimate_risk(test, model, alts, 400, master_seed=11, workers=1)
        est2 = estimate_risk(test, model, alts, 400, master_seed=11, workers=4)
        assert est1.type_i == est2.type_i
        assert est1.per_alternative == est2.per_alternative

    def test_alternative_order_does_not_matter(self):
        test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=2.0)
        model = model_for(test)
        a = UniformSparse(16, 3, 1.2)
        b = make_sparse_signal(16, 2, 0.9)
        e1 = estimate_risk(test, model, [a, b], 300, master_seed=5)
        e2 = estimate_risk(test, model, [b, a], 300, master_seed=5)
        assert e1.per_alternative == e2.per_alternative

    def test_power_at_clear_separation(self):
        # p=400, s=5, gamma=0, calibrated at eta=0.1, separation 6x the rate.
        p, s = 400, 5
        test = build_test("equicorrelated", p, s, 0.0, mode="calibrated",
                          eta=0.1, n_cal=3000, rng=substream(1, 0))
        model = model_for(test)
        rate = rate_equicorrelated(p, s, 0.0).value
        alts = default_alternatives("equicorrelated", p, s, 0.0, None, None,
                                    6.0 * rate)
        est = estimate_risk(test, model, alts, 2000, master_seed=17)
        assert est.total <= 0.2

    def test_guards(self):
        test = _noiseless_test()
        model = model_for(test)
        with pytest.raises(ContractError):
            estimate_risk(test, model, [], 500, master_seed=0)
        with pytest.raises(ContractError):
            estimate_risk(test, model, [make_sparse_signal(32, 1, 1.0)], 50,
                          master_seed=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_refuses_fewer_than_one_worker(self, workers):
        test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=2.0)
        with pytest.raises(ContractError, match="workers"):
            estimate_risk(test, model_for(test), [UniformSparse(16, 3, 1.2)], 200,
                          master_seed=0, workers=workers)

    def test_colliding_stream_tokens_are_refused(self, monkeypatch):
        test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=2.0)
        model = model_for(test)
        monkeypatch.setattr(risk, "stable_token", lambda text: 7)
        alts = [UniformSparse(16, 3, 1.2), UniformSparse(16, 3, 0.9)]
        with pytest.raises(ContractError, match="stream token 7"):
            estimate_risk(test, model, alts, 100, master_seed=0)

    def test_repeated_alternative_simulated_once(self, monkeypatch):
        test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=2.0)
        model = model_for(test)
        alt = UniformSparse(16, 3, 1.2)
        once = estimate_risk(test, model, [alt], 100, master_seed=2)
        draws = []

        def counting(*args, draw=risk.draw_prior, **kwargs):
            draws.append(1)
            return draw(*args, **kwargs)

        monkeypatch.setattr(risk, "draw_prior", counting)
        twice = estimate_risk(test, model, [alt, UniformSparse(16, 3, 1.2)], 100,
                              master_seed=2)
        assert len(draws) == 100
        assert (twice.type_i, twice.per_alternative, twice.se_total) == (
            once.type_i, once.per_alternative, once.se_total)

    def test_point_masses_of_equal_norm_keep_their_own_streams(self):
        # one whole group against every fourth coordinate: equal norms, and
        # type II errors far apart under the grouped model
        test = build_test("grouped", 64, 16, 0.9, R=4, mode="calibrated",
                          rng=substream(3, 0))
        model = model_for(test)
        whole, spread = np.zeros(64), np.zeros(64)
        whole[:16] = spread[::4] = 0.5
        a, b = PointMass(whole), PointMass(spread)
        e1 = estimate_risk(test, model, [a, b], 400, master_seed=1)
        e2 = estimate_risk(test, model, [b, a], 400, master_seed=1)
        assert len(e1.per_alternative) == len(e2.per_alternative) == 2
        assert e1.per_alternative == e2.per_alternative
        assert e1.worst_type_ii == e2.worst_type_ii

    def test_universes_of_equal_size_are_told_apart(self):
        a = UniformSparse(16, 2, 1.0, universe=np.arange(8))
        b = UniformSparse(16, 2, 1.0, universe=np.arange(8, 16))
        assert a.descriptor()["universe_size"] == b.descriptor()["universe_size"]
        assert risk._alt_key(a) != risk._alt_key(b)
        assert risk._alt_key(a) == risk._alt_key(
            UniformSparse(16, 2, 1.0, universe=np.arange(7, -1, -1)))

    def test_wilson_halfwidth_range(self):
        assert wilson_halfwidth(0, 100) > 0
        assert wilson_halfwidth(100, 100) > 0
        assert wilson_halfwidth(50, 100) == pytest.approx(
            math.sqrt(2500 / 100 + 0.25) / 101)


class TestSweep:
    def _tiny_plan(self, workers=1, seed=0):
        return SweepPlan(
            family="equicorrelated", p_grid=(32,), s_grid=(3,),
            gamma_grid=(0.0, 0.6), multipliers=(0.125, 8.0), n_reps=200,
            master_seed=seed, mode="calibrated", eta=0.2, n_cal=1000,
            workers=workers)

    def test_rows_carry_rate_and_regime(self):
        rows, reports = run_sweep(self._tiny_plan())
        assert len(rows) == 4
        assert all(r["regime"] == "sparse" for r in rows)
        assert rows[0]["rate_sq"] == pytest.approx(
            rate_equicorrelated(32, 3, 0.0).value)
        assert all(rep["status"] == "ok" for rep in reports)

    def test_bitwise_deterministic_across_workers(self, tmp_path):
        rows1, _ = run_sweep(self._tiny_plan(workers=1))
        rows2, _ = run_sweep(self._tiny_plan(workers=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows1, p1)
        write_rows_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_monotone_in_separation(self):
        rows, _ = run_sweep(self._tiny_plan(seed=3))
        by_gamma = {}
        for r in rows:
            by_gamma.setdefault(r["gamma"], {})[r["multiplier"]] = r
        for gamma, cells in by_gamma.items():
            low, high = cells[0.125], cells[8.0]
            slack = 2 * math.hypot(low["se"], high["se"])
            assert high["total"] <= low["total"] + slack

    def test_cell_errors_recorded_not_raised(self):
        plan = SweepPlan(
            family="rank_one", p_grid=(16,), s_grid=(10,),  # s > omega(v)
            gamma_grid=(0.5,), multipliers=(1.0,), n_reps=200,
            master_seed=0, v=np.ones(16), mode="paper_constants", C=3.0)
        rows, reports = run_sweep(plan)
        assert reports[0]["status"] == "error"
        assert "uncharacterized" in reports[0]["error"]
        assert math.isnan(rows[0]["total"])

    @pytest.mark.parametrize("family,extra", [
        ("equicorrelated", {"R_grid": (4,)}),
        ("equicorrelated", {"v": np.ones(16)}),
        ("grouped", {"R_grid": (4,), "v": np.ones(16)}),
        ("rank_one", {"R_grid": (4,), "v": np.ones(16)}),
    ])
    def test_plan_refuses_a_stray_R_or_v(self, family, extra):
        with pytest.raises(ContractError, match="applies to"):
            SweepPlan(family=family, p_grid=(16,), s_grid=(2,), gamma_grid=(0.5,),
                      multipliers=(1.0,), n_reps=200, master_seed=0, **extra)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_plan_refuses_fewer_than_one_worker(self, workers):
        with pytest.raises(ContractError, match="workers"):
            self._tiny_plan(workers=workers)

    @pytest.mark.parametrize("change,message,argument", [
        ({"n_reps": 50}, "n_reps", "n_reps"),
        ({"mode": "bogus"}, "unknown mode", "mode"),
        ({"mode": "paper_constants"}, "needs the constant C", "C"),
        ({"eta": 1.5}, "eta", "eta"),
        ({"eta": 0.0}, "eta", "eta"),
        ({"n_cal": 999}, "n_cal", "n_cal"),
        # each below was built (run_sweep then wrote NaN rows, or took a
        # fractional n_reps) or raised a bare TypeError
        ({"family": "grouped", "R_grid": (5,)}, "R must divide p", "R"),
        ({"s_grid": (40,)}, r"s must be in \[1, 32\]", "s"),
        ({"gamma_grid": (1.5,)}, "gamma must lie in", "gamma"),
        ({"p_grid": (32.0,)}, "p must be an integer", "p"),
        ({"multipliers": (math.nan,)}, "multipliers must be a finite", "multipliers"),
        ({"multipliers": (math.inf,)}, "multipliers must be a finite", "multipliers"),
        ({"multipliers": ("a",)}, "multipliers must be a finite", "multipliers"),
        ({"n_reps": 200.5}, "n_reps must be an integer", "n_reps"),
        ({"n_reps": "200"}, "n_reps must be an integer", "n_reps"),
        ({"eta": "x"}, "eta must be a finite", "eta"),
        ({"workers": 1.5}, "workers must be an integer", "workers"),
        ({"separation_reference": "gamma1"}, "separation_reference", "separation_reference"),
        ({"family": "grouped", "R_grid": (5,), "s_grid": (40,), "gamma_grid": (1.5,),
          "multipliers": (math.nan,), "mode": "paper_constants", "C": 3.0}, "multipliers",
         "multipliers"),
    ])
    def test_plan_refuses_what_every_cell_would_fail_on(self, change, message, argument):
        fields = dict(family="equicorrelated", p_grid=(32,), s_grid=(3,), gamma_grid=(0.5,),
                      multipliers=(1.0,), n_reps=200, master_seed=0, n_cal=1000)
        with pytest.raises(ContractError, match=message) as caught:
            SweepPlan(**dict(fields, **change))
        assert caught.value.argument == argument

    def test_paper_plan_takes_any_n_cal(self):
        SweepPlan(family="equicorrelated", p_grid=(32,), s_grid=(3,), gamma_grid=(0.5,),
                  multipliers=(1.0,), n_reps=200, master_seed=0, mode="paper_constants",
                  C=3.0, n_cal=1)

    def test_non_package_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise IndexError("shape bug inside a cell")

        monkeypatch.setattr(risk, "estimate_risk", broken)
        plan = SweepPlan(family="equicorrelated", p_grid=(16,), s_grid=(2,),
                         gamma_grid=(0.5,), multipliers=(1.0,), n_reps=200,
                         master_seed=0, mode="paper_constants", C=3.0)
        with pytest.raises(IndexError, match="shape bug"):
            run_sweep(plan)

    def test_shifted_prior_alternative_refused(self):
        test = build_test("equicorrelated", 16, 14, 0.3, mode="paper_constants", C=3.0)
        with pytest.raises(ContractError, match="shifted"):
            estimate_risk(test, model_for(test), [ShiftedSparse(16, 14, 0.5)], 100,
                          master_seed=0)

    @pytest.mark.parametrize("family,R,v", [
        ("bogus", None, None), ("grouped", None, None), ("rank_one", None, None),
        ("equicorrelated", 4, None)])
    def test_default_panel_refuses_a_family_it_cannot_build(self, family, R, v):
        with pytest.raises(ContractError, match="family"):
            default_alternatives(family, 64, 8, 0.5, R, v, 10.0)

    @pytest.mark.parametrize("family,R,v,gamma", [
        ("rank_one", None, np.full(16, 2.0), 0.5),  # ||v||^2 = 4p
        ("rank_one", None, np.r_[np.ones(15), np.nan], 0.5),
        ("rank_one", None, np.ones(8), 0.5),  # a pattern of another length
        ("equicorrelated", None, None, 1.5), ("grouped", 4, None, 1.5),
        ("rank_one", None, np.ones(16), 1.5)])
    def test_default_panel_refuses_a_model_it_cannot_build(self, family, R, v, gamma):
        with pytest.raises(ContractError):
            default_alternatives(family, 16, 4, gamma, R, v, 10.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_grouped_panel_at_R1_and_Rp_is_the_equicorrelated_panel(self, gamma):
        for s in (1, 3, 8, 20, 40, 64):
            want = [a.descriptor() for a in
                    default_alternatives("equicorrelated", 64, s, gamma, None, None, 10.0)]
            for R in (1, 64):
                got = default_alternatives("grouped", 64, s, gamma, R, None, 10.0)
                assert [a.descriptor() for a in got] == want, (s, R)

    def test_grouped_default_panel_matches_regime(self):
        alts = default_alternatives("grouped", 64, 8, 0.5, 4, None, 10.0)
        from corrdetect.divergences import SingleGroupSparse
        assert isinstance(alts[0], SingleGroupSparse)  # 4 = p/(4R) < 8 < 16 = p/R
        alts2 = default_alternatives("grouped", 64, 32, 0.5, 4, None, 10.0)
        from corrdetect.divergences import GroupSupported
        assert isinstance(alts2[0], GroupSupported)
        draws = alts2[0]
        assert draws.m * (64 // 4) * draws.magnitude ** 2 == pytest.approx(10.0)


def test_grouped_sweep_at_R1_is_the_equicorrelated_sweep():
    """Row for row equal in every column but the family and R, refused
    gamma = 1 cells (rate 0) included."""
    plans = [SweepPlan(family=family, p_grid=(64,), R_grid=R_grid,
                       s_grid=(3, 8, 20, 40, 60, 64), gamma_grid=(0.0, 0.5, 0.9, 1.0),
                       multipliers=(0.5, 4.0), n_reps=200, master_seed=7, n_cal=1000)
             for family, R_grid in (("grouped", (1,)), ("equicorrelated", (None,)))]
    grouped, equi = ([{key: repr(value) for key, value in row.items()
                       if key not in ("family", "R")} for row in run_sweep(plan)[0]]
                     for plan in plans)
    assert len(grouped) == 48 and sum(row["rate_sq"] != "nan" for row in grouped) > 30
    assert grouped == equi


def test_certificates_keep_criterion_6_beyond_the_grid():
    """The certificate prior at rate/64 bounds the risk from below by
    criterion 6's 0.75 in every small-p cell: p in {16, 36, 64}, the
    equicorrelated family and every R dividing p, gamma in {0, 0.5, 0.9} and
    every s.  Only the equicorrelated cells at s = p are refused: no shifted
    prior has s = p."""
    cells, worst, refused = 0, math.inf, []
    for p in (16, 36, 64):
        for R in [None] + [R for R in range(1, p + 1) if p % R == 0]:
            family = "equicorrelated" if R is None else "grouped"
            for gamma in (0.0, 0.5, 0.9):
                model = model_from(family, p, gamma, R)
                for s in range(1, p + 1):
                    cells += 1
                    target = rate_for(family, p, s, gamma, R).value / 64.0
                    try:
                        prior = certificate_prior(model, s, target)
                    except ContractError:
                        refused.append((family, p, s, gamma))
                        continue
                    worst = min(worst, risk_lower_bound(prior, model,
                                                        method="hypergeometric_sum"))
    assert cells == 2904
    assert refused == [("equicorrelated", p, p, gamma)
                       for p in (16, 36, 64) for gamma in (0.0, 0.5, 0.9)]
    assert worst >= 0.75


def test_certificate_prior_refuses_a_negative_squared_norm():
    with pytest.raises(ContractError, match="nonnegative"):
        certificate_prior(model_from("equicorrelated", 16, 0.5), 2, -1.0)


class TestSharedNull:
    """A sweep cell makes one risk estimate; the null is shared by its rows."""

    MULTIPLIERS = (0.25, 1.0, 4.0)

    def _plan(self, workers=1):
        return SweepPlan(
            family="grouped", p_grid=(32,), R_grid=(4,), s_grid=(6,),
            gamma_grid=(0.0, 0.5), multipliers=self.MULTIPLIERS, n_reps=200,
            master_seed=9, mode="calibrated", eta=0.2, n_cal=1000,
            workers=workers)

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(self._plan())

    def test_rows_equal_a_direct_estimate_on_their_panel(self, sweep):
        rows, _ = sweep
        plan = self._plan()
        for cell, gamma in enumerate(plan.gamma_grid, start=1):
            test = build_test("grouped", 32, 6, gamma, R=4, eta=plan.eta,
                              n_cal=plan.n_cal, rng=substream(plan.master_seed, cell, 0))
            model = Grouped(32, 4, gamma)
            rate = rate_grouped(32, 6, gamma, 4).value
            cell_rows = [r for r in rows if r["gamma"] == gamma]
            assert [r["multiplier"] for r in cell_rows] == list(self.MULTIPLIERS)
            for row, mult in zip(cell_rows, self.MULTIPLIERS):
                panel = default_alternatives("grouped", 32, 6, gamma, 4, None, mult * rate)
                est = estimate_risk(test, model, panel, plan.n_reps, plan.master_seed,
                                    cell_id=cell)
                assert (row["type_i"], row["worst_type_ii"], row["total"], row["se"]) == (
                    est.type_i, est.worst_type_ii, est.total, est.se_total)

    def test_type_i_shared_across_multipliers(self, sweep):
        rows, _ = sweep
        for gamma in self._plan().gamma_grid:
            assert len({r["type_i"] for r in rows if r["gamma"] == gamma}) == 1

    def test_null_simulated_once_per_cell(self, monkeypatch):
        nulls = []  # null rows of each null ``sample`` call

        def counting(model, theta, rng=None, sample=risk.sample, **kw):
            x = sample(model, theta, rng, **kw)
            if theta is None:
                nulls.append(len(np.atleast_2d(x)))
            return x

        monkeypatch.setattr(risk, "sample", counting)
        plan = self._plan()
        run_sweep(plan)
        assert sum(nulls) == len(plan.gamma_grid) * plan.n_reps
        # one null call per block of _BLOCK_ELEMENTS // p replications
        blocks = math.ceil(plan.n_reps / (_BLOCK_ELEMENTS // plan.p_grid[0]))
        assert len(nulls) == len(plan.gamma_grid) * blocks

    def test_csv_identical_across_workers(self, sweep, tmp_path):
        rows2, _ = run_sweep(self._plan(workers=2))
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_rows_csv(sweep[0], p1)
        write_rows_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestModelCheck:
    """``estimate_risk`` draws every replication from the test's own model,
    and refuses, once per call, a model that does not describe it."""

    @staticmethod
    def _risk(test, model):
        return estimate_risk(test, model, [make_sparse_signal(16, 2, 1.0)], 100,
                             master_seed=1)

    def test_gamma_mismatch_rejected(self):
        test = build_test("equicorrelated", 16, 4, 0.5, mode="paper_constants", C=3.0)
        with pytest.raises(ContractError):
            self._risk(test, Equicorrelated(16, 1.0))

    def test_pattern_mismatch_rejected(self):
        v = np.array([1.0, -1.0] * 8)
        test = build_test("rank_one", 16, 2, 0.5, v=v, mode="paper_constants", C=3.0)
        # the test's own array and an equal one give the same estimate
        own, equal = (self._risk(test, RankOne(16, 0.5, pattern))
                      for pattern in (test.model.v, test.model.v.copy()))
        assert (own.type_i, own.per_alternative) == (equal.type_i, equal.per_alternative)
        # patterns are compared exactly: 1e-15 off was once within a 1e-12 tolerance
        for pattern in (-test.model.v, test.model.v * (1.0 + 1e-15)):
            with pytest.raises(ContractError):
                self._risk(test, RankOne(16, 0.5, pattern))

    @pytest.mark.parametrize("family,R,observed", [
        ("equicorrelated", None, Grouped(16, 4, 0.5)),
        ("grouped", 4, Equicorrelated(16, 0.5)),
        ("equicorrelated", None, RankOne(16, 0.5, np.ones(16))),
        ("equicorrelated", None, Equicorrelated(32, 0.5)),
        ("grouped", 4, Grouped(32, 4, 0.5)),
        ("grouped", 4, Grouped(16, 2, 0.5)),
    ])
    def test_family_dimension_and_group_count_mismatches_rejected(self, family, R,
                                                                  observed):
        test = build_test(family, 16, 4, 0.5, R=R, mode="paper_constants", C=3.0)
        with pytest.raises(ContractError, match="test's model"):
            self._risk(test, observed)

    def test_refused_before_anything_is_drawn(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("a replication was drawn before the model check")

        for name in ("substream", "sample", "draw_prior"):
            monkeypatch.setattr(risk, name, drawn)
        test = build_test("equicorrelated", 16, 4, 0.5, mode="paper_constants", C=3.0)
        with pytest.raises(ContractError, match="test's model"):
            estimate_risk(test, Equicorrelated(16, 0.3), [UniformSparse(16, 4, 1.0)], 100,
                          master_seed=1)


def _sign_pattern(p):
    return np.where(np.arange(p) % 2 == 0, 1.0, -1.0)


def _bump_pattern(p):
    # the acceptance grid's heterogeneous pattern: a bump on the first isqrt(p)
    v = np.zeros(p)
    v[:math.isqrt(p)] = p ** 0.25
    return v


class TestBlockEngine:
    """``_reject_count_chunk`` samples a block of replications in one call;
    every verdict equals the per-replication loop's, bit for bit."""

    KEY = (5, 3, 2, 17)  # master seed, cell, stream kind, alternative code

    def _reference(self, test, model, alt, start, stop):
        """substream, then draw, then sample, then evaluate, per replication."""
        verdicts = []
        for i in range(start, stop):
            rng = substream(*self.KEY, i)
            theta = alt
            if isinstance(alt, SignalSpec):
                theta = alt.theta
            elif alt is not None:
                theta = draw(alt, rng, v=getattr(model, "v", None))
            verdicts.append(evaluate(test, sample(model, theta, rng), rng))
        return verdicts

    @pytest.mark.parametrize("family,p,s,gamma,R,v,prior,window", [
        # one block is 8 rows at p = 4096: blocks [3, 11), [11, 19), [19, 22)
        ("equicorrelated", 4096, 10, 0.5, None, None, UniformSparse(4096, 10, 0.6),
         (3, 22)),
        ("grouped", 64, 16, 0.5, 8, None, UniformSparse(64, 16, 0.5), (0, 130)),
        # gamma = 1 reads no decorrelated data, so draws no injections
        ("grouped", 64, 16, 1.0, 8, None, UniformSparse(64, 16, 0.5), (0, 130)),
        ("rank_one", 64, 3, 0.5, None, _sign_pattern(64),
         UniformSparse(64, 3, 1.5, signs="match_pattern"), (7, 110)),
        # omega(v) = 4 at p = 256; one block is 128 rows
        ("rank_one", 256, 3, 0.5, None, _bump_pattern(256),
         UniformSparse(256, 3, 1.5, universe=np.arange(16, 256)), (7, 140)),
    ])
    def test_verdicts_equal_the_per_replication_loop(self, monkeypatch, family, p, s,
                                                     gamma, R, v, prior, window):
        test = build_test(family, p, s, gamma, R=R, v=v, mode="paper_constants", C=3.0)
        model = model_for(test)
        seen = []

        def spy(test, obs, rng, evaluate=risk.evaluate):
            verdict = evaluate(test, obs, rng)
            seen.append(verdict.values)
            return verdict

        monkeypatch.setattr(risk, "evaluate", spy)
        for alt in (None, prior, make_sparse_signal(p, s, prior.magnitude)):
            want = self._reference(test, model, alt, *window)
            seen.clear()
            count = risk._reject_count_chunk(test, *self.KEY[:2], alt,
                                             *self.KEY[2:], *window)
            assert seen == [verdict.values for verdict in want]
            assert count == sum(verdict.reject for verdict in want)


def test_numpy_integer_dimensions_build_what_python_ints_build():
    # records kept numpy integers as given, so their JSON raised TypeError,
    # and so did the stream tokens of estimate_risk on such a cell
    n = np.int64
    pairs = [(build(n), build(int)) for build in [
        lambda i: Equicorrelated(i(16), 0.5),
        lambda i: Grouped(i(16), i(4), 0.5),
        lambda i: RankOne(i(16), 0.5, np.ones(16)),
        lambda i: UniformSparse(i(16), i(3), 0.5),
        lambda i: SingleGroupSparse(i(16), i(4), i(2), 0.5),
        lambda i: GroupSupported(i(16), i(4), i(2), 0.5),
        lambda i: ShiftedSparse(i(16), i(3), 0.5),
        lambda i: make_sparse_signal(i(16), i(3), 0.5),
        lambda i: SignalSpec(np.r_[1.0, np.zeros(15)], i(3), [i(0)]),
        lambda i: build_test("equicorrelated", i(16), i(3), 0.5, mode="paper_constants", C=3.0),
    ]]
    for built, expected in pairs:
        assert built.descriptor() == expected.descriptor()
        assert json.dumps(built.descriptor()) == json.dumps(expected.descriptor())
    estimates = [estimate_risk(test, test.model, default_alternatives(
        "equicorrelated", i(16), i(3), 0.5, None, None, 10.0), 100, master_seed=0)
        for test, i in [(pairs[-1][0], n), (pairs[-1][1], int)]]
    assert estimates[0].total == estimates[1].total
    assert estimates[0].per_alternative == estimates[1].per_alternative


def test_numpy_floats_are_kept_as_floats():
    # records kept a float32 gamma or magnitude as given: their JSON raised TypeError
    half = np.float32(0.5)
    models = [Equicorrelated(8, half), Grouped(8, 2, half), RankOne(8, half, np.ones(8))]
    priors = [UniformSparse(8, 2, half), SingleGroupSparse(8, 2, 1, half),
              GroupSupported(8, 2, 1, half), ShiftedSparse(8, 2, half)]
    for record in models + priors:
        json.dumps(record.descriptor())
    assert all(type(model.gamma) is float for model in models)
    assert all(type(prior.magnitude) is float for prior in priors)


def test_a_plan_of_numpy_integers_writes_its_manifest(tmp_path):
    # the descriptor kept np.int64 counts, so write_manifest raised TypeError
    # after the whole sweep had run
    n = np.int64
    plans = [SweepPlan(family="grouped", p_grid=(i(16),), R_grid=(i(4),), s_grid=(i(2),),
                       gamma_grid=(0.5,), multipliers=(1.0,), n_reps=i(100), master_seed=0,
                       mode="paper_constants", C=3.0, n_cal=i(10), workers=i(1))
             for i in (n, int)]
    manifests = []
    for k, plan in enumerate(plans):
        (tmp_path / str(k)).mkdir()
        rows, reports = run_sweep(plan)
        write_rows_csv(rows, tmp_path / str(k) / "sweep.csv")
        risk.write_manifest(plan, reports, tmp_path / str(k) / "sweep.csv",
                            tmp_path / str(k) / "manifest.json")
        manifests.append((tmp_path / str(k) / "manifest.json").read_text())
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("kw,argument", [
    ({"n_reps": 100.5}, "n_reps"), ({"n_reps": 99}, "n_reps"), ({"workers": 0}, "workers"),
    ({"alternatives": []}, "alternatives"), ({"model": Equicorrelated(16, 0.4)}, "model")])
def test_a_risk_estimate_names_the_argument_it_refuses(kw, argument):
    test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=3.0)
    call = dict(test=test, model=test.model, alternatives=[make_sparse_signal(16, 3, 1.0)],
                n_reps=100, master_seed=0)
    with pytest.raises(ContractError) as caught:
        estimate_risk(**dict(call, **kw))
    assert caught.value.argument == argument
