"""Risk engine: determinism, seed hygiene, and canonical risk values."""

import math

import numpy as np
import pytest

from corrdetect import risk
from corrdetect.divergences import PointMass, ShiftedSparse, UniformSparse
from corrdetect.errors import ContractError
from corrdetect.geometry import make_sparse_signal
from corrdetect.models import Grouped
from corrdetect.procedures import build_test, model_for
from corrdetect.rates import rate_equicorrelated, rate_grouped
from corrdetect.risk import (
    SweepPlan,
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
        theta = make_sparse_signal(32, 4, 0.5, support_rule="first")
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
                make_sparse_signal(16, 3, 1.2, support_rule="first")]
        est1 = estimate_risk(test, model, alts, 400, master_seed=11, workers=1)
        est2 = estimate_risk(test, model, alts, 400, master_seed=11, workers=4)
        assert est1.type_i == est2.type_i
        assert est1.per_alternative == est2.per_alternative

    def test_alternative_order_does_not_matter(self):
        test = build_test("equicorrelated", 16, 3, 0.5, mode="paper_constants", C=2.0)
        model = model_for(test)
        a = UniformSparse(16, 3, 1.2)
        b = make_sparse_signal(16, 2, 0.9, support_rule="first")
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

    def test_grouped_default_panel_matches_regime(self):
        alts = default_alternatives("grouped", 64, 8, 0.5, 4, None, 10.0)
        from corrdetect.divergences import SingleGroupSparse
        assert isinstance(alts[0], SingleGroupSparse)  # 4 = p/(4R) < 8 < 16 = p/R
        alts2 = default_alternatives("grouped", 64, 32, 0.5, 4, None, 10.0)
        from corrdetect.divergences import GroupSupported
        assert isinstance(alts2[0], GroupSupported)
        draws = alts2[0]
        assert draws.m * (64 // 4) * draws.magnitude ** 2 == pytest.approx(10.0)


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
        nulls = []

        def counting(model, theta, rng, sample=risk.sample):
            if theta is None:
                nulls.append(1)
            return sample(model, theta, rng)

        monkeypatch.setattr(risk, "sample", counting)
        plan = self._plan()
        run_sweep(plan)
        assert len(nulls) == len(plan.gamma_grid) * plan.n_reps

    def test_csv_identical_across_workers(self, sweep, tmp_path):
        rows2, _ = run_sweep(self._plan(workers=2))
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_rows_csv(sweep[0], p1)
        write_rows_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()
