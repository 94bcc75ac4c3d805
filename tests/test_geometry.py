"""Geometry of sparse signals: membership, projection bounds, omega."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdetect.errors import ContractError
from corrdetect.geometry import (
    SignalSpec,
    largest_subset_energy,
    make_sparse_signal,
    membership,
    omega,
    projection_lower_bounds,
    signal,
)


def brute_subset_energy(v, s):
    """Oracle: exhaustive max over subsets for tiny p."""
    from itertools import combinations
    p = len(v)
    best = 0.0
    for size in range(0, s + 1):
        for S in combinations(range(p), size):
            best = max(best, sum(v[i] ** 2 for i in S))
    return best


class TestMembership:
    def test_theta_basis_vector(self):
        eps = 0.9
        spec = make_sparse_signal(6, 1, eps)
        m = membership(spec, "theta", epsilon=eps)
        assert m.member and m.witness == pytest.approx(eps)

    def test_theta_i_rejects_constant_vector(self):
        spec = signal(2.5 * np.ones(8))
        for eps in [1e-9, 0.1, 1.0]:
            assert not membership(spec, "theta_i", epsilon=eps).member

    def test_upsilon_i_hand_value(self):
        # p=4, R=2, theta=(3,0,0,0): centered-on-support witness (3-1.5)^2.
        spec = signal(np.array([3.0, 0.0, 0.0, 0.0]))
        m = membership(spec, "upsilon_i", epsilon=1.0, R=2)
        assert m.witness == pytest.approx(2.25)
        assert m.member is (2.25 >= 1.0 / 8.0)
        eps_big = math.sqrt(8 * 2.25) + 1e-6
        assert not membership(spec, "upsilon_i", epsilon=eps_big, R=2).member

    def test_upsilon_ii_group_filter_is_strict(self):
        # p=8, R=2 -> heavy groups need > 1 support coordinate.
        theta = np.zeros(8)
        theta[0] = 5.0  # one hit in group 1: excluded by the strict filter
        m = membership(signal(theta), "upsilon_ii", epsilon=0.1, R=2)
        assert m.witness == 0.0 and not m.member
        theta[1] = 5.0  # two hits: included
        m2 = membership(signal(theta), "upsilon_ii", epsilon=0.1, R=2)
        assert m2.witness == pytest.approx(4 * 2.5 ** 2)
        assert m2.member

    def test_m_supp(self):
        spec = signal(np.array([3.0, 0.0, 0.0, 0.0]), s=1)
        m = membership(spec, "m_supp", epsilon=2.9)
        assert m.member and m.witness == pytest.approx(9.0)
        assert not membership(spec, "m_supp", epsilon=3.1).member

    def test_theta_dagger(self):
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        assert membership(signal(theta), "theta_dagger", epsilon=0.0, R=2).member
        # constant on every block: invisible to block centering
        block_constant = np.array([1.0, 1.0, 0.0, 0.0])
        assert not membership(signal(block_constant), "theta_dagger", epsilon=0.0, R=2).member
        # with a single global block the same vector is visible
        assert membership(signal(block_constant), "theta_dagger", epsilon=0.0, R=1).member

    def test_unknown_tag(self):
        with pytest.raises(ContractError):
            membership(signal(np.ones(4)), "nope", epsilon=1.0)

    def test_union_decomposition_small_grid(self):
        # Every s-sparse theta separated at exactly its own norm lands in
        # upsilon_i or upsilon_ii (energy split with an epsilon^2/8 floor).
        rng = np.random.default_rng(123)
        for p, R in [(8, 1), (8, 2), (16, 4), (64, 4)]:
            for _ in range(500):
                s = int(rng.integers(1, p + 1))
                spec = _random_sparse(rng, p, s)
                eps = math.sqrt(spec.norm_sq()) * (1 - 1e-9)
                in_i = membership(spec, "upsilon_i", epsilon=eps, R=R).member
                in_ii = membership(spec, "upsilon_ii", epsilon=eps, R=R).member
                assert in_i or in_ii


def _random_sparse(rng, p, s):
    idx = rng.choice(p, size=s, replace=False)
    theta = np.zeros(p)
    theta[idx] = rng.standard_normal(s)
    if not np.any(theta):
        theta[idx[0]] = 1.0
    return SignalSpec(theta=theta, s=s, support=idx)


class TestProjectionBounds:
    def test_single_spike_equality(self):
        c = 1.7
        spec = make_sparse_signal(4, 1, c)
        out = projection_lower_bounds(spec)
        assert out["orthogonal"] == pytest.approx(0.75 * c * c)
        assert out["bound_orthogonal"] == pytest.approx(0.75 * c * c)

    def test_constant_vector_zero(self):
        p = 6
        spec = signal(np.ones(p), s=p)
        out = projection_lower_bounds(spec)
        assert out["orthogonal"] == pytest.approx(0.0, abs=1e-12)
        assert out["bound_orthogonal"] == pytest.approx(0.0, abs=1e-12)

    def test_support_restricted_bound_random(self):
        rng = np.random.default_rng(7)
        p, s = 100, 5
        for _ in range(2000):
            spec = _random_sparse(rng, p, s)
            out = projection_lower_bounds(spec)
            floor = spec.norm_sq() * (p - 2 * s) / p
            assert out["support_restricted"] >= floor - 1e-9 * spec.norm_sq()
            assert out["orthogonal"] >= spec.norm_sq() * (p - s) / p - 1e-9 * spec.norm_sq()

    def test_general_pattern_bounds(self):
        rng = np.random.default_rng(8)
        p = 32
        v = rng.standard_normal(p)
        v *= math.sqrt(p / (v @ v))
        for _ in range(500):
            spec = _random_sparse(rng, p, 4)
            out = projection_lower_bounds(spec, v)
            scale = max(spec.norm_sq(), 1.0)
            assert out["orthogonal"] >= out["bound_orthogonal"] - 1e-9 * scale
            assert out["support_restricted"] >= out["bound_support"] - 1e-9 * scale

    def test_pythagorean_split(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            theta = rng.standard_normal(17)
            spec = signal(theta)
            mean = theta.mean()
            lhs = spec.norm_sq()
            rhs = float(((theta - mean) ** 2).sum()) + 17 * mean ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)


class TestOmega:
    def test_all_ones(self):
        assert omega(np.ones(100)) == 25

    def test_single_spike(self):
        v = np.zeros(16)
        v[0] = 4.0
        assert omega(v) == 0

    def test_heterogeneous_example(self):
        # p=16, first sqrt(p)=4 coordinates equal p^(1/4)=2: squares are
        # 4,4,4,4,0,... and the budget p/4=4 admits exactly one of them.
        v = np.zeros(16)
        v[:4] = 2.0
        assert omega(v) == 1

    def test_below_support_size(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.standard_normal(24)
            v *= math.sqrt(24 / (v @ v))
            assert omega(v) <= np.count_nonzero(v) - 1

    def test_normalization_contract(self):
        with pytest.raises(ContractError):
            omega(np.ones(10) * 2.0)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=30).filter(
        lambda xs: sum(x * x for x in xs) > 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_invariance_under_permutation_and_signs(self, xs):
        v = np.asarray(xs, dtype=float)
        p = v.shape[0]
        v = v * math.sqrt(p / float(v @ v))
        base = omega(v)
        rng = np.random.default_rng(0)
        perm = rng.permutation(p)
        signs = rng.choice([-1.0, 1.0], size=p)
        assert omega(v[perm] * signs) == base

    def test_subset_energy_greedy_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.standard_normal(7)
            s = int(rng.integers(0, 8))
            assert largest_subset_energy(v, s) == pytest.approx(brute_subset_energy(v, s))


class TestConstruction:
    def test_full_support_constant(self):
        c = 0.4
        spec = make_sparse_signal(4, 4, c)
        assert np.allclose(spec.theta, c)
        assert spec.norm_sq() == pytest.approx(4 * c * c)

    def test_first_rule(self):
        spec = make_sparse_signal(10, 3, 2.0)
        assert np.array_equal(np.flatnonzero(spec.theta), [0, 1, 2])
        assert np.count_nonzero(spec.theta) == 3

    def test_oversized_explicit_support_rejected(self):
        with pytest.raises(ContractError):
            SignalSpec(theta=np.zeros(10), s=2, support=[1, 2, 3])

    @pytest.mark.parametrize("support", [[2, 2], [12], [-1]])
    def test_repeated_or_out_of_range_support_rejected(self, support):
        with pytest.raises(ContractError):
            SignalSpec(theta=np.zeros(10), s=2, support=support)

    def test_spec_invariants_enforced(self):
        with pytest.raises(ContractError):
            SignalSpec(theta=np.array([1.0, 1.0]), s=1, support=np.array([0]))
