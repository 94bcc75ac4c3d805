"""Sparse-signal geometry: parameter spaces, constructors, projection bounds.

The detection problem separates alternatives from the null in Euclidean norm
subject to a sparsity budget.  The spaces here classify where a signal's
energy lives after projecting out the correlated direction(s): the component
orthogonal to the all-ones vector (or to a pattern v), block-centered
components, and group means over heavily hit groups.

Two elementary facts drive everything, both consequences of Cauchy-Schwarz
applied to an s-sparse vector against a pattern with ||v||^2 = p:

    ||theta - <v,theta> v / p||^2        >= ||theta||^2 (p -   M) / p,
    ||theta - <v,theta> v_supp / p||^2   >= ||theta||^2 (p - 2 M) / p,

where M = max_{|S| <= s} ||v_S||^2 is attained greedily by the s largest
squared coordinates of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .models import (_check_coordinates, _check_count, _check_pattern, _check_real,
                     _check_split, _real, _store, _vector)

__all__ = [
    "SignalSpec",
    "SpaceMembership",
    "signal",
    "make_sparse_signal",
    "membership",
    "projection_lower_bounds",
    "largest_subset_energy",
    "omega",
    "SPACES",
]

SPACES = ("theta", "theta_i", "theta_ii", "upsilon_i", "upsilon_ii", "m_supp", "theta_dagger")


@dataclass(frozen=True, eq=False)
class SignalSpec:
    """A mean vector with declared sparsity budget and support."""

    theta: np.ndarray
    s: int
    support: np.ndarray

    def __post_init__(self):
        theta = _vector(self.theta, "theta")
        with np.errstate(over="ignore"):
            if not math.isfinite(theta @ theta):  # NaN, or past the float range
                raise ContractError("theta must have a finite squared norm", argument="theta")
        support = _check_coordinates(self.support, theta.shape[0], "support")
        if (support[1:] == support[:-1]).any():
            raise ContractError("support coordinates must be distinct", argument="support")
        if np.count_nonzero(theta[support]) != np.count_nonzero(theta):
            raise ContractError("theta must vanish off the declared support", argument="theta")
        _store(self, theta=theta, support=support,
               s=_check_count(self.s, "s", support.size, theta.size))

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    def norm_sq(self) -> float:
        return float(self.theta @ self.theta)

    def descriptor(self) -> dict:
        return {"kind": "signal", "p": self.p, "s": self.s,
                "support": self.support.tolist(),
                "values": self.theta[self.support].tolist()}


def signal(theta, s: Optional[int] = None) -> SignalSpec:
    """Wrap a raw vector, deriving support and (by default) exact sparsity."""
    theta = _real(theta, "theta")
    support = np.flatnonzero(theta)
    return SignalSpec(theta=theta, s=support.size if s is None else s, support=support)


def make_sparse_signal(p: int, s: int, magnitude: float) -> SignalSpec:
    """Exactly s-sparse vector: +magnitude on coordinates 0..s-1.  A uniform
    or sign-matched support is a draw of ``divergences.UniformSparse``; an
    explicit one, a :class:`SignalSpec`."""
    p = _check_count(p, "p", 1)
    s = _check_count(s, "s", 1, p)
    if _check_real(magnitude, "magnitude") < 0.0:
        raise ContractError(f"magnitude must be >= 0, got {magnitude!r}", argument="magnitude")
    theta = np.zeros(p)
    theta[:s] = magnitude
    return SignalSpec(theta=theta, s=s, support=np.arange(s))


@dataclass(frozen=True)
class SpaceMembership:
    """Verdict of a parameter-space membership query.

    ``witness`` is the space's defining functional; ``threshold`` what it is
    compared against (member iff witness >= threshold, and the sparsity
    budget holds).  Norm-separated spaces (theta, theta_i, theta_ii) use the
    norm itself against epsilon; the grouped upsilon spaces use squared sums
    against epsilon^2/8; m_supp uses the best s-subset energy against
    epsilon^2; theta_dagger uses the block-centered energy against 0.
    """

    space: str
    member: bool
    witness: float
    threshold: float
    sparsity_ok: bool


def membership(spec: SignalSpec, space: str, epsilon: float,
               R: Optional[int] = None) -> SpaceMembership:
    """Membership of ``spec`` in a parameter space at separation ``epsilon``.

    Grouped spaces (upsilon_i, upsilon_ii, theta_dagger) use contiguous
    blocks of size p/R; the group layout is immaterial up to permutation.
    """
    if space not in SPACES:
        raise ContractError(f"unknown space tag {space!r}", argument="space")
    epsilon = _check_real(epsilon, "epsilon")
    theta, p = spec.theta, spec.p
    sparsity_ok = int(np.count_nonzero(theta)) <= spec.s
    if space in ("upsilon_i", "upsilon_ii", "theta_dagger"):
        R = _check_split(p, R)[1]  # refuses a missing R too
        blocks = theta.reshape(R, p // R)
        means = blocks.mean(axis=1)
        centered = blocks - means[:, None]
    threshold = epsilon
    if space == "theta":
        witness = math.sqrt(float(theta @ theta))
    elif space == "theta_i":
        centered = theta - theta.mean()
        witness = math.sqrt(float(centered @ centered))
    elif space == "theta_ii":
        witness = math.sqrt(p) * abs(theta.mean())
    elif space == "m_supp":  # its witness keeps to the budget s on its own
        witness, threshold = largest_subset_energy(theta, spec.s), epsilon * epsilon
        return SpaceMembership(space, witness >= threshold, witness, threshold, sparsity_ok)
    elif space == "upsilon_i":  # centered on the support coordinates only
        witness = float(np.square(np.where(blocks != 0.0, centered, blocks)).sum())
        threshold = epsilon * epsilon / 8.0
    elif space == "upsilon_ii":
        heavy = np.count_nonzero(blocks, axis=1) > p / (4.0 * R)  # strict inequality
        witness = float(p // R * np.square(means[heavy]).sum())
        threshold = epsilon * epsilon / 8.0
    else:  # theta_dagger: a nonzero block-centered part, so a nonzero theta
        witness = float(np.square(centered).sum())
        return SpaceMembership(space, sparsity_ok and witness > 0.0, witness, 0.0, sparsity_ok)
    return SpaceMembership(space, sparsity_ok and witness >= threshold, witness, threshold,
                           sparsity_ok)


@np.errstate(over="ignore")  # +inf past the float range
def largest_subset_energy(v, s: int) -> float:
    """max over |S| <= s of ||v_S||^2, attained by the s largest squares."""
    sq = np.sort(np.square(_vector(v, "v")))[::-1]
    return float(sq[:_check_count(s, "s", 0)].sum())


def projection_lower_bounds(spec: SignalSpec, v=None) -> dict:
    """Achieved projection residuals and their sparsity lower bounds.

    Returns the squared norms of theta minus its v-projection (orthogonal)
    and of theta minus the v-projection restricted to supp(theta)
    (support_restricted), together with the guaranteed lower bounds
    ||theta||^2 (p - M)/p and ||theta||^2 (p - 2M)/p, M = best s-subset
    energy of v.  Achieved >= bound always; bounds may be negative.
    """
    theta = spec.theta
    p = spec.p
    v = np.ones(p) if v is None else _check_pattern(v, p)
    coef = float(v @ theta) / p
    resid = theta - coef * v
    orthogonal = float(resid @ resid)
    restricted = theta.copy()
    restricted[spec.support] -= coef * v[spec.support]
    support_restricted = float(restricted @ restricted)
    m = largest_subset_energy(v, spec.s)
    nsq_theta = float(theta @ theta)
    return {
        "orthogonal": orthogonal,
        "support_restricted": support_restricted,
        "bound_orthogonal": nsq_theta * (p - m) / p,
        "bound_support": nsq_theta * (p - 2.0 * m) / p,
        "subset_energy": m,
    }


def omega(v) -> int:
    """Largest s such that the s largest squared coordinates of v sum to <= p/4.

    Requires ||v||^2 = p; consequently always strictly less than ||v||_0.
    """
    v = _vector(v, "v")
    prefix = np.cumsum(np.sort(np.square(_check_pattern(v, v.size)))[::-1])
    return int(np.searchsorted(prefix, v.size / 4.0, side="right"))
