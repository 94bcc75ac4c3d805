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
        theta = np.asarray(self.theta, dtype=float)
        support = np.sort(np.asarray(self.support, dtype=np.intp))
        if support.size and (support[0] < 0 or support[-1] >= theta.shape[0]
                             or (support[1:] == support[:-1]).any()):
            raise ContractError("support coordinates must be distinct and in range(p)")
        if np.count_nonzero(theta[support]) != np.count_nonzero(theta):
            raise ContractError("theta must vanish off the declared support")
        if support.size > self.s:
            raise ContractError("support size exceeds the declared sparsity s")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "support", support)

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
    theta = np.asarray(theta, dtype=float)
    support = np.flatnonzero(theta)
    return SignalSpec(theta=theta, s=support.size if s is None else s, support=support)


def make_sparse_signal(p: int, s: int, magnitude: float) -> SignalSpec:
    """Exactly s-sparse vector: +magnitude on coordinates 0..s-1.  A uniform
    or sign-matched support is a draw of ``divergences.UniformSparse``; an
    explicit one, a :class:`SignalSpec`."""
    if not (1 <= s <= p):
        raise ContractError("need 1 <= s <= p")
    if magnitude < 0:
        raise ContractError("magnitude must be nonnegative")
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
        raise ContractError(f"unknown space tag {space!r}")
    theta = spec.theta
    p = spec.p
    sparsity_ok = int(np.count_nonzero(theta)) <= spec.s
    if space in ("theta", "theta_i", "theta_ii"):
        mean = theta.mean()
        if space == "theta":
            witness = math.sqrt(float(theta @ theta))
        elif space == "theta_i":
            centered = theta - mean
            witness = math.sqrt(float(centered @ centered))
        else:
            witness = math.sqrt(p) * abs(mean)
        threshold = epsilon
        member = sparsity_ok and witness >= threshold
        return SpaceMembership(space, member, witness, threshold, sparsity_ok)
    if space == "m_supp":
        witness = largest_subset_energy(theta, spec.s)
        threshold = epsilon ** 2
        member = witness >= threshold
        return SpaceMembership(space, member, witness, threshold, sparsity_ok)
    if R is None:
        raise ContractError(f"space {space!r} needs the group count R")
    if p % R != 0:
        raise ContractError("R must divide p")
    bs = p // R
    blocks = theta.reshape(R, bs)
    means = blocks.mean(axis=1)
    hits = np.count_nonzero(blocks, axis=1)
    if space == "upsilon_i":
        # Center only on support coordinates within each block.
        support_mask = (blocks != 0.0)
        centered = np.where(support_mask, blocks - means[:, None], blocks)
        witness = float(np.square(centered).sum())
        threshold = epsilon ** 2 / 8.0
        member = sparsity_ok and witness >= threshold
        return SpaceMembership(space, member, witness, threshold, sparsity_ok)
    if space == "upsilon_ii":
        heavy = hits > p / (4.0 * R)  # strict inequality
        witness = float(bs * np.square(means[heavy]).sum())
        threshold = epsilon ** 2 / 8.0
        member = sparsity_ok and witness >= threshold
        return SpaceMembership(space, member, witness, threshold, sparsity_ok)
    # theta_dagger: nonzero theta whose block-centered part is nonzero somewhere
    centered = blocks - means[:, None]
    witness = float(np.square(centered).sum())
    member = sparsity_ok and np.any(theta != 0.0) and witness > 0.0
    return SpaceMembership(space, member, witness, 0.0, sparsity_ok)


def largest_subset_energy(v, s: int) -> float:
    """max over |S| <= s of ||v_S||^2, attained by the s largest squares."""
    sq = np.sort(np.square(np.asarray(v, dtype=float)))[::-1]
    return float(sq[: int(s)].sum())


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
    if v is None:
        v = np.ones(p)
    else:
        v = np.asarray(v, dtype=float)
        nsq = float(v @ v)
        if abs(nsq - p) > 1e-9 * p:
            raise ContractError("pattern must satisfy ||v||^2 = p")
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
    v = np.asarray(v, dtype=float)
    p = v.shape[0]
    nsq = float(v @ v)
    if not abs(nsq - p) <= 1e-9 * p:  # a NaN entry fails this too
        raise ContractError("omega requires ||v||^2 = p")
    sq = np.sort(np.square(v))[::-1]
    prefix = np.cumsum(sq)
    return int(np.searchsorted(prefix, p / 4.0, side="right"))
