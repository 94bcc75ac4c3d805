"""Least-favorable priors and the divergence calculus behind lower bounds.

For a prior pi over alternatives, the chi-square divergence of the induced
Gaussian mixture from the null satisfies (with equality for these Gaussian
location mixtures)

    chi2(P_pi || P_0) <= E exp(<theta, Sigma^-1 theta~>) - 1,

the expectation over an iid pair from the prior.  We compute the right-hand
side and call it the IS-value, after the Ingster-Suslina method.  Together
with d_TV <= sqrt(chi2)/2, any test's total risk is at least 1 - sqrt(chi2)/2.

Routes are chosen from what the prior and the model are, not from their
classes: each sparse prior owns its support law (see :class:`_SparsePrior`),
and the model gives its block count, exchangeable blocks and block sums.
The exact routes:

* point masses: a single quadratic form, also at gamma = 1 for a mass in the
  span of the correlation directions (the closed form's continuous limit);
* a prior with an :class:`OverlapLaw` under the model (uniform supports
  under a single-block model that weighs the universe alike; one group or
  whole groups under an exchangeable model whose R blocks are those groups):
  a hypergeometric sum over the overlap;
* otherwise: exact enumeration of support pairs, or Monte Carlo over prior
  pairs, which hold for every model.

Every route refuses a prior of another dimension than the model.  At
gamma = 1 only point masses in the span and whole-group supports are finite;
every other prior is refused, whatever the method.  Overlap sums and both
enumeration routes end in one log-sum-exp, :func:`_log_sum_exp`.

Monte Carlo forms each pair term from the two supports alone
(:func:`_pair_terms`), from one batched ``supports`` call of the prior per
block of pairs, with no (2n, p) array (:func:`_monte_carlo_chisq`).  Every
sum is a plain numpy reduction, so the estimate does not depend on the BLAS
thread count.  A batched draw takes its subsets by Floyd's algorithm (see
:func:`_subsets`), so it consumes the stream differently from single draws,
which are what the risk engine uses.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ContractError, DomainError, SingularCovarianceError
from .models import (
    _BLOCK_ELEMENTS,
    CorrelationModel,
    Equicorrelated,
    _check_coordinates,
    _check_count,
    _check_real,
    _check_split,
    _precision_weights,
    _store,
    _vector,
    precision_apply,
)

__all__ = [
    "PointMass",
    "UniformSparse",
    "SingleGroupSparse",
    "GroupSupported",
    "ShiftedSparse",
    "PriorSpec",
    "METHODS",
    "SIGN_RULES",
    "draw",
    "DivergenceResult",
    "ingster_suslina_chisq",
    "hypergeometric_mgf_bound",
    "hypergeometric_logpmf",
    "mean_shift_tv",
    "risk_lower_bound",
]

ENUMERATION_PAIR_BUDGET = 1_000_000
METHODS = ("auto", "closed_form", "hypergeometric_sum", "exact_enumeration", "monte_carlo")
SIGN_RULES = ("plus", "match_pattern", "rademacher")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


def _expm1(x: float) -> float:
    """exp(x) - 1, and +inf past the float range, as the log-sum-exp routes
    give, where math.expm1 raises OverflowError."""
    return math.expm1(x) if x < _LOG_FLOAT_MAX else math.inf


def _sha256(a: np.ndarray, dtype: str) -> str:
    """Hex sha256 of the entries of ``a`` as ``dtype`` bytes: a descriptor
    field that tells apart arrays a summary of them (a norm, a size) does not."""
    return hashlib.sha256(np.asarray(a, dtype=dtype).tobytes()).hexdigest()


def _square(x: float) -> float:
    """x ** 2, and +inf past the float range, where a float power raises
    OverflowError."""
    return x ** 2 if abs(x) < _SQRT_FLOAT_MAX else math.inf


class OverlapLaw(NamedTuple):
    """Pair terms ``lam * k + const`` of two supports that share k entries,
    each a uniform ``draws``-subset of ``population``, inside one of
    ``groups`` equally likely groups (pairs across groups: a zero term)."""

    population: int
    draws: int
    lam: float
    const: float
    groups: int = 1

    def mean_exp(self) -> float:
        """E exp(lam k + const) over the hypergeometric overlap k; +inf when
        lam or const (which carry the squared magnitude) leaves the float
        range, as the exponent at the largest overlap is positive."""
        if not (math.isfinite(self.lam) and math.isfinite(self.const)):
            return math.inf
        ks, logpmf = hypergeometric_logpmf(self.population, self.draws, self.draws)
        return float(np.exp(_log_sum_exp(logpmf + self.lam * ks + self.const)))

    def chi_sq(self) -> float:
        """E exp(pair term) - 1 over independent pairs of draws."""
        return (1.0 - 1.0 / self.groups) + self.mean_exp() / self.groups - 1.0


@dataclass(frozen=True, eq=False)
class PointMass:
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _vector(self.theta, "theta"))
        if not np.isfinite(self.theta).all():
            raise ContractError("point mass entries must be finite")

    @property
    def p(self) -> int:
        return self.theta.shape[-1]

    def supports(self, rng, v=None, size=None) -> tuple:
        shape = (self.p,) if size is None else (size, self.p)
        return np.broadcast_to(np.arange(self.p), shape), np.broadcast_to(self.theta, shape)

    @np.errstate(over="ignore")  # +inf past the float range
    def descriptor(self) -> dict:
        return {"prior": "point_mass", "norm_sq": float(self.theta @ self.theta),
                "theta_sha256": _sha256(self.theta, "<f8")}


class _SparsePrior:
    """A prior uniform over its supports, which owns its support law:
    ``supports(rng, v, size)`` draws ``(idx, values)``, ``idx`` (n,) for one
    draw (``size`` None) or (size, n) for ``size`` draws, n distinct
    coordinates each (a point mass answers it too, with n = p), and
    ``values`` an array of that shape or a scalar that broadcasts against it;
    ``support_rows(limit, v)`` lists every support and its values in
    ``itertools.combinations`` order, or None past ``limit`` supports or for
    drawn (Rademacher) signs;
    ``overlap_law(model, v)`` is its :class:`OverlapLaw`, or None (at gamma =
    1, None unless it stays finite); ``first_support_terms(model, limit)``,
    when a pair term depends only on the overlap k with the first support,
    one term per k and the number of supports at k, or None."""

    @property
    def support_size(self) -> int:
        return self.s

    def _values(self, idx: np.ndarray, v):
        return self.magnitude

    def support_rows(self, limit: int, v=None) -> Optional[tuple]:
        idx = self._rows(limit)
        return None if idx is None else (idx, self._values(idx, v))

    def first_support_terms(self, model, limit: int) -> Optional[tuple]:
        return None


@dataclass(frozen=True, eq=False)
class UniformSparse(_SparsePrior):
    """Uniform size-s support, common magnitude; optional sign rule and
    support universe restriction.

    signs "plus": all entries +magnitude; "match_pattern": the sign of a
    pattern v per coordinate; "rademacher": independent random signs (the
    sign-symmetric variant, wiping out the mean component of every draw).
    """

    p: int
    s: int
    magnitude: float
    signs: str = "plus"  # "plus" | "match_pattern" | "rademacher"
    universe: Optional[np.ndarray] = None

    def __post_init__(self):
        p = _check_count(self.p, "p", 1)
        _store(self, p=p, s=_check_count(self.s, "s", 1, p),
               magnitude=_check_real(self.magnitude, "magnitude"))
        if self.signs not in SIGN_RULES:
            raise ContractError(f"unknown sign rule {self.signs!r}; expected one of "
                                f"{', '.join(SIGN_RULES)}", argument="signs")
        if self.universe is not None:
            # repeats dropped: np.unique's result, without loading numpy.ma
            uni = _check_coordinates(self.universe, p, "universe")
            uni = uni[np.diff(uni, prepend=uni[:1] - 1) != 0]
            if uni.size < self.s:
                raise ContractError(f"universe must hold at least s={self.s} coordinates",
                                    argument="universe")
            object.__setattr__(self, "universe", uni)

    @property
    def population(self) -> int:
        return self.p if self.universe is None else int(self.universe.size)

    def _values(self, idx: np.ndarray, v):
        """The magnitude at the coordinates ``idx``, signed as the pattern
        ``v`` for sign matching (a scalar for plus signs)."""
        if self.signs != "match_pattern":
            return self.magnitude
        if v is None:
            raise ContractError("sign matching needs the pattern v")
        return self.magnitude * np.where(np.asarray(v, dtype=float)[idx] < 0, -1.0, 1.0)

    def supports(self, rng, v=None, size=None) -> tuple:
        idx = _subsets(rng, self.population, self.s, size)
        if self.universe is not None:
            idx = self.universe[idx]
        if self.signs == "rademacher":
            return idx, self.magnitude * rng.choice([-1.0, 1.0], size=idx.shape)
        return idx, self._values(idx, v)

    def _rows(self, limit: int) -> Optional[np.ndarray]:
        # sign configurations are not enumerated
        if self.signs == "rademacher" or math.comb(self.population, self.s) > limit:
            return None
        pool = range(self.p) if self.universe is None else self.universe  # sorted
        return np.fromiter(combinations(pool, self.s), dtype=(np.intp, self.s))

    def overlap_law(self, model, v=None) -> Optional[OverlapLaw]:
        # A pair term is a^2 k / (1 - gamma) - c P(theta) P(theta~) at overlap
        # k for plus or sign-matched draws (see _pair_terms).  With one block,
        # P(theta) sums w_i, the loading times the draw's value, over the
        # support: s w for every support when all the universe has one w.
        if self.signs == "rademacher" or model.R != 1 or model.gamma >= 1.0:
            return None
        uni = np.arange(self.p) if self.universe is None else self.universe
        values = np.full(uni.shape, self._values(uni, v))
        w = model.project_support(uni[:, None], values[:, None])[:, 0]
        if (w != w[0]).any():
            return None
        one_minus, coef = _precision_weights(model)
        a = self.magnitude
        return OverlapLaw(self.population, self.s, a * a / one_minus,
                          -coef * _square(self.s * float(w[0])))

    def first_support_terms(self, model, limit: int) -> Optional[tuple]:
        # The precision of one exchangeable block maps the first support's
        # vector to one value on that support and one off it, so with plus
        # signs a pair term depends only on the overlap k with the first support.
        N, s = self.population, self.s
        n = math.comb(N, s)
        if self.signs != "plus" or not (model.exchangeable and model.R == 1) or n > limit:
            return None
        first = np.zeros(self.p, dtype=bool)
        first[(np.arange(self.p) if self.universe is None else self.universe)[:s]] = True
        w = precision_apply(model, self.magnitude * first)
        # at s = p no coordinate is off the support, and every overlap is s
        off = w[~first][0] if s < self.p else 0.0
        ks = np.arange(s + 1)
        # C(s, k) C(N - s, s - k) of the C(N, s) supports share k entries with it
        counts = np.array([math.comb(s, k) * math.comb(N - s, s - k) for k in ks], dtype=float)
        return self.magnitude * (ks * w[first][0] + (s - ks) * off), counts, n

    def descriptor(self) -> dict:
        d = {"prior": "uniform_sparse", "p": self.p, "s": self.s,
             "magnitude": self.magnitude, "signs": self.signs}
        if self.universe is not None:
            d["universe_size"] = int(self.universe.size)
            d["universe_sha256"] = _sha256(self.universe, "<i8")  # sorted
        return d


def _whole_groups(prior, model: CorrelationModel) -> bool:
    """Whether the prior's R groups of p/R consecutive coordinates are the
    exchangeable blocks of the model: both split p into R consecutive runs."""
    return model.exchangeable and model.R == prior.R


@dataclass(frozen=True, eq=False)
class SingleGroupSparse(_SparsePrior):
    """Uniformly chosen group, then a uniform size-s support inside it."""

    p: int
    R: int
    s: int
    magnitude: float

    def __post_init__(self):
        p, R = _check_split(self.p, self.R)
        _store(self, p=p, R=R, s=_check_count(self.s, "s", 1, p // R),
               magnitude=_check_real(self.magnitude, "magnitude"))

    def supports(self, rng, v=None, size=None) -> tuple:
        bs = self.p // self.R
        k = rng.integers(self.R, size=size)
        return np.asarray(k)[..., None] * bs + _subsets(rng, bs, self.s, size), self.magnitude

    def _rows(self, limit: int) -> Optional[np.ndarray]:
        bs = self.p // self.R
        if self.R * math.comb(bs, self.s) > limit:
            return None
        combos = np.fromiter(combinations(range(bs), self.s), dtype=(np.intp, self.s))
        rows = np.arange(self.R)[:, None, None] * bs + combos
        return rows.reshape(-1, self.s)  # group by group

    def overlap_law(self, model, v=None) -> Optional[OverlapLaw]:
        # a pair in one group is a uniform pair inside a block of the model
        if model.gamma >= 1.0 or not _whole_groups(self, model):
            return None
        one_minus, coef = _precision_weights(model)
        a = self.magnitude
        return OverlapLaw(model.block_size, self.s, a * a / one_minus,
                          -coef * _square(a * self.s), groups=self.R)

    def descriptor(self) -> dict:
        return {"prior": "single_group_sparse", "p": self.p, "R": self.R,
                "s": self.s, "magnitude": self.magnitude}


@dataclass(frozen=True, eq=False)
class GroupSupported(_SparsePrior):
    """m whole groups chosen uniformly, constant magnitude on each."""

    p: int
    R: int
    m: int
    magnitude: float

    def __post_init__(self):
        p, R = _check_split(self.p, self.R)
        _store(self, p=p, R=R, m=_check_count(self.m, "m", 1, R),
               magnitude=_check_real(self.magnitude, "magnitude"))

    @property
    def support_size(self) -> int:
        return self.m * (self.p // self.R)

    def _spread(self, groups: np.ndarray) -> np.ndarray:
        bs = self.p // self.R
        return (groups[..., None] * bs + np.arange(bs)).reshape(
            groups.shape[:-1] + (self.m * bs,))

    def supports(self, rng, v=None, size=None) -> tuple:
        return self._spread(_subsets(rng, self.R, self.m, size)), self.magnitude

    def _rows(self, limit: int) -> Optional[np.ndarray]:
        if math.comb(self.R, self.m) > limit:
            return None
        return self._spread(np.fromiter(combinations(range(self.R), self.m),
                                        dtype=(np.intp, self.m)))

    def overlap_law(self, model, v=None) -> Optional[OverlapLaw]:
        # whole-group blocks: the centered part vanishes, only group means
        # contribute: <1_B, Sigma^-1 1_B'> = bs / (1-g+g bs) per shared group,
        # which is 1 at gamma = 1 (whole groups live in the span)
        if not _whole_groups(self, model):
            return None
        g, bs, a = model.gamma, model.block_size, self.magnitude
        return OverlapLaw(model.R, self.m, a * a * bs / (1.0 - g + g * bs), 0.0)

    def descriptor(self) -> dict:
        return {"prior": "group_supported", "p": self.p, "R": self.R,
                "m": self.m, "magnitude": self.magnitude}


@dataclass(frozen=True, eq=False)
class ShiftedSparse:
    """Mean-shifted route: uniform s-sparse prior at magnitude b together
    with the constant shift b*1_p.

    Testing the shifted pair reduces to detecting the complementary
    (p-s)-sparse support, so the risk bound combines the total-variation
    cost of the shift with the complement prior's divergence.
    """

    p: int
    s: int
    magnitude: float

    def __post_init__(self):
        p = _check_count(self.p, "p", 1)
        _store(self, p=p, s=_check_count(self.s, "s", 1, p - 1),  # the complement is not empty
               magnitude=_check_real(self.magnitude, "magnitude"))

    @property
    def complement(self) -> UniformSparse:
        return UniformSparse(self.p, self.p - self.s, self.magnitude)

    def supports(self, rng, v=None, size=None):
        raise ContractError("shifted priors have no single draw; use risk_lower_bound")

    def descriptor(self) -> dict:
        return {"prior": "shifted_sparse", "p": self.p, "s": self.s,
                "magnitude": self.magnitude}


PriorSpec = Union[PointMass, UniformSparse, SingleGroupSparse, GroupSupported,
                  ShiftedSparse]


def _subsets(rng: np.random.Generator, population: int, k: int,
             size: Optional[int]) -> np.ndarray:
    """Uniform k-subsets of range(population).

    One subset (``size`` None) comes from ``rng.choice`` without replacement.
    ``size`` subsets, one per row, come from Floyd's algorithm run on every
    row at once: one draw t_i uniform on [0, j_i] per column, j_i = N - k + i
    for N = ``population``, then column i keeps t_i unless the row already
    holds it, and j_i otherwise.  Each step leaves a uniform subset of
    range(j_i + 1), so every row is an exactly uniform k-subset (its entries
    are not in a uniform order).
    """
    if size is None:
        return rng.choice(population, size=k, replace=False)
    js = np.arange(population - k, population)
    steps = rng.integers(0, js + 1, size=(size, k)).T.copy()  # a row per step
    for i in range(1, k):
        np.copyto(steps[i], js[i], where=np.logical_or.reduce(steps[:i] == steps[i], axis=0))
    return steps.T


def draw(prior: PriorSpec, rng: np.random.Generator, v=None,
         size: Optional[int] = None) -> np.ndarray:
    """Signal vector(s) distributed according to the prior: the draws of
    its ``supports``, written into zeros.

    With ``size`` given, returns ``size`` independent draws as rows of a
    (size, p) array.  Single draws (``size`` None) and batches take their
    subsets by different rules (see :func:`_subsets`), so a batch of one does
    not reproduce a single draw from the same stream.  Shifted priors, which
    only :func:`risk_lower_bound` consumes, are refused.
    """
    if size is not None:
        size = _check_count(size, "size", 0)
    idx, values = prior.supports(rng, v, size)
    theta = np.zeros(idx.shape[:-1] + (prior.p,))
    if size is None:
        theta[idx] = values
    else:
        np.put_along_axis(theta, idx, values, axis=-1)
    return theta


@dataclass(frozen=True)
class DivergenceResult:
    """IS-value of the chi-square divergence with its induced bounds.

    tv_bound = sqrt(chi_sq)/2 and risk_bound = max(0, 1 - tv_bound); any
    test's type I + worst type II is at least risk_bound.
    """

    chi_sq: float
    method: str
    stderr: Optional[float] = None
    warnings: tuple = ()

    @property
    def tv_bound(self) -> float:
        return 0.5 * math.sqrt(max(self.chi_sq, 0.0))

    @property
    def risk_bound(self) -> float:
        return min(1.0, max(0.0, 1.0 - self.tv_bound))

    def descriptor(self) -> dict:
        return {"chi_sq": self.chi_sq, "method": self.method,
                "tv_bound": self.tv_bound, "risk_bound": self.risk_bound,
                "stderr": self.stderr, "warnings": list(self.warnings)}


# ---------------------------------------------------------------------------
# hypergeometric machinery


def _log_sum_exp(a: np.ndarray, b: Optional[np.ndarray] = None) -> float:
    """log(sum(b * exp(a))) over every entry of ``a``, shifted by its maximum.

    The one log-sum-exp of the exact routes: ``scipy.special.logsumexp``
    without its array-API dispatch, which costs more than the sum at these
    sizes.  Like scipy, it sums the entries at the maximum apart (their total
    weight m) and takes log1p of the rest over m, so it rounds as scipy does;
    the result is +inf when the maximum is +inf and -inf when every entry is
    -inf.  ``b`` holds positive weights shaped like ``a``.
    """
    top = a.max()
    if not math.isfinite(top):
        return float(top)
    terms = np.exp(a - top)
    if b is not None:
        terms *= b
    at_top = a == top
    m = np.add.reduce(terms[at_top])
    terms[at_top] = 0.0
    return float(np.log1p(np.add.reduce(terms, axis=None) / m) + np.log(m) + top)


def hypergeometric_logpmf(population: int, draw1: int, draw2: int) -> tuple:
    """Support and log-pmf of the overlap of two uniform subsets.

    |S| = draw1 and |S~| = draw2 drawn uniformly from a population; the
    overlap count k ranges over [max(0, d1+d2-population), min(d1, d2)].
    The log-pmf is the normalized running sum of log(pmf(k+1)/pmf(k)), so no
    term near log(population!) forms and cancels.
    """
    population = _check_count(population, "population", 0)
    draw1 = _check_count(draw1, "draw1", 0, population)
    draw2 = _check_count(draw2, "draw2", 0, population)
    lo = max(0, draw1 + draw2 - population)
    hi = min(draw1, draw2)
    ks = np.arange(lo, hi + 1)
    k = ks[:-1].astype(float)
    log_ratios = (np.log((draw1 - k) * (draw2 - k))
                  - np.log((k + 1.0) * (population - draw1 - draw2 + k + 1.0)))
    log_weights = np.concatenate(([0.0], np.cumsum(log_ratios)))
    return ks, log_weights - _log_sum_exp(log_weights)


@np.errstate(over="ignore")  # +inf past the float range
def hypergeometric_mgf_bound(p: int, s: int, lam_sq: float) -> dict:
    """Exact MGF of the support overlap and its closed-form majorant.

    For Y the overlap of two uniform size-s subsets of [p]:
    E[Y] = s^2/p and E[exp(lam_sq Y)] <= (1 - s/p + (s/p) e^{lam_sq})^s.
    Both are +inf past the float range.
    """
    p = _check_count(p, "p", 1)
    s = _check_count(s, "s", 0, p)
    if not lam_sq >= 0:
        raise DomainError(f"lam_sq must be nonnegative, got {lam_sq!r}")
    if s == 0:
        return {"exact": 1.0, "bound": 1.0, "mean": 0.0}
    return {"exact": OverlapLaw(p, s, lam_sq, 0.0).mean_exp(),
            "bound": _mgf_majorant(s / p, s, lam_sq), "mean": s * s / p}


def _mgf_majorant(q: float, s: int, lam_sq: float) -> float:
    """(1 - q + q e^lam_sq)^s for 0 < q <= 1, and +inf past the float range."""
    if lam_sq < _LOG_FLOAT_MAX:
        try:
            return (1.0 - q + q * math.exp(lam_sq)) ** s
        except OverflowError:
            return math.inf
    # e^lam_sq overflows: take the log of the base about its top term q e^lam_sq
    log_power = s * (lam_sq + math.log(q) + math.log1p((1.0 - q) / q * math.exp(-lam_sq)))
    return math.exp(log_power) if log_power < _LOG_FLOAT_MAX else math.inf


# ---------------------------------------------------------------------------
# quadratic forms


def _span_quadratic(model: CorrelationModel, theta: np.ndarray) -> float:
    """<theta, Sigma^-1 theta>, extended continuously to gamma = 1 for
    vectors in the span of the correlation direction(s)."""
    if model.gamma < 1.0:
        return float(theta @ precision_apply(model, theta))
    # gamma = 1: only the block projections survive.  A block's reduced
    # statistic has mean c = <loadings, block> / block_size and unit variance,
    # so the quadratic is sum_k c_k^2; the vector must lie in the span (a zero
    # residual) for the divergence to be finite.
    blocks = model.block_view(theta)
    c = model.project(blocks) / model.block_size
    residual = blocks - model.lift(c)
    energy = float(theta @ theta)
    if np.abs(residual).max(initial=0.0) ** 2 > 1e-9 * (1.0 + energy + energy):
        raise SingularCovarianceError(
            "gamma = 1 divergence is finite only for priors supported in the "
            "span of the correlation direction(s)")
    return float(np.add.reduce(c * c))


@np.errstate(over="ignore")
def ingster_suslina_chisq(prior: PriorSpec, model: CorrelationModel,
                          method: str = "auto", n_mc: int = 200_000,
                          rng: Optional[np.random.Generator] = None,
                          v=None) -> DivergenceResult:
    """IS-value of chi2(P_prior || P_0) by the requested route.

    method: "auto", "closed_form" (point masses), "hypergeometric_sum",
    "exact_enumeration", or "monte_carlo" (:data:`METHODS`); any other
    name is refused before a route runs.  Past the float range every route
    gives +inf, with no overflow warning.
    """
    if method not in METHODS:
        raise ContractError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    if prior.p != model.p:
        raise ContractError("prior and model dimensions differ")
    if isinstance(prior, ShiftedSparse):
        raise ContractError("shifted priors are consumed by risk_lower_bound")
    if isinstance(prior, PointMass):
        q = _span_quadratic(model, prior.theta)
        return DivergenceResult(_expm1(q), "closed_form")
    if method == "closed_form":
        raise ContractError("closed_form applies to point masses only")
    if model.gamma >= 1.0 and prior.overlap_law(model, v) is None:
        # a law at gamma = 1 stays finite (whole groups, in the span); no law, no span
        raise SingularCovarianceError(
            "gamma = 1 divergences are finite only for priors supported in the "
            "span of the correlation direction(s)")

    if method in ("auto", "hypergeometric_sum"):
        law = prior.overlap_law(model, v)
        if law is not None:
            return DivergenceResult(law.chi_sq(), "hypergeometric_sum")
        if method == "hypergeometric_sum":
            raise ContractError(
                "the pair inner product is not a function of the support "
                "overlap here; use exact_enumeration or monte_carlo")
    if method in ("auto", "exact_enumeration"):
        result = _enumerate_pairs(prior, model, v)
        if result is not None:
            return result
        if method == "exact_enumeration":
            raise ContractError(
                f"enumeration exceeds the {ENUMERATION_PAIR_BUDGET} pair budget")
    if rng is None:
        raise ContractError("monte_carlo needs an rng")
    return _monte_carlo_chisq(prior, model, n_mc, rng, v)


def _enumerate_pairs(prior, model, v) -> Optional[DivergenceResult]:
    """IS-value as the exact average over support pairs, or None past
    ``ENUMERATION_PAIR_BUDGET``: the prior's ``first_support_terms``, one
    term per overlap k weighted by its number of supports (no support array
    is formed), or else the n x n Gram matrix of its ``support_rows`` under
    the precision, whose sums are those of a loop over ``combinations``."""
    by_overlap = prior.first_support_terms(model, ENUMERATION_PAIR_BUDGET)
    if by_overlap is not None:
        terms, counts, n = by_overlap
        log_mean = _log_sum_exp(terms, counts) - math.log(n)
    else:
        rows = prior.support_rows(math.isqrt(ENUMERATION_PAIR_BUDGET), v)
        if rows is None:
            return None
        idx, values = rows
        n = idx.shape[0]
        thetas = np.zeros((n, prior.p))
        np.put_along_axis(thetas, idx, values, axis=-1)
        gram = thetas @ precision_apply(model, thetas).T
        log_mean = _log_sum_exp(gram) - 2.0 * math.log(n)
    return DivergenceResult(float(np.exp(log_mean)) - 1.0, "exact_enumeration")


def _pair_terms(model: CorrelationModel, idx: np.ndarray, values) -> np.ndarray:
    """<theta, Sigma^-1 theta~> for each pair of sparse rows: rows 2i and
    2i + 1 of ``idx`` (2n, s) and ``values`` (broadcasting against it), as
    a prior's ``supports`` gives them, form pair i.

    Per block, Sigma^-1 = I / (1 - gamma) - c (loadings)(loadings)'
    (``models._precision_weights``), so the pair term is
    <theta, theta~> / (1 - gamma) - c sum_k P_k(theta) P_k(theta~), with P_k
    the block projections (``project_support``).  The inner product runs
    over the coordinates both supports hold: sorted, a pair's 2s coordinates
    hold each of them twice, side by side.  Each coordinate is sorted with
    its position in the pair's row in its low bits, which is cheaper than an
    argsort and finds the two values to multiply.  Inputs are finite, so a
    NaN term is inf - inf (or 0 * inf): both halves past the float range.
    """
    one_minus, coef = _precision_weights(model)
    values = np.broadcast_to(values, idx.shape)
    n, width = idx.shape[0] // 2, 2 * idx.shape[1]
    bits = (width - 1).bit_length()
    keys = idx.reshape(n, width) << bits
    keys |= np.arange(width)
    keys.sort(axis=-1)
    coords = keys >> bits
    pair, col = np.nonzero(coords[:, 1:] == coords[:, :-1])
    positions = keys & ((1 << bits) - 1)
    w = values.reshape(n, width)
    products = w[pair, positions[pair, col]] * w[pair, positions[pair, col + 1]]
    inner = np.bincount(pair, weights=products, minlength=n)
    sums = model.project_support(idx, values)
    with np.errstate(invalid="ignore"):
        return inner / one_minus - coef * np.add.reduce(sums[0::2] * sums[1::2], axis=-1)


def _monte_carlo_chisq(prior, model, n_mc, rng, v) -> DivergenceResult:
    n_mc = _check_count(n_mc, "n_mc", 2)  # two pairs for a standard error
    # about 16s + R numbers per pair in flight (the keys, coordinates,
    # positions and values of 2s entries, and 2R block sums), and never fewer
    # pairs per block than a dense (2n, p) draw would take
    pairs = max(1, _BLOCK_ELEMENTS // model.p,
                _BLOCK_ELEMENTS // (16 * prior.support_size + model.R))
    logs = np.empty(n_mc)
    for start in range(0, n_mc, pairs):
        n = min(pairs, n_mc - start)
        idx, values = prior.supports(rng, v, 2 * n)  # rows 2i, 2i + 1: pair i
        logs[start:start + n] = _pair_terms(model, idx, values)
    peak = logs.max()
    if not peak < math.inf:
        # a pair term past the float range (+inf, or NaN from _pair_terms):
        # the mean of exp(term) is +inf, with no finite standard error
        return DivergenceResult(math.inf, "monte_carlo", stderr=math.inf)
    terms = np.exp(logs - peak)
    total = float(terms.sum())
    mean = float(np.exp(peak) * total / n_mc)
    sd = float(np.exp(peak) * terms.std(ddof=1))
    stderr = sd / math.sqrt(n_mc)
    warnings = []
    top = max(1, int(0.001 * n_mc))
    share = float(np.sort(terms)[-top:].sum()) / total
    if share > 0.5:
        warnings.append(
            f"heavy tails: top 0.1% of exp terms carry {share:.0%} of the sum; "
            "the estimate may be unstable")
    return DivergenceResult(mean - 1.0, "monte_carlo", stderr=stderr, warnings=tuple(warnings))


def mean_shift_tv(model: Equicorrelated, m: float) -> float:
    """Total-variation bound for the constant shift m*1_p:
    sqrt(exp(p m^2 / (1-g+gp)) - 1) / 2."""
    if not isinstance(model, Equicorrelated):
        raise ContractError("mean_shift_tv is defined for the equicorrelated model")
    if model.gamma >= 1.0:
        raise SingularCovarianceError("needs gamma < 1")
    g, p, m = model.gamma, model.p, _check_real(m, "m")
    return 0.5 * math.sqrt(_expm1(p * m * m / (1.0 - g + g * p)))


def risk_lower_bound(prior: PriorSpec, model: CorrelationModel,
                     method: str = "auto", n_mc: int = 200_000,
                     rng: Optional[np.random.Generator] = None,
                     v=None) -> float:
    """Best available lower bound on minimax testing risk from this prior.

    Plain priors: 1 - sqrt(chi2)/2.  Shifted sparse priors follow the
    triangle route: 1 - TV(shift) - sqrt(chi2(complement prior))/2.
    All bounds are clamped to [0, 1].
    """
    if isinstance(prior, ShiftedSparse):
        shift_tv = mean_shift_tv(model, prior.magnitude)
        comp = ingster_suslina_chisq(prior.complement, model, method=method,
                                     n_mc=n_mc, rng=rng, v=v)
        return min(1.0, max(0.0, 1.0 - shift_tv - comp.tv_bound))
    res = ingster_suslina_chisq(prior, model, method=method, n_mc=n_mc, rng=rng, v=v)
    return res.risk_bound
