"""Least-favorable priors and the divergence calculus behind lower bounds.

For a prior pi over alternatives, the chi-square divergence of the induced
Gaussian mixture from the null satisfies (with equality for these Gaussian
location mixtures)

    chi2(P_pi || P_0) <= E exp(<theta, Sigma^-1 theta~>) - 1,

the expectation over an iid pair from the prior.  We compute the right-hand
side and call it the IS-value, after the Ingster-Suslina method.  Together
with d_TV <= sqrt(chi2)/2, any test's total risk is at least 1 - sqrt(chi2)/2.

Exact routes, chosen from what the model is (its block count, whether its
blocks are exchangeable, its block sums), not from its class:

* point masses: a single quadratic form, also at gamma = 1 for a mass in the
  span of the correlation directions (the closed form's continuous limit);
* uniform sparse supports under a single-block model that weighs every
  coordinate of the universe alike: a hypergeometric sum over the overlap;
* supports in one uniformly chosen group, or whole groups, under an
  exchangeable model whose R blocks are those groups: a two-level overlap
  sum, 1 - 1/R + (1/R) E[...|same group], or one over group overlaps;
* otherwise: exact enumeration of support pairs or Monte Carlo over prior
  pairs, which hold for every model.

Every route refuses a prior of another dimension than the model.  At
gamma = 1 only point masses in the span and whole-group supports are finite;
every other prior is refused, whatever the method.

The overlap sums and both enumeration routes end in one log-sum-exp,
:func:`_log_sum_exp`, a plain numpy reduction.

Enumeration has one route for plus-sign uniform supports under an
exchangeable single-block model, with or without a universe: a pair term
depends only on the overlap with the first support, so it sums one term per
overlap k, weighted by the number of supports at that overlap (a closed-form
count), and forms no support array.  Every other prior sums the n x n Gram
matrix of its supports, listed as rows of one index array in
``itertools.combinations`` order, so its sums are those of a loop over
``combinations``.

Monte Carlo works on supports, not dense vectors.  :func:`_supports` gives
each draw's coordinates and values (:func:`draw` only writes them into
zeros), and a block takes one batched call of 2n draws from the stream,
rows 2i and 2i + 1 forming pair i.  A pair term is formed from the two
supports alone (:func:`_pair_terms`): their inner product from the shared
coordinates, found by sorting the pair's coordinates, and the model's block
sums of each support; no (2n, p) array is built and the precision is not
applied.  A block holds max(``_BLOCK_ELEMENTS // p``,
``_BLOCK_ELEMENTS // (16 s + R)``) pairs for supports of s coordinates (the
budget shared with null calibration in ``models``), so short supports at
large p take far fewer blocks, and no block holds fewer pairs than a dense
(2n, p) draw would.  Every sum is a plain numpy reduction, so the estimate
does not depend on the BLAS thread count.  A batched draw takes its subsets
by Floyd's algorithm (see :func:`_subsets`) and so consumes the stream
differently from single draws: estimates differ from a loop over single
draws with the same seed; single draws are what the risk engine uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ContractError, DomainError, SingularCovarianceError
from .models import (
    _BLOCK_ELEMENTS,
    CorrelationModel,
    Equicorrelated,
    _precision_weights,
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


def _check_magnitude(prior) -> None:
    if not math.isfinite(prior.magnitude):
        raise ContractError(f"magnitude must be finite, got {prior.magnitude!r}")


def _expm1(x: float) -> float:
    """exp(x) - 1, and +inf past the float range, as the log-sum-exp routes
    give, where math.expm1 raises OverflowError."""
    return math.expm1(x) if x < _LOG_FLOAT_MAX else math.inf


def _square(x: float) -> float:
    """x ** 2, and +inf past the float range, where a float power raises
    OverflowError."""
    return x ** 2 if abs(x) < _SQRT_FLOAT_MAX else math.inf


@dataclass(frozen=True, eq=False)
class PointMass:
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if not np.isfinite(self.theta).all():
            raise ContractError("point mass entries must be finite")

    @property
    def p(self) -> int:
        return self.theta.shape[-1]

    @np.errstate(over="ignore")  # +inf past the float range
    def descriptor(self) -> dict:
        return {"prior": "point_mass", "norm_sq": float(self.theta @ self.theta)}


@dataclass(frozen=True, eq=False)
class UniformSparse:
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
        if not (1 <= self.s <= self.p):
            raise ContractError("need 1 <= s <= p")
        if self.signs not in SIGN_RULES:
            raise ContractError(f"unknown sign rule {self.signs!r}; expected one of "
                                f"{', '.join(SIGN_RULES)}")
        _check_magnitude(self)
        if self.universe is not None:
            uni = np.unique(np.asarray(self.universe, dtype=np.intp))
            if uni.size < self.s or uni.min() < 0 or uni.max() >= self.p:
                raise ContractError("universe must hold at least s valid coordinates")
            object.__setattr__(self, "universe", uni)

    @property
    def population(self) -> int:
        return self.p if self.universe is None else int(self.universe.size)

    @property
    def support_size(self) -> int:
        return self.s

    def descriptor(self) -> dict:
        d = {"prior": "uniform_sparse", "p": self.p, "s": self.s,
             "magnitude": self.magnitude, "signs": self.signs}
        if self.universe is not None:
            d["universe_size"] = int(self.universe.size)
        return d


@dataclass(frozen=True, eq=False)
class SingleGroupSparse:
    """Uniformly chosen group, then a uniform size-s support inside it."""

    p: int
    R: int
    s: int
    magnitude: float

    def __post_init__(self):
        if self.p % self.R:
            raise ContractError("R must divide p")
        if not (1 <= self.s <= self.p // self.R):
            raise ContractError("need 1 <= s <= p/R")
        _check_magnitude(self)

    @property
    def support_size(self) -> int:
        return self.s

    def descriptor(self) -> dict:
        return {"prior": "single_group_sparse", "p": self.p, "R": self.R,
                "s": self.s, "magnitude": self.magnitude}


@dataclass(frozen=True, eq=False)
class GroupSupported:
    """m whole groups chosen uniformly, constant magnitude on each."""

    p: int
    R: int
    m: int
    magnitude: float

    def __post_init__(self):
        if self.p % self.R:
            raise ContractError("R must divide p")
        if not (1 <= self.m <= self.R):
            raise ContractError("need 1 <= m <= R")
        _check_magnitude(self)

    @property
    def support_size(self) -> int:
        return self.m * (self.p // self.R)

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
        if not (1 <= self.s < self.p):
            raise ContractError("need 1 <= s < p for the shifted route")
        _check_magnitude(self)

    @property
    def complement(self) -> UniformSparse:
        return UniformSparse(self.p, self.p - self.s, self.magnitude)

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


def _supports(prior: PriorSpec, rng: np.random.Generator, v=None,
              size: Optional[int] = None) -> tuple:
    """Coordinates and values of draw(s) from the prior.

    Returns ``(idx, values)``: ``idx`` (n,) for one draw (``size`` None) or
    (size, n) for ``size`` draws, n distinct coordinates per draw (the
    ``support_size`` of a sparse prior, p for a point mass), and ``values``
    an array of that shape or a scalar that broadcasts against it.  A draw is
    zero off its coordinates.  All prior-type dispatch of the draws is here.
    """
    if isinstance(prior, ShiftedSparse):
        raise ContractError("shifted priors have no single draw; use risk_lower_bound")
    if isinstance(prior, PointMass):
        idx = np.arange(prior.p)
        if size is None:
            return idx, prior.theta
        return np.broadcast_to(idx, (size, prior.p)), np.broadcast_to(prior.theta, (size, prior.p))
    if isinstance(prior, UniformSparse):
        idx = _subsets(rng, prior.population, prior.s, size)
        if prior.universe is not None:
            idx = prior.universe[idx]
        if prior.signs == "rademacher":
            return idx, prior.magnitude * rng.choice([-1.0, 1.0], size=idx.shape)
    elif isinstance(prior, SingleGroupSparse):
        bs = prior.p // prior.R
        k = rng.integers(prior.R, size=size)
        idx = np.asarray(k)[..., None] * bs + _subsets(rng, bs, prior.s, size)
    elif isinstance(prior, GroupSupported):
        bs = prior.p // prior.R
        groups = _subsets(rng, prior.R, prior.m, size)
        idx = (groups[..., None] * bs + np.arange(bs)).reshape(
            groups.shape[:-1] + (prior.m * bs,))
    else:
        raise ContractError(f"unknown prior {type(prior)!r}")
    return idx, _values(prior, idx, v)


def _values(prior: PriorSpec, idx: np.ndarray, v):
    """Values of a sparse draw at its coordinates ``idx``, for every prior but
    Rademacher signs: the magnitude, signed as the pattern ``v`` for
    sign-matched priors (a scalar otherwise)."""
    if getattr(prior, "signs", "plus") != "match_pattern":
        return prior.magnitude
    if v is None:
        raise ContractError("sign matching needs the pattern v")
    return prior.magnitude * np.where(np.asarray(v, dtype=float)[idx] < 0, -1.0, 1.0)


def draw(prior: PriorSpec, rng: np.random.Generator, v=None,
         size: Optional[int] = None) -> np.ndarray:
    """Signal vector(s) distributed according to the prior: the draws of
    :func:`_supports`, written into zeros.

    With ``size`` given, returns ``size`` independent draws as rows of a
    (size, p) array.  Single draws (``size`` None) and batches take their
    subsets by different rules (see :func:`_subsets`), so a batch of one does
    not reproduce a single draw from the same stream.  Shifted priors are
    refused: they pair the sparse prior with the constant shift b*1_p and are
    consumed only by :func:`risk_lower_bound`.
    """
    idx, values = _supports(prior, rng, v, size)
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
    tv_bound: float
    risk_bound: float
    stderr: Optional[float] = None
    warnings: tuple = ()

    @staticmethod
    def from_chi_sq(chi_sq: float, method: str, stderr=None, warnings=()) -> "DivergenceResult":
        tv = 0.5 * math.sqrt(max(chi_sq, 0.0))
        return DivergenceResult(chi_sq=chi_sq, method=method, tv_bound=tv,
                                risk_bound=min(1.0, max(0.0, 1.0 - tv)),
                                stderr=stderr, warnings=tuple(warnings))

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


def _log_factorials(k) -> np.ndarray:
    """log(k!) = ``math.lgamma(k + 1)`` at the integers of ``k``, shaped like it."""
    k = np.asarray(k)
    return np.array([math.lgamma(x + 1.0) for x in k.ravel().tolist()]).reshape(k.shape)


def hypergeometric_logpmf(population: int, draw1: int, draw2: int) -> tuple:
    """Support and log-pmf of the overlap of two uniform subsets.

    |S| = draw1 and |S~| = draw2 drawn uniformly from a population; the
    overlap count k ranges over [max(0, d1+d2-population), min(d1, d2)].
    """
    lo = max(0, draw1 + draw2 - population)
    hi = min(draw1, draw2)
    ks = np.arange(lo, hi + 1)

    def logc(n, r):
        return _log_factorials(n) - _log_factorials(r) - _log_factorials(n - r)

    logpmf = (logc(draw2, ks) + logc(population - draw2, draw1 - ks)
              - logc(population, draw1))
    return ks, logpmf


def hypergeometric_mgf_bound(p: int, s: int, lam_sq: float) -> dict:
    """Exact MGF of the support overlap and its closed-form majorant.

    For Y the overlap of two uniform size-s subsets of [p]:
    E[Y] = s^2/p and E[exp(lam_sq Y)] <= (1 - s/p + (s/p) e^{lam_sq})^s.
    """
    if not (0 <= s <= p) or p < 1:
        raise ContractError("need 0 <= s <= p")
    if lam_sq < 0:
        raise DomainError("lam_sq must be nonnegative")
    if s == 0:
        return {"exact": 1.0, "bound": 1.0, "mean": 0.0}
    ks, logpmf = hypergeometric_logpmf(p, s, s)
    exact = float(np.exp(_log_sum_exp(logpmf + lam_sq * ks)))
    bound = float((1.0 - s / p + (s / p) * math.exp(lam_sq)) ** s)
    mean = s * s / p
    return {"exact": exact, "bound": bound, "mean": mean}


def _overlap_expectation(population: int, size1: int, size2: int,
                         lam: float, const: float) -> float:
    """E[exp(lam * overlap + const)] over the overlap distribution.

    lam and const carry the squared magnitude, and the exponent at the
    largest overlap (a support paired with itself) is positive.  So when
    either leaves the float range (+-inf, or 0 * inf where a coefficient is
    zero), the value is +inf.
    """
    if not (math.isfinite(lam) and math.isfinite(const)):
        return math.inf
    ks, logpmf = hypergeometric_logpmf(population, size1, size2)
    return float(np.exp(_log_sum_exp(logpmf + lam * ks + const)))


# ---------------------------------------------------------------------------
# quadratic forms


def _span_quadratic(model: CorrelationModel, theta: np.ndarray,
                    theta2: np.ndarray) -> float:
    """<theta, Sigma^-1 theta2>, extended continuously to gamma = 1 for
    vectors in the span of the correlation direction(s)."""
    if model.gamma < 1.0:
        return float(theta @ precision_apply(model, theta2))
    # gamma = 1: only the block projections survive.  A block's reduced
    # statistic has mean c = <loadings, block> / block_size and unit variance,
    # so the pair quadratic is sum_k c1_k c2_k; both vectors must lie in the
    # span (a zero residual) for the divergence to be finite.
    blocks = model.block_view(np.stack([theta, theta2]))
    c = model.project(blocks) / model.block_size
    residual = blocks - model.lift(c)
    tol = 1e-9 * (1.0 + float(theta @ theta) + float(theta2 @ theta2))
    if np.abs(residual).max(initial=0.0) ** 2 > tol:
        raise SingularCovarianceError(
            "gamma = 1 divergence is finite only for priors supported in the "
            "span of the correlation direction(s)")
    return float(np.add.reduce(c[0] * c[1]))


def _whole_groups(prior: PriorSpec, model: CorrelationModel) -> bool:
    """Whether the prior's R groups of p/R consecutive coordinates are the
    exchangeable blocks of the model, in the model's own layout."""
    return model.exchangeable and model.R == prior.R and model.canonical is model


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
        q = _span_quadratic(model, prior.theta, prior.theta)
        return DivergenceResult.from_chi_sq(_expm1(q), "closed_form")
    if method == "closed_form":
        raise ContractError("closed_form applies to point masses only")
    if model.gamma >= 1.0 and not (isinstance(prior, GroupSupported)
                                   and _whole_groups(prior, model)):
        # whole groups live in the span, where the overlap sum below is exact
        # at gamma = 1 too; any other prior leaves it
        raise SingularCovarianceError(
            "gamma = 1 divergences are finite only for priors supported in the "
            "span of the correlation direction(s)")

    if method in ("auto", "hypergeometric_sum"):
        result = _try_overlap_sum(prior, model, v)
        if result is not None:
            return result
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


def _try_overlap_sum(prior, model, v) -> Optional[DivergenceResult]:
    """The IS-value as a sum over support overlaps, or None when a pair term
    is not a function of the overlap."""
    a = prior.magnitude
    if isinstance(prior, UniformSparse):
        # A pair term is a^2 k / (1 - gamma) - c P(theta) P(theta~) at overlap
        # k for plus or sign-matched draws (see _pair_terms).  With one block,
        # P(theta) sums w_i, the loading times the draw's value, over the
        # support: s w for every support when all the universe has one w.
        if prior.signs == "rademacher" or model.R != 1:
            return None
        uni = np.arange(prior.p) if prior.universe is None else prior.universe
        values = np.full(uni.shape, _values(prior, uni, v))
        w = model.project_support(uni[:, None], values[:, None])[:, 0]
        if (w != w[0]).any():
            return None
        one_minus, coef = _precision_weights(model)
        chi = _overlap_expectation(prior.population, prior.s, prior.s, a * a / one_minus,
                                   -coef * _square(prior.s * float(w[0]))) - 1.0
    elif isinstance(prior, SingleGroupSparse) and _whole_groups(prior, model):
        one_minus, coef = _precision_weights(model)
        same = _overlap_expectation(model.block_size, prior.s, prior.s, a * a / one_minus,
                                    -coef * _square(a * prior.s))
        chi = (1.0 - 1.0 / prior.R) + same / prior.R - 1.0
    elif isinstance(prior, GroupSupported) and _whole_groups(prior, model):
        g, bs = model.gamma, model.block_size
        # whole-group blocks: the centered part vanishes, only group means
        # contribute: <1_B, Sigma^-1 1_B'> = bs / (1-g+g bs) per shared group,
        # which is 1 at gamma = 1 (the reduced statistic of a group)
        lam = a * a * bs / (1.0 - g + g * bs)
        chi = _overlap_expectation(model.R, prior.m, prior.m, lam, 0.0) - 1.0
    else:
        return None
    return DivergenceResult.from_chi_sq(chi, "hypergeometric_sum")


def _combinations(n: int, r: int) -> np.ndarray:
    """Every r-subset of range(n) as a row, in ``itertools.combinations`` order.

    Built one position at a time: a prefix ending in c extends by each of
    c + 1, ..., n - r + j at position j, and ``np.repeat`` keeps a prefix's
    extensions together in ascending order, so rows stay lexicographic.  Each
    level keeps only its last entries and the index of each prefix's parent;
    the (n, r) output is then filled column by column, last to first, through
    the composed parent indices.
    """
    last = np.arange(n - r + 1, dtype=np.intp)
    levels = []  # (parent index of each prefix, last entries of the parents)
    for j in range(1, r):
        counts = n - r + j - last
        parent = np.repeat(np.arange(last.size), counts)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        levels.append((parent, last))
        last = last[parent] + 1 + offset
    combos = np.empty((last.size, r), dtype=np.intp)
    combos[:, r - 1] = last
    ancestor = None
    for j in range(r - 1, 0, -1):
        parent, parent_last = levels.pop()
        ancestor = parent if ancestor is None else parent[ancestor]
        combos[:, j - 1] = parent_last[ancestor]
    return combos


def _support_iter(prior, limit: int) -> Optional[np.ndarray]:
    """Every support of the prior as a row of an (n, s) index array, or None
    when there are more than ``limit``.

    The prior is uniform over these supports.  Rows follow
    ``itertools.combinations`` order (group by group for single-group priors).
    """
    if isinstance(prior, UniformSparse):
        n = math.comb(prior.population, prior.s)
    elif isinstance(prior, SingleGroupSparse):
        bs = prior.p // prior.R
        n = prior.R * math.comb(bs, prior.s)
    elif isinstance(prior, GroupSupported):
        bs = prior.p // prior.R
        n = math.comb(prior.R, prior.m)
    else:
        raise ContractError(f"enumeration does not support {type(prior)!r}")
    if n > limit:
        return None
    if isinstance(prior, UniformSparse):
        combos = _combinations(prior.population, prior.s)
        return combos if prior.universe is None else prior.universe[combos]
    if isinstance(prior, SingleGroupSparse):
        inside = _combinations(bs, prior.s)
        return (np.arange(prior.R)[:, None, None] * bs + inside).reshape(n, prior.s)
    groups = _combinations(prior.R, prior.m)
    return (groups[:, :, None] * bs + np.arange(bs)).reshape(n, prior.m * bs)


def _enumerate_pairs(prior, model, v) -> Optional[DivergenceResult]:
    """IS-value as the exact average over support pairs, or None past
    ``ENUMERATION_PAIR_BUDGET``.

    Plus-sign uniform supports under an exchangeable single-block model fix
    the first support and average over the other: one term per overlap k
    with the first support, weighted by the number of supports at that
    overlap.  Every other prior sums the n x n Gram matrix of the supports'
    vectors under the precision.
    """
    if isinstance(prior, UniformSparse) and prior.signs == "rademacher":
        return None  # sign configurations are not enumerated; use monte_carlo
    if (isinstance(prior, UniformSparse) and prior.signs == "plus"
            and model.exchangeable and model.R == 1):
        # The precision of one exchangeable block maps the first support's
        # vector to one value on that support and one off it, so a pair term
        # depends only on the overlap k with the first support.
        n = math.comb(prior.population, prior.s)
        if n > ENUMERATION_PAIR_BUDGET:
            return None
        pool = np.arange(prior.p) if prior.universe is None else prior.universe
        first = np.zeros(prior.p, dtype=bool)
        first[pool[:prior.s]] = True
        w = precision_apply(model, prior.magnitude * first)
        # at s = p no coordinate is off the support, and every overlap is s
        off = w[~first][0] if prior.s < prior.p else 0.0
        ks = np.arange(prior.s + 1)
        terms = prior.magnitude * (ks * w[first][0] + (prior.s - ks) * off)
        # C(s, k) C(N - s, s - k) of the C(N, s) supports share k entries with it
        N = prior.population
        counts = np.array([math.comb(prior.s, k) * math.comb(N - prior.s, prior.s - k)
                           for k in ks], dtype=float)
        chi = float(np.exp(_log_sum_exp(terms, counts) - math.log(n))) - 1.0
        return DivergenceResult.from_chi_sq(chi, "exact_enumeration")
    idx = _support_iter(prior, math.isqrt(ENUMERATION_PAIR_BUDGET))
    if idx is None:
        return None
    n = idx.shape[0]
    thetas = np.zeros((n, prior.p))
    np.put_along_axis(thetas, idx, _values(prior, idx, v), axis=-1)
    gram = thetas @ precision_apply(model, thetas).T
    chi = float(np.exp(_log_sum_exp(gram) - 2.0 * math.log(n))) - 1.0
    return DivergenceResult.from_chi_sq(chi, "exact_enumeration")


def _pair_terms(model: CorrelationModel, idx: np.ndarray, values) -> np.ndarray:
    """<theta, Sigma^-1 theta~> for each pair of sparse rows: rows 2i and
    2i + 1 of ``idx`` (2n, s) and ``values`` (broadcasting against it), as
    :func:`_supports` gives them, form pair i.

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
    if n_mc < 2:
        raise ContractError("monte_carlo needs n_mc >= 2 for a standard error")
    # about 16s + R numbers per pair in flight (the keys, coordinates,
    # positions and values of 2s entries, and 2R block sums), and never fewer
    # pairs per block than a dense (2n, p) draw would take
    pairs = max(1, _BLOCK_ELEMENTS // model.p,
                _BLOCK_ELEMENTS // (16 * prior.support_size + model.R))
    logs = np.empty(n_mc)
    for start in range(0, n_mc, pairs):
        n = min(pairs, n_mc - start)
        idx, values = _supports(prior, rng, v, 2 * n)  # rows 2i, 2i + 1: pair i
        logs[start:start + n] = _pair_terms(model, idx, values)
    peak = logs.max()
    if not peak < math.inf:
        # a pair term past the float range (+inf, or NaN from _pair_terms):
        # the mean of exp(term) is +inf, with no finite standard error
        return DivergenceResult.from_chi_sq(math.inf, "monte_carlo", stderr=math.inf)
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
    return DivergenceResult.from_chi_sq(mean - 1.0, "monte_carlo",
                                        stderr=stderr, warnings=warnings)


def mean_shift_tv(model: Equicorrelated, m: float) -> float:
    """Total-variation bound for the constant shift m*1_p:
    sqrt(exp(p m^2 / (1-g+gp)) - 1) / 2."""
    if not isinstance(model, Equicorrelated):
        raise ContractError("mean_shift_tv is defined for the equicorrelated model")
    if model.gamma >= 1.0:
        raise SingularCovarianceError("needs gamma < 1")
    g, p = model.gamma, model.p
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
        if not isinstance(model, Equicorrelated):
            raise ContractError("the shifted route is defined for the equicorrelated model")
        shift_tv = mean_shift_tv(model, prior.magnitude)
        comp = ingster_suslina_chisq(prior.complement, model, method=method,
                                     n_mc=n_mc, rng=rng, v=v)
        return min(1.0, max(0.0, 1.0 - shift_tv - comp.tv_bound))
    res = ingster_suslina_chisq(prior, model, method=method, n_mc=n_mc, rng=rng, v=v)
    return res.risk_bound
