"""Observation models: equicorrelated, grouped random effects, rank-one.

All three noise laws share the additive structure

    X = theta + sqrt(gamma) * (shared factor) + sqrt(1 - gamma) * Z,

where the shared factor is a single Gaussian times the all-ones vector, one
Gaussian per group on its block indicator, or a single Gaussian times a fixed
pattern ``v`` with ||v||^2 = p.  Samplers always use this representation (cost
O(p) per draw, exact at gamma = 1), never a covariance factorization.

Every model is k = ``R`` blocks of p/k consecutive coordinates with one
shared factor each (``block_view``, ``scatter_blocks``): block j holds the
coordinates j p/k to (j + 1) p/k - 1.  A coordinate permutation does not
change the detection problem, so where each group sits is immaterial.  The
equicorrelated model is the grouped model with R = 1; the rank-one model is
also a single block, with loadings ``v`` and no exchangeable order.
:func:`model_from` maps a family name to its model.  Each model owns its
block algebra: ``project`` maps blocks (..., k, p/k) to their inner products
with the loadings (..., k), ``project_support`` does the same for vectors
given by their nonzero coordinates and values, ``lift`` maps (..., k) back to
loadings times value, broadcasting against the blocks, and ``exchangeable``
says whether a block may be sorted.  The loadings are 1 in the exchangeable
models, which therefore only sum and broadcast, and ``v`` in the rank-one
one.

Covariance and precision act in closed form through Sherman-Morrison:

    ((1-g) I + g v v')^-1 = (1-g)^-1 (I - v v'/p) + (1-g+gp)^-1 v v'/p,

and blockwise analogues for the grouped model, so no p x p matrix is ever
materialized.

Canonical order.  The equicorrelated model is invariant under every
coordinate permutation and the grouped model under permutations within a
group, so each has exchangeable blocks: all of p, or each group.  Sums over a
block are plain numpy reductions of its entries in ascending order, which
makes them bit-identical under those permutations.  :func:`canonical_layout`
sorts every block once and leaves it where it was, so the model describes
the sorted data as well; because decorrelation is monotone within a block,
the decorrelated blocks come out sorted too, so the evaluation kernel sums
them without sorting again.  Rank-one data has no exchangeable block and
keeps its layout.

Arguments are checked on entry: a dimension (p, R or a sample size) must be
an integer that ``operator.index`` accepts, gamma a real number in [0, 1],
and every array real-valued with the model's length on its last axis.  A
violation raises :class:`ContractError`.

Random stream layout.  A draw consumes k shared factors and then p noise
coordinates (k = R for the grouped model, 1 otherwise); decorrelation then
consumes k injections.  ``sample(..., size=n)`` draws the n x k factors before
the n x p noise.  Batched callers that must reproduce n single-vector draws
instead pass rows laid out as [k factors | p noise | k injections], which is
the order in which n sequential ``sample`` + ``decorrelate`` calls consume a
stream: null calibration draws all the rows from one stream, and the risk
engine (``risk``) fills row j of [k factors | p noise] from replication j's
own stream.  Theta rows (n, p), one per draw, then give each row its own
signal; a single theta (p,) is shared by every row.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import ContractError, SingularCovarianceError, UnsupportedRegimeError

__all__ = [
    "Equicorrelated",
    "Grouped",
    "RankOne",
    "CorrelationModel",
    "Observation",
    "check_family",
    "model_from",
    "canonical_layout",
    "sample",
    "decorrelate",
    "precision_apply",
    "covariance_apply",
]


def _check_gamma(gamma: float) -> None:
    # the comparison is false for NaN, inf and integers past float range
    if not isinstance(gamma, numbers.Real) or not 0.0 <= gamma <= 1.0:
        raise ContractError(f"gamma must lie in [0, 1], got {gamma!r}")


def _check_count(value, what: str, least: int) -> None:
    """Refuse a count that ``operator.index`` refuses or that is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ContractError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise ContractError(f"{what} must be >= {least}, got {value}")


def _real(x, what: str) -> np.ndarray:
    """``x`` as a float array, refusing one that is not real-valued."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise ContractError(f"{what} must hold real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _pattern(v, p: int) -> tuple:
    """``v`` as a real array of shape (p,), and ||v||^2: inf, without an
    overflow warning, where it passes float range."""
    v = _real(v, "v")
    if v.shape != (p,):
        raise ContractError(f"v must have length p={p}, got shape {v.shape}")
    with np.errstate(over="ignore"):
        return v, float(v @ v)


def _check_length(a: np.ndarray, p: int, what: str) -> None:
    if a.shape[-1:] != (p,):
        raise ContractError(f"{what} must have length p={p} on its last axis, "
                            f"got shape {a.shape}")


class _Blocks:
    """Blocks that load with weight 1 on their factor and may be sorted."""

    exchangeable = True

    def project(self, a: np.ndarray) -> np.ndarray:
        """Blocks (..., k, p/k) to their inner products with the loadings."""
        return np.add.reduce(a, axis=-1)  # a.sum(axis=-1) without its wrapper

    def lift(self, c: np.ndarray) -> np.ndarray:
        """(..., k) to loadings times value, broadcasting against the blocks."""
        return c[..., None]


class _SingleBlock(_Blocks):
    """A model whose p coordinates form one block, with one shared factor."""

    R = 1

    @property
    def block_size(self) -> int:
        return self.p

    def block_view(self, x: np.ndarray) -> np.ndarray:
        """``x`` (last axis p) as (..., 1, p): all coordinates form one block."""
        return np.asarray(x, dtype=float)[..., None, :]

    def scatter_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`block_view`."""
        return blocks[..., 0, :]

    def project_support(self, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        """:meth:`project` of the vectors that hold ``values`` at the
        coordinates ``idx`` (both (..., n), no coordinate twice in a row) and
        zeros elsewhere, as (..., k): here the row sums."""
        return np.add.reduce(values, axis=-1)[..., None]


@dataclass(frozen=True, eq=False)
class Equicorrelated(_SingleBlock):
    """Covariance (1-gamma) I_p + gamma 1 1'."""

    family: ClassVar[str] = "equicorrelated"
    p: int
    gamma: float

    def __post_init__(self):
        _check_count(self.p, "p", 1)
        _check_gamma(self.gamma)

    def descriptor(self) -> dict:
        return {"family": self.family, "p": self.p, "gamma": self.gamma}


@dataclass(frozen=True, eq=False)
class Grouped(_Blocks):
    """R equally sized groups, equicorrelated within, independent across.

    Group j is the block of the p/R consecutive coordinates from j p/R on.
    """

    family: ClassVar[str] = "grouped"
    p: int
    R: int
    gamma: float
    _block_shape: tuple = field(init=False, repr=False)  # (R, p/R)

    def __post_init__(self):
        _check_count(self.p, "p", 1)
        _check_count(self.R, "R", 1)
        if self.p % self.R != 0:
            raise ContractError(f"R must divide p, got R={self.R}, p={self.p}")
        _check_gamma(self.gamma)
        object.__setattr__(self, "_block_shape", (self.R, self.p // self.R))

    @property
    def block_size(self) -> int:
        return self.p // self.R

    def block_view(self, x: np.ndarray) -> np.ndarray:
        """Reshape ``x`` (last axis p) into (..., R, p/R) blocks."""
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[:-1] + self._block_shape)

    def scatter_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`block_view`."""
        return blocks.reshape(blocks.shape[:-2] + (self.p,))

    def project_support(self, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-group sums of sparse rows: one weighted bincount over the
        groups ``idx // (p/R)``, each row's groups offset by R times its row
        number."""
        rows = idx.shape[:-1]
        n = math.prod(rows)
        keys = idx // self.block_size + self.R * np.arange(n).reshape(rows + (1,))
        sums = np.bincount(keys.ravel(), weights=values.ravel(), minlength=n * self.R)
        return sums.reshape(rows + (self.R,))

    def descriptor(self) -> dict:
        return {"family": self.family, "p": self.p, "R": self.R, "gamma": self.gamma}


@dataclass(frozen=True, eq=False)
class RankOne(_SingleBlock):
    """Covariance (1-gamma) I_p + gamma v v' with ||v||^2 = p."""

    family: ClassVar[str] = "rank_one"
    p: int
    gamma: float
    v: np.ndarray
    # True when every |v_i| is exactly 1 (a +-1 pattern)
    sign_pattern: bool = field(init=False, repr=False)

    def __post_init__(self):
        _check_count(self.p, "p", 1)
        _check_gamma(self.gamma)
        v, nsq = _pattern(self.v, self.p)
        if not np.isfinite(v).all():
            raise ContractError("v must be finite")
        if v.flags.writeable or not v.flags.c_contiguous:
            # a frozen copy leaves the caller's array writeable; a frozen,
            # contiguous v is shared as given
            v = v.copy()
            v.setflags(write=False)
        if abs(nsq - self.p) > 1e-9 * self.p:
            raise ContractError(
                f"||v||^2 must equal p (got {nsq} vs {self.p}); "
                "use RankOne.renormalized to rescale"
            )
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sign_pattern", bool(np.all(np.abs(v) == 1.0)))

    exchangeable = False

    def project(self, a: np.ndarray) -> np.ndarray:
        return np.add.reduce(a * self.v, axis=-1)

    def lift(self, c: np.ndarray) -> np.ndarray:
        return c[..., None] * self.v

    def project_support(self, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.add.reduce(self.v[idx] * values, axis=-1)[..., None]

    @classmethod
    def renormalized(cls, p: int, gamma: float, v) -> "RankOne":
        """Construct after rescaling ``v`` so that ||v||^2 = p exactly."""
        v, nsq = _pattern(v, p)
        if not (0.0 < nsq < math.inf and p / nsq < math.inf):  # p / nsq for a tiny norm
            raise ContractError(f"||v||^2 must be positive, finite and not tiny, got {nsq}")
        return cls(p, gamma, v * math.sqrt(p / nsq))

    def descriptor(self) -> dict:
        return {"family": self.family, "p": self.p, "gamma": self.gamma, "v": self.v.tolist()}


CorrelationModel = Union[Equicorrelated, Grouped, RankOne]


def check_family(family: str, **parameters) -> None:
    """Refuse an unknown family name, and a missing or stray value among the
    given ``parameters`` (R and v): the grouped family takes R, the rank-one
    family the pattern v, and the equicorrelated family neither.  A parameter
    left out is not checked."""
    if family not in ("equicorrelated", "grouped", "rank_one"):
        raise ContractError(f"unknown family {family!r}")
    for name, value in parameters.items():
        owner = {"R": "grouped", "v": "rank_one"}.get(name)
        if owner is None:
            raise ContractError(f"no family takes a parameter {name!r}")
        if value is None and family == owner:
            raise ContractError(f"the {owner} family needs {name}")
        if value is not None and family != owner:
            raise ContractError(f"{name} applies to the {owner} family only, not {family}")


def model_from(family: str, p: int, gamma: float, R: Optional[int] = None,
               v=None) -> CorrelationModel:
    """The model of a family name: "equicorrelated", "grouped" (needs R) or
    "rank_one" (needs the pattern v); see :func:`check_family`."""
    check_family(family, R=R, v=v)
    if family == "equicorrelated":
        return Equicorrelated(p, gamma)
    if family == "grouped":
        return Grouped(p, R, gamma)
    return RankOne(p, gamma, v)


@dataclass(frozen=True, eq=False, slots=True)  # slots: one is built per replication
class Observation:
    """A data vector (or batch of vectors) with its generating model."""

    x: np.ndarray
    model: CorrelationModel

    def __post_init__(self):
        x = _real(self.x, "observation")
        _check_length(x, self.model.p, "observation")
        object.__setattr__(self, "x", x)


# Batched kernels (null calibration, Monte Carlo divergences) work in blocks
# of at most this many data entries, ``_BLOCK_ELEMENTS // p`` rows of length p:
# a fixed budget, so block boundaries never depend on the worker count.
_BLOCK_ELEMENTS = 1 << 15


def canonical_layout(model: CorrelationModel, x) -> np.ndarray:
    """Data with every exchangeable block sorted.

    Returns a copy of ``x`` (last axis p) with each block sorted ascending in
    its own place, so ``model`` describes the sorted data as well.  Data of a
    model without exchangeable blocks (rank-one) is returned unchanged.
    """
    x = _real(x, "data")
    _check_length(x, model.p, "data")
    if not model.exchangeable:
        return x
    # one copy, in C order: numpy reductions follow the memory layout, so rows
    # are summed the same way whatever layout the block view came in
    x_c = np.array(model.block_view(x), order="C")
    x_c.sort(axis=-1)
    return x_c.reshape(x.shape)


def sample(model: CorrelationModel, theta, rng: Optional[np.random.Generator] = None,
           size: Optional[int] = None, *, normals: Optional[np.ndarray] = None) -> Observation:
    """Draw from the model via its additive random-effect representation.

    ``theta`` may be None (the null), one vector (p,) shared by every draw,
    or rows (n, p), one per draw of a batch of n.  With ``size`` given,
    returns a batch of shape (size, p).  The shared factor(s) are drawn
    before the idiosyncratic noise, so a fixed stream reproduces
    bit-identical observations.  Instead of ``rng``, ``normals`` (rows of
    k = R factors then p noise coordinates) supplies the standard normals
    for one draw per row.
    """
    p, k = model.p, model.R
    if size is not None:
        _check_count(size, "size", 0)
    if normals is not None:
        normals = _real(normals, "normals")
        if normals.shape[-1:] != (k + p,):
            raise ContractError(f"normals rows must hold k + p = {k + p} values")
        draws = normals.shape[:-1]
        if size is not None and draws != (size,):
            raise ContractError(f"size={size} does not match the normals rows {draws}")
    elif rng is None:
        raise ContractError("sample needs rng or normals")
    else:
        draws = () if size is None else (size,)
    if theta is None:
        theta = 0.0
    else:
        theta = _real(theta, "theta")
        if theta.shape[-1:] != (p,):
            raise ContractError("theta length must equal model dimension p")
        if theta.ndim > 1 and (theta.ndim > 2 or theta.shape[:-1] != draws):
            raise ContractError(f"theta rows {theta.shape[:-1]} do not match the "
                                f"draws {draws}")
        theta = model.block_view(theta)
    if normals is None and size is None:
        # one call for the k factors and the p noise coordinates: the stream
        # yields the same values as two calls would
        normals = rng.standard_normal(k + p)
    if normals is None:  # a batch: all size x k factors, then the noise
        w = rng.standard_normal((size, k))
        z = rng.standard_normal((size, p))
    else:
        w, z = normals[..., :k], normals[..., k:]
    # (theta + shared) + noise, summed into the noise (addition commutes exactly)
    x = math.sqrt(1.0 - model.gamma) * model.block_view(z)
    x += theta + model.lift(math.sqrt(model.gamma) * w)
    return Observation(x=model.scatter_blocks(x), model=model)


def decorrelate(model: CorrelationModel, x, rng: Optional[np.random.Generator] = None,
                *, xi: Optional[np.ndarray] = None) -> np.ndarray:
    """Transform data to an identity-covariance Gaussian vector (row-wise).

    The correlated direction(s) are projected out, the remainder rescaled by
    1/sqrt(1-gamma), and a fresh independent Gaussian is injected along each
    removed direction.  The output mean is the centered signal
    (theta minus its projection on the correlation direction(s)) over
    sqrt(1-gamma); the output covariance is the identity.

    ``x`` has shape (..., p), or is an :class:`Observation`.  The k
    injections per row are drawn from ``rng`` or given as ``xi`` of shape
    (..., k); one of the two is needed.  The projections on the loadings are
    plain sums in the given layout; for sorted blocks
    (:func:`canonical_layout`) the output is bit-identical under within-block
    permutations, and its blocks are sorted too.

    Requires gamma < 1; the perfectly correlated case has its own noiseless
    test path.
    """
    if model.gamma >= 1.0:
        raise UnsupportedRegimeError("decorrelate requires gamma < 1 (use the noiseless path)")
    x = _real(x.x if isinstance(x, Observation) else x, "data")
    _check_length(x, model.p, "data")
    shape = x.shape[:-1] + (model.R,)
    if xi is not None:
        xi = _real(xi, "injections")
        if xi.shape != shape:
            raise ContractError(f"injections must have shape {shape}")
    elif rng is None:
        raise ContractError("decorrelate needs rng or xi")
    else:
        xi = rng.standard_normal(shape)
    return model.scatter_blocks(_decorrelated(model, model.block_view(x), xi))


def _decorrelated(model: CorrelationModel, a: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Decorrelation without checks: blocks ``a`` (..., k, p/k) with
    injections ``xi`` (..., k), into one new array (``a`` is not written).
    Sums run in the given layout."""
    b = model.block_size
    out = a - model.lift(model.project(a) / b)
    out *= 1.0 / math.sqrt(1.0 - model.gamma)
    out += model.lift(xi / math.sqrt(b))
    return out


def _precision_weights(model: CorrelationModel) -> tuple:
    """The two weights (1 - gamma, c) of the inverse covariance: per block,

        Sigma^-1 u = u / (1 - gamma) - c * (loadings) <loadings, u>,

    with c = gamma / ((1 - gamma)(1 - gamma + gamma p/k)) for blocks of p/k
    coordinates (Sherman-Morrison)."""
    if model.gamma >= 1.0:
        raise SingularCovarianceError("covariance is singular at gamma = 1")
    g = model.gamma
    one_minus = 1.0 - g
    return one_minus, g / (one_minus * (one_minus + g * model.block_size))


def precision_apply(model: CorrelationModel, u) -> np.ndarray:
    """Apply the inverse covariance to ``u`` in O(p) via closed-form inverses."""
    one_minus, coef = _precision_weights(model)
    u = _real(u, "vector")
    _check_length(u, model.p, "vector")
    blocks = model.block_view(u)
    return model.scatter_blocks(blocks / one_minus
                                - coef * model.lift(model.project(blocks)))


def covariance_apply(model: CorrelationModel, u) -> np.ndarray:
    """Apply the covariance to ``u`` in O(p) (valid for every gamma)."""
    u = _real(u, "vector")
    _check_length(u, model.p, "vector")
    g = model.gamma
    blocks = model.block_view(u)
    return model.scatter_blocks((1.0 - g) * blocks + g * model.lift(model.project(blocks)))
