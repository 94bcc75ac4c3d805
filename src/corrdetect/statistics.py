"""Statistics the tests threshold: one table of constituent reductions.

Every constituent kind of a test (see ``procedures``) is one entry of the
kind table ``_REDUCTIONS``, a :class:`Reduction`: the data it reads (raw,
decorrelated, or the ``profile_input`` of the decorrelated rows), a
reduction of canonical blocks (..., k, p/k) to parts -- one value per block,
or per member of an adaptive scan -- and the step that combines the parts (a
sum or a maximum; none when the reduction gives the statistic itself).  The
evaluation kernel in ``procedures`` applies the table (``REDUCTIONS``) to
data it has put in canonical layout once; :func:`value` is the public
entry, and the named statistics (``thresholded_sum``, ``scan``, ...) are
views of it.  An entry also names the parameter at which alpha is resolved
once per plan (:func:`resolved`), and whether its null statistic is exactly
0 (``exact_null``, so never calibrated).  A kind the model cannot carry is
refused by the family's kind set, ``KINDS``.

Sums are plain numpy reductions in the canonical order of ``models``: the
entries of each exchangeable block are summed in ascending order, so every
statistic is bit-identical under the model's coordinate permutations.
Rank-one raw data keeps its given layout.  The workhorse is the thresholded
square sum

    Y_t = sum_i (z_i^2 - alpha(t)) 1{|z_i| >= t},

computed as the sum of the selected squares minus count * alpha(t), so that
at t = 0 it equals ||z||^2 - p exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ContractError, DomainError
from .gaussian import alpha
from .models import CorrelationModel, _real

__all__ = [
    "StatisticValue", "Reduction", "REDUCTIONS", "KINDS", "value", "resolved", "profile_input",
    "thresholded_sum", "thresholded_profile", "squared_norm", "linear_projection", "scan",
    "linear_scan", "averaged_group", "noiseless_residual",
]

_RANK_ONE_RESIDUAL_RTOL = 1e-10  # zero tolerance for a non-sign-pattern residual


@dataclass(frozen=True)
class StatisticValue:
    name: str
    value: object  # float for one vector, array of the batch shape otherwise
    aux: dict = field(default_factory=dict)


class Reduction(NamedTuple):
    reads: str  # "raw", "decorrelated" or "profile"
    parts: Callable  # (input, model, params) -> parts (..., m), or the statistic
    combine: Optional[Callable]  # np.add.reduce, np.maximum.reduce or None
    alpha_at: Optional[str] = None  # the parameter params["alpha"] is alpha of
    exact_null: bool = False  # the statistic is 0 under the null


# ---------------------------------------------------------------------------
# reductions on canonical blocks, rows already in summation order and not
# checked.  They call np.add.reduce and np.maximum.reduce, the ufunc
# reductions behind ndarray.sum and ndarray.max, without the method wrappers,
# which cost as much as the sums on the kernel's small per-replication blocks.
_ADD, _MAX = np.add.reduce, np.maximum.reduce


def _chisq(z: np.ndarray, model=None, params=None) -> np.ndarray:
    """||z||^2 per row."""
    return _ADD(z * z, axis=-1)


def _thresholded(z: np.ndarray, model, params) -> np.ndarray:
    """Y_t per row, t = ``params["t"]``.  Only coordinates with |z| < t are
    zeroed, so a NaN coordinate makes its row NaN."""
    below = np.abs(z) < params["t"]
    sq = z * z
    np.copyto(sq, 0.0, where=below)
    return _ADD(sq, axis=-1) - (z.shape[-1] - _ADD(below, axis=-1)) * params["alpha"]


def profile_input(blocks: np.ndarray) -> tuple:
    """What the adaptive scans read: |z| of each row of ``blocks``
    (..., k, b), sorted ascending, and the suffix sums of its squares with a
    trailing 0.  It holds Y_t for any threshold grid, so every adaptive
    member of a plan shares one."""
    a = np.sort(np.abs(blocks.reshape(blocks.shape[:-2] + (-1,))), axis=-1)
    sq = a * a
    suffix = np.concatenate([np.cumsum(sq[..., ::-1], axis=-1)[..., ::-1],
                             np.zeros(a.shape[:-1] + (1,))], axis=-1)
    return a, suffix


def _adaptive(profile: tuple, model, params) -> np.ndarray:
    """Y_t / shape for each member (t, shape) of an adaptive scan."""
    a, suffix = profile
    ts = params["ts"]
    p = a.shape[-1]
    rows = a.reshape(-1, p)
    idx = np.stack([np.searchsorted(row, ts) for row in rows])
    # gathered from the flat suffix sums, where row r starts at r * (p + 1)
    tails = suffix.reshape(-1)[idx + (p + 1) * np.arange(rows.shape[0])[:, None]]
    values = tails - (p - idx) * params["alpha"]
    return values.reshape(a.shape[:-1] + ts.shape) / params["shapes"]


def _linear(a, model, params) -> np.ndarray:
    """Squared normalized projection on the model's loadings, <l, x>^2 / p."""
    total = _ADD(model.project(a), axis=-1)
    return total * total / model.p


def _group_linear(a, model, params) -> np.ndarray:
    """Squared normalized group projections (block sum)^2 R/p, per block."""
    sums = _ADD(a, axis=-1)
    return sums * sums * (model.R / model.p)


def _averaged(a, model, params) -> np.ndarray:
    """Y_t of the standardized group means sqrt(p/R) mean_k / sqrt(1-g+g p/R),
    iid N(0, 1) under the null."""
    bs = model.block_size
    sigma = math.sqrt(1.0 - model.gamma + model.gamma * bs)
    u = _ADD(a, axis=-1) / (math.sqrt(bs) * sigma)
    return _thresholded(np.sort(u, axis=-1), model, params)


def _noiseless(a, model, params) -> np.ndarray:
    """Residual energy sum_k ||x_Bk - mean(x_Bk) 1||^2, or ||x - <v,x> v/p||^2
    for rank-one blocks: ||u - mean(u) 1||^2 with u = v * x for a sign pattern.
    A first-entry anchor makes a null draw (a block or u constant) exactly 0;
    for other v exact zero is not attainable, and a residual within a
    relative tolerance of the energy counts as 0."""
    if model.exchangeable:
        r = _anchored_residual(a)
        return _ADD((r * r).reshape(a.shape[:-2] + (-1,)), axis=-1)
    x = a[..., 0, :]
    u = model.v * x
    if model.sign_pattern:
        r = _anchored_residual(u)
        return _ADD(r * r, axis=-1)
    r = x - (_ADD(u, axis=-1, keepdims=True) / model.p) * model.v
    residual = _ADD(r * r, axis=-1)
    return np.where(residual <= _RANK_ONE_RESIDUAL_RTOL * (1.0 + _chisq(x)), 0.0, residual)


def _anchored_residual(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` minus their means, anchored at the first entry so that a
    row of bit-identical entries gives exactly 0."""
    d = a - a[..., :1]
    return d - _ADD(d, axis=-1, keepdims=True) / d.shape[-1]


# constituent kind -> its statistic; see the module docstring
_REDUCTIONS = {
    "thresholded": Reduction("decorrelated", _thresholded, _ADD, "t"),
    "chisq": Reduction("decorrelated", _chisq, _ADD),
    "chisq_scan": Reduction("decorrelated", _chisq, _MAX),
    "thresholded_scan": Reduction("decorrelated", _thresholded, _MAX, "t"),
    "adaptive_scan": Reduction("profile", _adaptive, _MAX, "ts"),
    "linear": Reduction("raw", _linear, None),
    "linear_scan": Reduction("raw", _group_linear, _MAX),
    "thresholded_avg": Reduction("raw", _averaged, None, "t"),
    "chisq_avg": Reduction("raw", _group_linear, _ADD),
    "noiseless": Reduction("raw", _noiseless, None, exact_null=True),
    # rank-one raw blocks keep their layout, and the energy is summed sorted
    "chisq_raw": Reduction("raw", lambda a, m, prm: _chisq(
        a if m.exchangeable else np.sort(a, axis=-1)), _ADD),
}

# the table, read-only, for the evaluation kernel in ``procedures``
REDUCTIONS = MappingProxyType(_REDUCTIONS)

# family -> the kinds its models carry: those its tests are planned from
# (``procedures._plan``) and the projection on the model's own loadings.
# None: model-free blocks, which carry the kinds that read decorrelated data.
KINDS = {
    None: frozenset(kind for kind, r in _REDUCTIONS.items() if r.reads != "raw"),
    "equicorrelated": frozenset({"thresholded", "chisq", "linear", "adaptive_scan",
                                 "noiseless", "chisq_raw"}),
    "grouped": frozenset(_REDUCTIONS) - {"adaptive_scan"},  # a single-random-effect scan
    "rank_one": frozenset({"thresholded", "chisq", "linear", "noiseless", "chisq_raw"}),
}


def _data(z) -> np.ndarray:
    z = _real(z, "data")
    if z.ndim < 1:
        raise ContractError("statistics need a coordinate axis")
    return z


def _out(a):
    """Python number for a single vector's result, the array for a batch."""
    return a.item() if a.ndim == 0 else a


def resolved(kind: str, params: dict) -> dict:
    """A copy of a plan's params with ``params["alpha"]``, alpha at the
    threshold(s) ``REDUCTIONS[kind].alpha_at``, resolved once per plan;
    ``params`` itself for a kind that thresholds nothing."""
    at = _REDUCTIONS[kind].alpha_at
    return params if at is None else {**params, "alpha": alpha(params[at])}


def value(kind: str, x, model: Optional[CorrelationModel] = None, **params) -> StatisticValue:
    """The statistic of a constituent kind on the data it reads (raw or
    decorrelated, ``REDUCTIONS[kind].reads``): shape (..., p) with a model,
    without one blocks (..., k, b), each row one block.  Every block is
    sorted into canonical order (rank-one raw data keeps its layout), then
    the kind's reduction and combine step apply.  ``params`` (``t``, or
    ``ts`` and ``shapes``) given as None count as missing.  A kind combined
    by a maximum (the scans) also reports its parts, ``aux["per_group"]``,
    and the maximizing part, ``aux["argmax"]``.  A NaN statistic (the data
    hold a NaN, or infinities that cancel) raises :class:`DomainError`."""
    family = None if model is None else model.family
    if kind not in KINDS[family]:
        raise ContractError(f"no {kind!r} statistic for {family or 'model-free blocks'}")
    reads, parts, combine, _, _ = _REDUCTIONS[kind]
    x = _data(x)
    if model is not None:
        if x.shape[-1] != model.p:
            raise ContractError("data length does not match model dimension")
        x = model.block_view(x)
    elif x.ndim < 2:
        raise ContractError("model-free data must be equal-length blocks (..., k, b)")
    if reads != "raw" or model.exchangeable:  # model-free kinds read decorrelated data
        x = np.sort(x, axis=-1)
    if reads == "profile":
        x = profile_input(x)
    params = {key: v for key, v in params.items() if v is not None}
    if params.get("t", 0.0) < 0:
        raise ContractError("threshold must be nonnegative")
    try:
        y = parts(x, model, resolved(kind, params))
    except KeyError as missing:
        raise ContractError(f"the {kind!r} statistic needs the parameter {missing}") from None
    total = y if combine is None else combine(y, axis=-1)
    if np.isnan(total).any():
        raise DomainError(f"the {kind!r} statistic is NaN: the data hold a NaN or infinities")
    aux = {"per_group": y, "argmax": _out(y.argmax(axis=-1))} if combine is _MAX else {}
    return StatisticValue(kind, _out(total), aux)


# ---------------------------------------------------------------------------
# the named statistics: views of ``value``


def _one_block(z) -> np.ndarray:
    return _data(z)[..., None, :]


def thresholded_sum(z, t: float) -> StatisticValue:
    """Y_t: excess energy of coordinates exceeding threshold t."""
    return value("thresholded", _one_block(z), t=t)


def thresholded_profile(z, ts: np.ndarray) -> np.ndarray:
    """Y_t for a whole grid of thresholds via one sort, shape (..., len(ts)):
    the parts of an adaptive scan with unit shapes."""
    return value("adaptive_scan", _one_block(z), ts=np.asarray(ts, dtype=float),
                 shapes=1.0).aux["per_group"]


def squared_norm(z) -> StatisticValue:
    """||z||^2 summed in canonical order."""
    return value("chisq", _one_block(z))


def linear_projection(x, model: CorrelationModel, direction="global",
                      group: Optional[int] = None) -> StatisticValue:
    """Squared normalized projection on a correlation direction: "global"
    <1/sqrt(p), x>^2 (exchangeable models), "group" the group-k version
    <sqrt(R/p) 1_Bk, x>^2 (part k of the linear scan), "pattern"
    <v/sqrt(p), x>^2 (rank-one)."""
    if direction == "group":
        if group is None or not (0 <= group < model.R):
            raise ContractError("group index out of range")
        return StatisticValue("linear_group", _out(
            value("linear_scan", x, model).aux["per_group"][..., group]))
    own = "global" if model.exchangeable else "pattern"  # the model's loadings
    if direction != own:
        raise ContractError(f"the {model.family} model projects on its {own!r} direction, "
                            f"not {direction!r}")
    return value("linear", x, model)


def scan(xt_blocks: np.ndarray, kind: str, t: Optional[float] = None) -> StatisticValue:
    """Max over the groups ``xt_blocks`` (..., R, p/R), usually decorrelated,
    of their squared norms (kind "chisq") or Y_t (kind "thresholded")."""
    return value(f"{kind}_scan", xt_blocks, t=t)


def linear_scan(x, model: CorrelationModel) -> StatisticValue:
    """Max over groups of the squared normalized group projection (raw data)."""
    return value("linear_scan", x, model)


def averaged_group(x, model: CorrelationModel, kind: str,
                   t: Optional[float] = None) -> StatisticValue:
    """Y_t of the standardized group means (kind "thresholded"), or the
    group-mean energy sum_k (block sum)^2 R/p, null law (1-g+g p/R) chi^2_R
    (kind "chisq")."""
    return value(f"{kind}_avg", x, model, t=t)


def noiseless_residual(x, model: CorrelationModel) -> StatisticValue:
    """Residual energy after removing the correlation direction(s); gamma = 1
    only.  See ``_noiseless``."""
    if model.gamma < 1.0:
        raise ContractError("noiseless residual is only valid at gamma = 1")
    return value("noiseless", x, model)
