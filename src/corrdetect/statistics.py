"""Statistics the tests threshold, evaluated on batches of observations.

Every statistic takes data of shape (..., p) and reduces the last axis; a
single vector is a batch of one and gives plain Python numbers.  Statistics
never compute thresholds; thresholding lives in ``procedures``.

Sums are plain numpy reductions in the canonical order of ``models``: the
entries of each exchangeable block are summed in ascending order, so every
statistic is bit-identical under the model's coordinate permutations.  A
model-free statistic treats each row as one block.  Rank-one pattern
projections sum in the given layout.

Each statistic is one reduction on canonical blocks (the private functions
at the end of this module): rows already in summation order, no checks.
The public functions validate their input and sort every block into
ascending order, then call the reduction.  The evaluation kernel
in ``procedures`` calls the reductions directly: its input is already
canonical (``models.canonical_layout`` sorts every block once, and
decorrelation is monotone within a block), so it neither sorts nor checks
again.

The workhorse is the thresholded square sum

    Y_t = sum_i (z_i^2 - alpha(t)) 1{|z_i| >= t},

computed as the sum of the selected squares minus count * alpha(t), so that
at t = 0 it equals ||z||^2 - p exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError
from .gaussian import alpha, alpha_cached
from .models import CorrelationModel, Grouped, Observation, RankOne

__all__ = [
    "StatisticValue",
    "thresholded_sum",
    "thresholded_profile",
    "squared_norm",
    "linear_projection",
    "scan",
    "linear_scan",
    "standardized_group_means",
    "averaged_group",
    "noiseless_residual",
]


@dataclass(frozen=True)
class StatisticValue:
    name: str
    value: object  # float for one vector, array of the batch shape otherwise
    aux: dict = field(default_factory=dict)


def _data(z) -> np.ndarray:
    z = z.x if isinstance(z, Observation) else np.asarray(z, dtype=float)
    if z.ndim < 1:
        raise ContractError("statistics need a coordinate axis")
    return z


def _out(a):
    """Python number for a single vector's result, the array for a batch."""
    return a.item() if a.ndim == 0 else a


def thresholded_sum(z, t: float) -> StatisticValue:
    """Y_t: excess energy of coordinates exceeding threshold t."""
    if t < 0:
        raise ContractError("threshold must be nonnegative")
    value, count = _tail_energy(np.sort(_data(z), axis=-1), t)
    return StatisticValue("thresholded_sum", _out(value), {"t": t, "count": _out(count)})


def thresholded_profile(z, ts: np.ndarray) -> np.ndarray:
    """Y_t for a whole grid of thresholds via one sort (adaptive scans).

    Returns shape (..., len(ts)).  Uses suffix cumulative sums over |z| in
    ascending order, so the grid evaluation stays O(p log p) per row.
    """
    ts = np.asarray(ts, dtype=float)
    return _profile_at(_sorted_suffix(_data(z)), ts, alpha(ts))


def squared_norm(z) -> StatisticValue:
    """||z||^2 summed in canonical order."""
    return StatisticValue("squared_norm", _out(_energy(np.sort(_data(z), axis=-1))), {})


def _block_sums(model, x: np.ndarray) -> np.ndarray:
    return np.sort(model.block_view(x), axis=-1).sum(axis=-1)


def linear_projection(x, model: CorrelationModel, direction="global",
                      group: Optional[int] = None) -> StatisticValue:
    """Squared normalized projection onto a correlation direction.

    direction "global": <1/sqrt(p), x>^2, null variance 1-g+g p/R (R = 1
    for the equicorrelated model).  direction "group": the group-k version
    <sqrt(R/p) 1_Bk, x>^2.  direction "pattern": <v/sqrt(p), x>^2 for the
    rank-one pattern, null variance 1-g+gp.
    """
    x = _data(x)
    p, g = model.p, model.gamma
    if direction == "global":
        if isinstance(model, RankOne):
            raise ContractError("global direction undefined for rank-one; use 'pattern'")
        return StatisticValue("linear", _out(_global_energy(_block_sums(model, x), p)),
                              {"null_variance": 1.0 - g + g * model.block_size})
    if direction == "group":
        if not isinstance(model, Grouped):
            raise ContractError("group direction requires a grouped model")
        if group is None or not (0 <= group < model.R):
            raise ContractError("group index out of range")
        sums = _block_sums(model, x)
        value = sums[..., group] ** 2 * model.R / p
        return StatisticValue("linear_group", _out(value),
                              {"group": group,
                               "null_variance": 1.0 - g + g * model.block_size})
    if direction == "pattern":
        if not isinstance(model, RankOne):
            raise ContractError("pattern direction requires a rank-one model")
        value = _global_energy(model.project(model.block_view(x)), p)
        return StatisticValue("linear_pattern", _out(value),
                              {"null_variance": 1.0 - g + g * p})
    raise ContractError(f"unknown direction {direction!r}")


def scan(xt_blocks: np.ndarray, kind: str, t: Optional[float] = None) -> StatisticValue:
    """Per-group statistic values with the maximizing group.

    ``xt_blocks`` has shape (..., R, p/R), usually decorrelated data.  kind
    "chisq": per-group squared norms.  kind "thresholded": per-group Y_t
    (needs t).  The value is the maximum; the test layer applies a common
    per-group threshold, so the scan fires iff any group exceeds it.
    """
    xt_blocks = np.asarray(xt_blocks, dtype=float)
    if xt_blocks.ndim < 2:
        raise ContractError("scan expects equal-length group rows (..., R, p/R)")
    if kind == "chisq":
        per_group = _energy(np.sort(xt_blocks, axis=-1))
    elif kind == "thresholded":
        if t is None or t < 0:
            raise ContractError("thresholded scan needs a nonnegative t")
        per_group, _ = _tail_energy(np.sort(xt_blocks, axis=-1), t)
    else:
        raise ContractError(f"unknown scan kind {kind!r}")
    return StatisticValue(f"{kind}_scan", _out(per_group.max(axis=-1)),
                          {"per_group": per_group,
                           "argmax": _out(per_group.argmax(axis=-1)), "t": t})


def linear_scan(x, model: Grouped) -> StatisticValue:
    """Max over groups of the squared normalized group projection (raw data)."""
    if not isinstance(model, Grouped):
        raise ContractError("linear scan requires a grouped model")
    per_group = _group_energy(_block_sums(model, _data(x)), model)
    return StatisticValue("linear_scan", _out(per_group.max(axis=-1)),
                          {"per_group": per_group,
                           "argmax": _out(per_group.argmax(axis=-1)),
                           "null_variance": 1.0 - model.gamma + model.gamma * model.block_size})


def standardized_group_means(x, model: Grouped) -> np.ndarray:
    """R-vector sqrt(p/R) * mean_k / sqrt(1-g+g p/R): iid N(0,1) under the null."""
    if not isinstance(model, Grouped):
        raise ContractError("group means require a grouped model")
    return _standardized_means(_block_sums(model, _data(x)), model)


def averaged_group(x, model: Grouped, kind: str, t: Optional[float] = None) -> StatisticValue:
    """Statistics of the group-mean vector.

    kind "thresholded": Y_t applied to the standardized group means.
    kind "chisq": the unstandardized group-mean energy
    sum_k ||mean_k 1_Bk||^2 = sum_k (block sum)^2 R/p, whose null law is
    (1-g+g p/R) chi^2_R.
    """
    if kind == "thresholded":
        if t is None or t < 0:
            raise ContractError("thresholded average needs a nonnegative t")
        u = standardized_group_means(x, model)
        sv = thresholded_sum(u, t)
        return StatisticValue("thresholded_avg", sv.value, dict(sv.aux))
    if kind == "chisq":
        if not isinstance(model, Grouped):
            raise ContractError("group means require a grouped model")
        value = _group_energy(_block_sums(model, _data(x)), model).sum(axis=-1)
        return StatisticValue("chisq_avg", _out(value),
                              {"null_scale": 1.0 - model.gamma + model.gamma * model.block_size})
    raise ContractError(f"unknown averaged kind {kind!r}")


def noiseless_residual(x, model: CorrelationModel) -> StatisticValue:
    """Residual energy after removing the correlation direction(s); gamma = 1 only.

    Equicorrelated / grouped: sum_k ||x_Bk - mean(x_Bk) 1||^2, computed with
    a first-entry anchor so a block of bit-identical entries gives exactly 0.
    Rank-one: ||x - <v,x> v / p||^2.  For a sign pattern v this equals
    ||u - mean(u) 1||^2 with u = v * x, computed with the same anchor, so a
    null draw (u constant) gives exactly 0; for other v exact zero is not
    attainable and verdicts use a relative tolerance.
    """
    if model.gamma < 1.0:
        raise ContractError("noiseless residual is only valid at gamma = 1")
    x = _data(x)
    if not model.exchangeable:
        coef = (model.v * x).sum(axis=-1) / model.p
        return StatisticValue("noiseless_residual", _out(_pattern_residual(x, model)),
                              {"projection": _out(coef)})
    value = _block_residual(np.sort(model.block_view(x), axis=-1))
    return StatisticValue("noiseless_residual", _out(value), {})


# ---------------------------------------------------------------------------
# reductions on canonical blocks: every row (last axis) is already in
# summation order, and the input is not checked.  They call the ufunc
# reductions that ndarray.sum and ndarray.max run (np.add.reduce,
# np.maximum.reduce) directly: the evaluation kernel runs them once per
# replication on small blocks, where the method wrappers cost as much as
# the sums.


def _energy(z: np.ndarray) -> np.ndarray:
    return np.add.reduce(z * z, axis=-1)


def _tail_energy(z: np.ndarray, t: float) -> tuple:
    """(Y_t, count of |z_i| >= t) per row."""
    mask = np.abs(z) >= t
    sq = z * z
    np.copyto(sq, 0.0, where=~mask)
    count = np.add.reduce(mask, axis=-1)
    return np.add.reduce(sq, axis=-1) - count * alpha_cached(t), count


def _sorted_suffix(z: np.ndarray) -> tuple:
    """|z| sorted ascending per row (rows in any order), and the suffix sums
    of its squares with a trailing 0: what :func:`_profile_at` reads for any
    threshold grid."""
    a = np.sort(np.abs(z), axis=-1)
    sq = a * a
    suffix = np.concatenate([np.cumsum(sq[..., ::-1], axis=-1)[..., ::-1],
                             np.zeros(a.shape[:-1] + (1,))], axis=-1)
    return a, suffix


def _profile_at(sorted_suffix: tuple, ts: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Y_t per row for every t in ``ts``, with ``alphas`` = alpha(ts)."""
    a, suffix = sorted_suffix
    p = a.shape[-1]
    rows = a.reshape(-1, p)
    idx = np.stack([np.searchsorted(row, ts) for row in rows])
    # gathered from the flat suffix sums, where row r starts at r * (p + 1)
    tails = suffix.reshape(-1)[idx + (p + 1) * np.arange(rows.shape[0])[:, None]]
    return (tails - (p - idx) * alphas).reshape(a.shape[:-1] + ts.shape)


def _global_energy(sums: np.ndarray, p: int) -> np.ndarray:
    """Squared normalized global projection from per-block sums (..., K)."""
    total = np.add.reduce(sums, axis=-1)
    return total * total / p


def _group_energy(sums: np.ndarray, model: Grouped) -> np.ndarray:
    """Squared normalized group projections from per-block sums (..., R)."""
    return sums * sums * (model.R / model.p)


def _standardized_means(sums: np.ndarray, model: Grouped) -> np.ndarray:
    bs = model.block_size
    sigma = math.sqrt(1.0 - model.gamma + model.gamma * bs)
    return sums / (math.sqrt(bs) * sigma)


def _pattern_residual(x: np.ndarray, model: RankOne) -> np.ndarray:
    """||x - <v,x> v / p||^2 per row, anchored for sign patterns."""
    u = model.v * x
    if model.sign_pattern:
        r = _anchored_residual(u)
    else:
        r = x - (np.add.reduce(u, axis=-1, keepdims=True) / model.p) * model.v
    return np.add.reduce(r * r, axis=-1)


def _block_residual(blocks: np.ndarray) -> np.ndarray:
    """sum_k ||x_Bk - mean(x_Bk) 1||^2 per row of blocks (..., K, b)."""
    r = _anchored_residual(blocks)
    return np.add.reduce((r * r).reshape(blocks.shape[:-2] + (-1,)), axis=-1)


def _anchored_residual(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` minus their means, anchored at the first entry so that a
    row of bit-identical entries gives exactly 0."""
    d = a - a[..., :1]
    return d - np.add.reduce(d, axis=-1, keepdims=True) / d.shape[-1]
