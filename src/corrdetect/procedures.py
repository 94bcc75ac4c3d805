"""Test procedures: plans, thresholds, null calibration and the evaluation kernel.

A test procedure is an OR over constituents.  Each constituent pairs a
statistic plan -- a constituent kind and its parameters -- with a
threshold.  The statistic of every kind is an entry of the kind table in
``statistics``; this module plans which kinds a test uses (``_plan``, from
the family's kind set ``statistics.KINDS``), sets their thresholds, and
runs the table on batches of canonical data (``_values``, the one
evaluation path of ``evaluate`` and of calibration).  Two operating modes
share identical statistic plans:

* ``paper_constants``: thresholds follow the closed forms driven by a single
  constant C (sound but very conservative);
* ``calibrated`` (default): each constituent's threshold is the empirical
  (1 - eta/(2 m)) null quantile from seeded null replications, where m counts
  the constituents with a nondegenerate null.  The union bound then budgets
  eta/2 for type I,

      P_0(some constituent fires) <= sum_j P_0(constituent j fires)
                                  <= m * eta/(2 m) = eta/2,

  mirroring the eta/2 + eta/2 accounting behind the closed-form constants.
  Each constituent's own budget is reported as ``budget_per_constituent``.

Constituents and which regimes use them (base size b = p/R, log(eR) = 1+log R):

    thresholded        Y_t on decorrelated data; sparse regimes
    chisq              ||X~||^2; dense regimes (grouped: summed over blocks)
    linear             squared global mean projection; mean-dominated regimes
    chisq_scan         max_k ||X~_Bk||^2; group-scan regimes
    thresholded_scan   max_k Y_t^(k); dense group-scan regimes
    linear_scan        max_k squared group projection
    thresholded_avg    Y_t of standardized group means
    chisq_avg          group-mean energy; dense averaged regime
    noiseless          residual after removing correlation directions (g=1)
    chisq_raw          ||X||^2 on raw data (g=1, fully dense)
    adaptive scans     max over sparsity levels of Y_{t(s)} / shape(s)

The adaptive composite scans every sparsity level below sqrt(p) and every
level above p - sqrt(p), normalizing each member by its threshold shape so a
single cutoff calibrates the whole maximum jointly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import CalibrationError, ContractError, DomainError, UnsupportedRegimeError
from .gaussian import alpha
from .geometry import omega as pattern_omega
from .models import (
    _BLOCK_ELEMENTS,
    CorrelationModel,
    Observation,
    _decorrelated,
    canonical_layout,
    decorrelate,  # noqa: F401  benchmarks/bench_tracer.py wraps procedures.decorrelate
    model_from,
)
from .statistics import REDUCTIONS, profile_input

__all__ = [
    "Constituent",
    "TestProcedure",
    "Verdict",
    "ThresholdRecord",
    "build_test",
    "evaluate",
    "calibrate_null_quantile",
    "model_for",
    "MIN_N_CAL",
]

MIN_N_CAL = 1000  # fewest null replications per calibration
_MIN_TAIL = 20  # calibration needs this many expected replications past the quantile


def _sparse_shape(p: int, s: int) -> float:
    return s * math.log1p(p / s ** 2)


def _dense_shape(p: int, s: int) -> float:
    return (p - s) * math.log1p(p / (p - s) ** 2)


def _sparse_t(p: int, s: int) -> float:
    return math.sqrt(2.0 * math.log1p(p / s ** 2))


def _dense_t(p: int, s: int) -> float:
    return math.sqrt(2.0 * math.log1p(p / (p - s) ** 2))


@dataclass(frozen=True, eq=False)
class Constituent:
    """One statistic plus its threshold rule (reject iff value > threshold)."""

    name: str
    kind: str
    params: dict
    threshold: float
    threshold_note: str
    deterministic_null: bool = False

    def descriptor(self) -> dict:
        params = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                  for k, v in self.params.items()}
        return {"name": self.name, "kind": self.kind, "params": params,
                "threshold": self.threshold, "rule": self.threshold_note}


@dataclass(frozen=True, eq=False)
class TestProcedure:
    __test__ = False  # not a pytest test class, under any name a test imports it by

    name: str
    family: str
    p: int
    s: Union[int, str]
    gamma: float
    R: Optional[int]
    v: Optional[np.ndarray]
    mode: str
    constituents: tuple
    eta: Optional[float] = None
    C: Optional[float] = None
    calibration: Optional[dict] = None
    # the constituents resolved for the evaluation kernel once, at
    # construction: ((name, kind, params, threshold), ...) with the params of
    # ``_kernel_items``, whether any constituent reads decorrelated data, and
    # {name: threshold}
    kernel_plan: tuple = field(init=False, repr=False)

    def __post_init__(self):
        items = _kernel_items((c.name, c.kind, c.params, c.threshold)
                              for c in self.constituents)
        thresholds = {c.name: c.threshold for c in self.constituents}
        object.__setattr__(self, "kernel_plan",
                           (items, _reads_decorrelated(items), thresholds))

    def descriptor(self) -> dict:
        return {
            "name": self.name, "family": self.family, "p": self.p, "s": self.s,
            "gamma": self.gamma, "R": self.R,
            "v": None if self.v is None else list(self.v),
            "mode": self.mode, "eta": self.eta, "C": self.C,
            "calibration": self.calibration,
            "constituents": [c.descriptor() for c in self.constituents],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.descriptor(), **kw)


@dataclass(frozen=True, slots=True)  # slots: one is built per replication
class Verdict:
    reject: bool
    fired: tuple
    values: dict
    thresholds: dict


@dataclass(frozen=True)
class ThresholdRecord:
    """Calibrated threshold with order-statistic uncertainty.

    ``wilson_low``/``wilson_high`` bracket the threshold by the order
    statistics at the Wilson interval for the target coverage q.
    """

    value: float
    q: float
    n_cal: int
    wilson_low: float
    wilson_high: float


def model_for(test: "TestProcedure") -> CorrelationModel:
    """The test's model; a rank-one model shares the test's pattern array."""
    return model_from(test.family, test.p, test.gamma, test.R, test.v)


# ---------------------------------------------------------------------------
# statistic plans


def _plan(model: CorrelationModel, s) -> list:
    """(name, kind, params, paper_rule) quadruples; paper_rule maps C -> threshold."""
    p, gamma = model.p, model.gamma
    if model.family == "equicorrelated":
        return _plan_adaptive(p, gamma) if s == "adaptive" else _plan_equicorrelated(p, s, gamma)
    if s == "adaptive":
        raise ContractError("the adaptive composite is defined for the single random effect")
    if model.family == "grouped":
        return _plan_grouped(p, s, gamma, model.R)
    return _plan_rank_one(p, s, gamma, model.v)


def _chisq_item(p, scale=2.0):
    return ("chisq", "chisq", {}, lambda C: p + (C ** 2 / scale) * math.sqrt(p))


def _sparse_item(p, s, scale):
    return ("thresholded", "thresholded", {"t": _sparse_t(p, s)},
            lambda C, sh=_sparse_shape(p, s): (C ** 2 / scale) * sh)


def _linear_item(p, gamma, bs):
    sigma_sq = 1.0 - gamma + gamma * bs
    return ("linear", "linear", {"sigma_sq": sigma_sq},
            lambda C: sigma_sq * (1.0 + C ** 2 / 2.0))


def _plan_equicorrelated(p: int, s, gamma: float) -> list:
    root = math.sqrt(p)
    if gamma == 1.0:
        if s < p:
            return [("noiseless", "noiseless", {}, lambda C: 0.0)]
        return [("chisq_raw", "chisq_raw", {}, lambda C: p + (C ** 2 / 2.0) * p)]
    items = [_sparse_item(p, s, 32.0) if s < root else _chisq_item(p)]
    if s > p / 2:  # and so s >= root: items holds chisq
        if s >= p:  # s == p: the mean direction alone carries the separation
            items = []
        elif s > p - root:
            items.append(("thresholded_dense", "thresholded", {"t": _dense_t(p, s)},
                          lambda C, sh=_dense_shape(p, s): (C ** 2 / 8.0) * sh))
        items.append(_linear_item(p, gamma, p))
    return items


def _plan_grouped(p: int, s, gamma: float, R: int) -> list:
    bs = p // R
    log_er = 1.0 + math.log(R)
    if gamma == 1.0:
        items = [("noiseless", "noiseless", {}, lambda C: 0.0)]
        if s >= bs:
            items.append(_grouped_avg_item(p, s, 1.0, R))
        return items
    items = [_sparse_item(p, s, 64.0) if s < math.sqrt(p) else _chisq_item(p, scale=16.0)]
    if s <= p / (4 * R):
        return items
    if s < bs:
        # scan regime: constituent choice follows which term attains the
        # rate minimum (first branch wins ties; tie rule is plumbing, not
        # dictated by the closed forms).
        from .rates import _grouped_scan_sq
        _, first, cap, sub = _grouped_scan_sq(p, s, gamma, R)
        if first <= cap:
            if sub == "scan-moderate":
                items.append(("chisq_scan", "chisq_scan", {},
                              lambda C, b=bs, le=log_er:
                              b + 2.0 * math.sqrt(b * (C ** 2 / 128.0) * le)
                              + 2.0 * (C ** 2 / 128.0) * le))
            else:
                t = math.sqrt(2.0 * math.log1p(R * p * log_er / (p - R * s) ** 2))
                shape = (bs - s) * math.log1p(R * p * log_er / (p - R * s) ** 2) + math.log(R)
                items.append(("thresholded_scan", "thresholded_scan", {"t": t},
                              lambda C, sh=shape: (C ** 2 / 64.0) * sh))
        else:
            sigma_sq = 1.0 - gamma + gamma * bs
            items.append(("linear_scan", "linear_scan", {"sigma_sq": sigma_sq},
                          lambda C, ss=sigma_sq, le=log_er:
                          ss * (1.0 + (C ** 2 / 64.0) * le)))
        return items
    items.append(_grouped_avg_item(p, s, gamma, R))
    return items


def _grouped_avg_item(p: int, s: int, gamma: float, R: int):
    bs = p // R
    sigma_sq = 1.0 - gamma + gamma * bs
    if s < p / math.sqrt(R):
        t = math.sqrt(2.0 * math.log1p(p ** 2 / (R * s ** 2)))
        shape = (4.0 * R * s / p) * math.log1p(p ** 2 / (16.0 * R * s ** 2))
        return ("thresholded_avg", "thresholded_avg", {"t": t},
                lambda C, sh=shape: (C ** 2 / 64.0) * sh)
    return ("chisq_avg", "chisq_avg", {"sigma_sq": sigma_sq},
            lambda C, ss=sigma_sq: ss * (R + (C ** 2 / 16.0) * math.sqrt(R)))


def _plan_rank_one(p: int, s, gamma: float, v: np.ndarray) -> list:
    if gamma == 1.0:
        v0 = int(np.count_nonzero(v))
        if s < v0:
            return [("noiseless", "noiseless", {}, lambda C: 0.0)]
        return [("chisq_raw", "chisq_raw", {}, lambda C: p + (C ** 2 / 2.0) * p)]
    w = pattern_omega(v)
    if s > w:
        raise UnsupportedRegimeError(
            f"rank-one tests are characterized only for s <= omega(v) = {w}")
    return [_sparse_item(p, s, 16.0) if s <= math.sqrt(p) else _chisq_item(p)]


def _plan_adaptive(p: int, gamma: float) -> list:
    if gamma == 1.0:
        raise ContractError("the adaptive composite assumes gamma < 1")
    root = math.sqrt(p)
    items = []
    sparse_members = np.arange(1, math.ceil(root))
    sparse_members = sparse_members[sparse_members < root]
    if sparse_members.size:
        ts = np.array([_sparse_t(p, int(s)) for s in sparse_members])
        shapes = np.array([_sparse_shape(p, int(s)) for s in sparse_members])
        items.append(("adaptive_sparse", "adaptive_scan",
                      {"ts": ts, "shapes": shapes, "members": sparse_members},
                      lambda C: C ** 2 / 32.0))
    items.append(_chisq_item(p))
    lo = int(math.floor(p - root)) + 1
    dense_members = np.arange(max(lo, 1), p)
    dense_members = dense_members[dense_members > p - root]
    if dense_members.size:
        ts = np.array([_dense_t(p, int(s)) for s in dense_members])
        shapes = np.array([_dense_shape(p, int(s)) for s in dense_members])
        items.append(("adaptive_dense", "adaptive_scan",
                      {"ts": ts, "shapes": shapes, "members": dense_members},
                      lambda C: C ** 2 / 8.0))
    items.append(_linear_item(p, gamma, p))
    return items


# ---------------------------------------------------------------------------
# statistic evaluation


def _reads_decorrelated(items) -> bool:
    return any(REDUCTIONS[kind].reads != "raw" for _, kind, _, _ in items)


def _kernel_items(items) -> tuple:
    """Plan items (name, kind, params, rule) with alpha(ts) of every adaptive
    scan resolved once, into a params copy: the constituent's own params, and
    so its descriptor, stay as planned."""
    return tuple((name, kind, {**params, "alphas": alpha(params["ts"])}
                  if kind == "adaptive_scan" else params, rule)
                 for name, kind, params, rule in items)


def _values(items, x: np.ndarray, model: CorrelationModel,
            xi: Optional[np.ndarray] = None) -> dict:
    """The evaluation kernel: every plan's value on each row of ``x``.

    ``x`` (n, p) must be in the canonical layout of ``model``
    (``models.canonical_layout``).  The kernel views it as blocks
    (n, k, p/k), every block sorted; rank-one data is one block in its given
    layout.  Plans that read decorrelated data get those blocks decorrelated
    once with the injections ``xi`` (n, k); decorrelation is monotone within
    a block, so they stay sorted, and blocks that are not exchangeable
    (rank-one) are sorted here.  Each plan's statistic is then its entry of
    the kind table (``statistics.REDUCTIONS``): the parts, then the combine
    step, with no further sort or check; the adaptive scans share one
    profile of the decorrelated rows.  Returns {name: (n,) array}.
    """
    raw = model.block_view(x)
    dec = profile = None
    values = {}
    for name, kind, params, _ in items:
        reads, parts, combine = REDUCTIONS[kind]
        a = raw
        if reads != "raw":
            if dec is None:
                dec = _decorrelated(model, raw, xi)
                if not model.exchangeable:
                    dec = np.sort(dec, axis=-1)
            a = dec
            if reads == "profile":
                if profile is None:
                    profile = profile_input(dec)
                a = profile
        y = parts(a, model, params)
        values[name] = y if combine is None else combine(y, axis=-1)
    return values


# ---------------------------------------------------------------------------
# calibration


def _wilson_bounds(q: float, n: int, z: float = 2.0) -> tuple:
    denom = n + z * z
    center = (q * n + z * z / 2.0) / denom
    half = z * math.sqrt(q * (1.0 - q) * n + z * z / 4.0) / denom
    return max(0.0, center - half), min(1.0, center + half)


def calibrate_null_quantile(items, model: CorrelationModel, q: float, n_cal: int,
                            rng: np.random.Generator) -> dict:
    """Empirical null q-quantiles for one or several statistic plans.

    Simulates ``n_cal`` null observations once and evaluates every plan on
    each, so a composite's constituents are calibrated on a common stream.
    Replications run in blocks of at most ``_BLOCK_ELEMENTS // p`` rows
    through the evaluation kernel; each block takes its standard normals in
    one draw whose rows follow the single-draw stream layout (see
    ``models``), so the values equal those of ``n_cal`` sequential
    ``sample`` + ``evaluate`` calls up to summation rounding.
    Refuses when fewer than 20 replications are expected beyond the quantile.
    Returns {name: ThresholdRecord}.
    """
    if not (0.0 < q < 1.0):
        raise ContractError("quantile level must lie in (0, 1)")
    if n_cal < MIN_N_CAL:
        raise ContractError(f"n_cal must be at least {MIN_N_CAL}")
    expected_tail = n_cal * (1.0 - q)
    # relative slack: 1600 * (1 - 0.9875) rounds to 19.999...
    if expected_tail < _MIN_TAIL * (1.0 - 1e-9):
        raise CalibrationError(
            f"n_cal={n_cal} leaves only {expected_tail:.1f} expected replications "
            f"beyond the {q} quantile; need >= {_MIN_TAIL} (raise n_cal or lower q)")
    from .models import sample as draw
    items = _kernel_items(items)
    p, k = model.p, model.R
    k_xt = k if _reads_decorrelated(items) else 0
    rows = max(1, _BLOCK_ELEMENTS // p)
    values = {name: np.empty(n_cal) for name, _, _, _ in items}
    for start in range(0, n_cal, rows):
        n = min(rows, n_cal - start)
        # one row per replication: [k factors | p noise | k_xt injections]
        normals = rng.standard_normal((n, k + p + k_xt))
        obs = draw(model, None, normals=normals[:, :k + p])
        x, layout = canonical_layout(model, obs.x)
        for name, v in _values(items, x, layout, xi=normals[:, k + p:]).items():
            values[name][start:start + n] = v
    out = {}
    lo_q, hi_q = _wilson_bounds(q, n_cal)
    for name, arr in values.items():
        arr.sort()
        k = max(1, math.ceil(q * n_cal))
        k_lo = max(1, math.ceil(lo_q * n_cal))
        k_hi = min(n_cal, max(1, math.ceil(hi_q * n_cal)))
        out[name] = ThresholdRecord(
            value=float(arr[k - 1]), q=q, n_cal=n_cal,
            wilson_low=float(arr[k_lo - 1]), wilson_high=float(arr[k_hi - 1]))
    return out


# ---------------------------------------------------------------------------
# public construction / evaluation


def build_test(family: str, p: int, s, gamma: float, *, R: Optional[int] = None,
               v=None, mode: str = "calibrated", eta: float = 0.1,
               n_cal: int = 4000, C: Optional[float] = None,
               rng: Optional[np.random.Generator] = None,
               seed_label: Optional[str] = None) -> TestProcedure:
    """Assemble the regime-correct composite for a parameter configuration.

    ``s`` is an integer sparsity or "adaptive" (single random effect only).
    In ``paper_constants`` mode thresholds follow the closed forms at the
    given C.  In ``calibrated`` mode each constituent with a nondegenerate
    null gets the empirical (1 - eta/(2 m)) null quantile from ``n_cal``
    replications drawn from ``rng``.
    """
    if s != "adaptive":
        s = int(s)
        if not (1 <= s <= p):
            raise ContractError("need 1 <= s <= p")
    if v is not None:
        # one frozen copy, shared by every model built for this test
        v = np.array(v, dtype=float)
        v.setflags(write=False)
    model = model_from(family, p, gamma, R, v)
    items = _plan(model, s)
    calibration = None
    if mode == "paper_constants":
        if C is None:
            raise ContractError("paper_constants mode needs the constant C")
        rules = {name: (float(rule(C)), f"paper form at C={C}") for name, _, _, rule in items}
    elif mode == "calibrated":
        if rng is None:
            raise ContractError("calibrated mode needs a calibration stream")
        random_items = [it for it in items if it[1] != "noiseless"]
        m = len(random_items)
        records = (calibrate_null_quantile(random_items, model, 1.0 - eta / (2.0 * m), n_cal, rng)
                   if m else {})
        rules = {name: (rec.value, f"calibrated q={rec.q}") for name, rec in records.items()}
        calibration = {
            "eta": eta, "n_cal": n_cal, "seed": seed_label,
            "budget_per_constituent": None if not m else eta / (2.0 * m),
            "thresholds": {name: rec.__dict__ for name, rec in records.items()},
        }
    else:
        raise ContractError(f"unknown mode {mode!r}")
    constituents = tuple(  # a calibrated noiseless constituent has no rule: its null is 0
        Constituent(name, kind, params, *rules.get(name, (0.0, "exact null residual")),
                    deterministic_null=(kind == "noiseless"))
        for name, kind, params, _ in items)
    label = s if isinstance(s, str) else f"s={s}"
    name = f"{family}:{label}:gamma={gamma}"
    return TestProcedure(name=name, family=family, p=p, s=s, gamma=gamma, R=R,
                         v=v, mode=mode, constituents=constituents, eta=eta,
                         C=C, calibration=calibration)


def evaluate(test: TestProcedure, obs: Observation,
             rng: np.random.Generator) -> Verdict:
    """Composite verdict on one observation (OR of constituents).

    The evaluation kernel applied to a batch of one (a view of the
    observation), with the test's plan as resolved at construction
    (``TestProcedure.kernel_plan``).  The observation is copied once, by the
    canonical sort of an exchangeable model, and once more by decorrelation
    when some constituent reads decorrelated data; the decorrelation noise
    is then drawn fresh from ``rng``.  Both operating modes produce
    bit-identical statistic values for a fixed draw.  A NaN value (the
    observation holds a NaN, or infinities that cancel) raises
    :class:`DomainError`.
    """
    model = obs.model
    _check_compatibility(test, model)
    if obs.x.ndim != 1:
        raise ContractError("evaluate takes a single observation vector")
    items, reads_decorrelated, thresholds = test.kernel_plan
    x, layout = canonical_layout(model, obs.x[None, :])
    xi = rng.standard_normal((1, model.R)) if reads_decorrelated else None
    values = {name: v.item() for name, v in _values(items, x, layout, xi).items()}
    if any(math.isnan(value) for value in values.values()):
        raise DomainError("a statistic is NaN: the observation holds a NaN or infinities")
    fired = tuple([name for name, _, _, threshold in items if values[name] > threshold])
    return Verdict(reject=bool(fired), fired=fired, values=values,
                   thresholds=dict(thresholds))


def _check_compatibility(test: TestProcedure, model: CorrelationModel) -> None:
    if model.family != test.family or model.p != test.p:
        raise ContractError("observation model does not match the test's family/dimension")
    if model.gamma != test.gamma:
        raise ContractError(
            f"observation gamma={model.gamma} routed to a test built for "
            f"gamma={test.gamma}")
    if model.R != (test.R or 1):
        raise ContractError("group count mismatch")
    if (test.v is not None and model.v is not test.v
            and np.abs(model.v - test.v).max() > 1e-12):
        raise ContractError("pattern mismatch")
