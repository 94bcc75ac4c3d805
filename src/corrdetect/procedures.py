"""Test procedures: plans, thresholds, null calibration and the evaluation kernel.

A test procedure is the model it was built for and an OR over constituents.
Each constituent record pairs a statistic plan -- a constituent kind, its
parameters as planned and as the kernel reads them -- with a threshold.
The statistic of every kind is an entry of the kind table in
``statistics``; this module plans which kinds a test uses (``_plan``, from
the family's kind set ``statistics.KINDS``), sets their thresholds, and
runs the table on batches of canonical data (``_values``, the one
evaluation path of ``evaluate`` and of calibration).  Plans read their
regime from the family's rate, so they follow its reductions: a grouped plan
at R = 1 is the equicorrelated plan, at R = p the gamma = 0 plan on raw
data.  Two operating modes share identical statistic plans:

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
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import CalibrationError, ContractError, DomainError, UnsupportedRegimeError
from .models import (
    _BLOCK_ELEMENTS,
    CorrelationModel,
    Observation,
    _decorrelated,
    canonical_layout,
    decorrelate,  # noqa: F401  benchmarks/bench_tracer.py wraps procedures.decorrelate
    model_from,
)
from .rates import rate_equicorrelated, rate_grouped, rate_rank_one
from .statistics import REDUCTIONS, profile_input, resolved

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
    """One statistic plus its threshold rule (reject iff value > threshold).
    The kernel reads ``kernel_params``: the planned ``params``, which the
    descriptor reports, with the kind's constants resolved once, when the
    record is built (``statistics.resolved``)."""

    name: str
    kind: str
    params: dict
    threshold: float
    threshold_note: str
    kernel_params: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel_params", resolved(self.kind, self.params))

    @property
    def deterministic_null(self) -> bool:
        """The statistic is 0 under the null (``Reduction.exact_null``)."""
        return REDUCTIONS[self.kind].exact_null

    def descriptor(self) -> dict:
        params = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                  for k, v in self.params.items()}
        return {"name": self.name, "kind": self.kind, "params": params,
                "threshold": self.threshold, "rule": self.threshold_note}


@dataclass(frozen=True, eq=False)
class TestProcedure:
    __test__ = False  # not a pytest test class, under any name a test imports it by

    name: str
    model: CorrelationModel
    s: Union[int, str]
    mode: str
    constituents: tuple
    eta: Optional[float] = None
    C: Optional[float] = None
    calibration: Optional[dict] = None
    # whether ``evaluate`` draws injections for decorrelated data
    reads_decorrelated: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "reads_decorrelated", _reads_decorrelated(self.constituents))

    def descriptor(self) -> dict:
        model = self.model
        v = getattr(model, "v", None)  # the rank-one pattern
        return {
            "name": self.name, "family": model.family, "p": model.p, "s": self.s,
            "gamma": model.gamma, "R": model.R if model.family == "grouped" else None,
            "v": None if v is None else list(v),
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
    """The model ``build_test`` built the test for, ``test.model`` itself."""
    return test.model


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


def _plan_chisq(p, scale=2.0):
    return ("chisq", "chisq", {}, lambda C: p + (C ** 2 / scale) * math.sqrt(p))


def _plan_sparse(p, s, scale):
    return ("thresholded", "thresholded", {"t": _sparse_t(p, s)},
            lambda C, sh=_sparse_shape(p, s): (C ** 2 / scale) * sh)


def _plan_linear(p, gamma):
    sigma_sq = 1.0 - gamma + gamma * p
    return ("linear", "linear", {"sigma_sq": sigma_sq},
            lambda C: sigma_sq * (1.0 + C ** 2 / 2.0))


def _plan_equicorrelated(p: int, s, gamma: float) -> list:
    regime = rate_equicorrelated(p, s, gamma).regime
    if regime == "perfect-degenerate":
        return [("noiseless", "noiseless", {}, lambda C: 0.0)]
    if regime == "perfect-dense":
        return [("chisq_raw", "chisq_raw", {}, lambda C: p + (C ** 2 / 2.0) * p)]
    items = [_plan_sparse(p, s, 32.0) if regime == "sparse" else _plan_chisq(p)]
    if s > p / 2:  # and so s >= sqrt(p): items holds chisq
        if s >= p:  # s == p: the mean direction alone carries the separation
            items = []
        elif regime == "very-dense":
            items.append(("thresholded_dense", "thresholded", {"t": _dense_t(p, s)},
                          lambda C, sh=_dense_shape(p, s): (C ** 2 / 8.0) * sh))
        items.append(_plan_linear(p, gamma))
    return items


def _plan_grouped(p: int, s, gamma: float, R: int) -> list:
    if R == 1:  # the single random effect
        return _plan_equicorrelated(p, s, gamma)
    if R == p:
        # independent observations: the gamma = 0 plan on raw data, which at
        # block size 1 are the standardized group means, of variance
        # sigma^2 = 1 - gamma + gamma p/R = 1 (the group energy reads it)
        sigma_sq = 1.0 - gamma + gamma * (p // R)
        raw = {"thresholded": "thresholded_avg", "chisq": "chisq_avg"}
        return [(name, raw.get(kind, kind),
                 {"sigma_sq": sigma_sq} if kind == "chisq" else params, rule)
                for name, kind, params, rule in _plan_equicorrelated(p, s, 0.0)]
    rate = rate_grouped(p, s, gamma, R)
    if rate.regime.startswith("perfect"):
        items = [("noiseless", "noiseless", {}, lambda C: 0.0)]
    elif rate_equicorrelated(p, s, gamma).regime == "sparse":
        items = [_plan_sparse(p, s, 64.0)]
    else:
        items = [_plan_chisq(p, scale=16.0)]
    if rate.regime not in ("perfect-degenerate", "within-group-sparse"):
        items.append(_plan_group_constituent(p, s, gamma, R, rate))
    return items


def _plan_group_constituent(p: int, s: int, gamma: float, R: int, rate):
    """The group constituent of a scan or averaged regime.  In a scan regime
    it follows which term attains the rate minimum (the scan term wins ties;
    the tie rule is plumbing, not dictated by the closed forms)."""
    bs = p // R
    log_er = 1.0 + math.log(R)
    sigma_sq = 1.0 - gamma + gamma * bs
    if rate.regime.startswith("scan") and rate.components["scan_term"] > rate.components["cap"]:
        return ("linear_scan", "linear_scan", {"sigma_sq": sigma_sq},
                lambda C, ss=sigma_sq, le=log_er: ss * (1.0 + (C ** 2 / 64.0) * le))
    if rate.regime == "scan-moderate":
        return ("chisq_scan", "chisq_scan", {},
                lambda C, b=bs, le=log_er:
                b + 2.0 * math.sqrt(b * (C ** 2 / 128.0) * le) + 2.0 * (C ** 2 / 128.0) * le)
    if rate.regime == "scan-dense":
        t = math.sqrt(2.0 * math.log1p(R * p * log_er / (p - R * s) ** 2))
        shape = (bs - s) * math.log1p(R * p * log_er / (p - R * s) ** 2) + math.log(R)
        return ("thresholded_scan", "thresholded_scan", {"t": t},
                lambda C, sh=shape: (C ** 2 / 64.0) * sh)
    if rate.regime.endswith("average-sparse"):
        t = math.sqrt(2.0 * math.log1p(p ** 2 / (R * s ** 2)))
        shape = (4.0 * R * s / p) * math.log1p(p ** 2 / (16.0 * R * s ** 2))
        return ("thresholded_avg", "thresholded_avg", {"t": t},
                lambda C, sh=shape: (C ** 2 / 64.0) * sh)
    return ("chisq_avg", "chisq_avg", {"sigma_sq": sigma_sq},
            lambda C, ss=sigma_sq: ss * (R + (C ** 2 / 16.0) * math.sqrt(R)))


def _plan_rank_one(p: int, s, gamma: float, v: np.ndarray) -> list:
    rate = rate_rank_one(p, s, gamma, v)
    if rate.regime == "perfect-degenerate":
        return [("noiseless", "noiseless", {}, lambda C: 0.0)]
    if rate.regime == "perfect-dense":
        return [("chisq_raw", "chisq_raw", {}, lambda C: p + (C ** 2 / 2.0) * p)]
    if rate.uncharacterized:
        raise UnsupportedRegimeError("rank-one tests are characterized only for "
                                     f"s <= omega(v) = {rate.components['omega']}")
    return [_plan_sparse(p, s, 16.0) if rate.regime == "sparse" else _plan_chisq(p)]


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
    items.append(_plan_chisq(p))
    lo = int(math.floor(p - root)) + 1
    dense_members = np.arange(max(lo, 1), p)
    dense_members = dense_members[dense_members > p - root]
    if dense_members.size:
        ts = np.array([_dense_t(p, int(s)) for s in dense_members])
        shapes = np.array([_dense_shape(p, int(s)) for s in dense_members])
        items.append(("adaptive_dense", "adaptive_scan",
                      {"ts": ts, "shapes": shapes, "members": dense_members},
                      lambda C: C ** 2 / 8.0))
    items.append(_plan_linear(p, gamma))
    return items


# ---------------------------------------------------------------------------
# statistic evaluation


def _reads_decorrelated(constituents) -> bool:
    return any(REDUCTIONS[c.kind].reads != "raw" for c in constituents)


def _values(constituents, x: np.ndarray, model: CorrelationModel,
            xi: Optional[np.ndarray] = None) -> dict:
    """The evaluation kernel: every constituent's value on each row of ``x``.

    ``x`` (n, p) must have every exchangeable block of ``model`` sorted
    (``models.canonical_layout``).  The kernel views it as blocks
    (n, k, p/k); rank-one data is one block in its given layout.
    Constituents that read decorrelated data get those blocks decorrelated
    once with the injections ``xi`` (n, k); decorrelation is monotone within
    a block, so they stay sorted, and blocks that are not exchangeable
    (rank-one) are sorted here.  Each statistic is then its
    kind's entry of the kind table (``statistics.REDUCTIONS``) at its
    ``kernel_params``: the parts, then the combine step, with no further
    sort or check; the adaptive scans share one profile of the decorrelated
    rows.  Returns {name: (n,) array}.
    """
    raw = model.block_view(x)
    dec = profile = None
    values = {}
    for c in constituents:
        reads, parts, combine, _, _ = REDUCTIONS[c.kind]
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
        y = parts(a, model, c.kernel_params)
        values[c.name] = y if combine is None else combine(y, axis=-1)
    return values


# ---------------------------------------------------------------------------
# calibration


def _wilson_bounds(q: float, n: int) -> tuple:
    """The Wilson score interval of a proportion q out of n at z = 2."""
    denom = n + 4.0
    center = (q * n + 2.0) / denom
    half = 2.0 * math.sqrt(q * (1.0 - q) * n + 1.0) / denom
    return max(0.0, center - half), min(1.0, center + half)


def calibrate_null_quantile(constituents, model: CorrelationModel, q: float, n_cal: int,
                            rng: np.random.Generator) -> dict:
    """Empirical null q-quantiles of one or several constituents.

    Simulates ``n_cal`` null observations once and evaluates every
    constituent on each, so a composite is calibrated on a common stream.
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
    p, k = model.p, model.R
    k_xt = k if _reads_decorrelated(constituents) else 0
    rows = max(1, _BLOCK_ELEMENTS // p)
    values = {c.name: np.empty(n_cal) for c in constituents}
    for start in range(0, n_cal, rows):
        n = min(rows, n_cal - start)
        # one row per replication: [k factors | p noise | k_xt injections]
        normals = rng.standard_normal((n, k + p + k_xt))
        obs = draw(model, None, normals=normals[:, :k + p])
        x = canonical_layout(model, obs.x)
        for name, v in _values(constituents, x, model, xi=normals[:, k + p:]).items():
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


def _check_mode(mode: str, eta: float, C: Optional[float], n_cal: int) -> None:
    """Refuse operating-mode settings that every threshold of a test would
    fail on (``SweepPlan`` checks its own with this too)."""
    if mode not in ("calibrated", "paper_constants"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "paper_constants" and C is None:
        raise ContractError("paper_constants mode needs the constant C")
    if not 0.0 < eta < 1.0:
        raise ContractError("eta must lie in (0, 1)")
    if mode == "calibrated" and n_cal < MIN_N_CAL:
        raise ContractError(f"n_cal must be at least {MIN_N_CAL}")


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
    _check_mode(mode, eta, C, n_cal)
    if s != "adaptive":
        s = int(s)
        if not (1 <= s <= p):
            raise ContractError("need 1 <= s <= p")
    model = model_from(family, p, gamma, R, v)
    items = _plan(model, s)
    calibration = None
    if mode == "paper_constants":
        constituents = tuple(Constituent(name, kind, params, float(rule(C)), f"paper form at C={C}")
                             for name, kind, params, rule in items)
    else:
        if rng is None:
            raise ContractError("calibrated mode needs a calibration stream")
        # a calibrated exact-null constituent keeps this rule: its null is 0
        planned = [Constituent(name, kind, params, 0.0, "exact null residual")
                   for name, kind, params, _ in items]
        random = [c for c in planned if not c.deterministic_null]
        m = len(random)
        records = (calibrate_null_quantile(random, model, 1.0 - eta / (2.0 * m), n_cal, rng)
                   if m else {})
        constituents = tuple(c if c.deterministic_null else replace(
            c, threshold=records[c.name].value, threshold_note=f"calibrated q={records[c.name].q}")
            for c in planned)
        calibration = {
            "eta": eta, "n_cal": n_cal, "seed": seed_label,
            "budget_per_constituent": None if not m else eta / (2.0 * m),
            "thresholds": {name: rec.__dict__ for name, rec in records.items()},
        }
    label = s if isinstance(s, str) else f"s={s}"
    return TestProcedure(name=f"{family}:{label}:gamma={gamma}", model=model, s=s,
                         mode=mode, constituents=constituents, eta=eta, C=C,
                         calibration=calibration)


def evaluate(test: TestProcedure, obs: Observation,
             rng: np.random.Generator) -> Verdict:
    """Composite verdict on one observation (OR of constituents).

    The evaluation kernel applied to a batch of one (a view of the
    observation).  An observation of another model than the test's own
    (``TestProcedure.model``) must match it in family, p, gamma, group count
    and pattern (to 1e-12).  The observation is copied once, by the
    canonical sort of an exchangeable model, and once more by decorrelation
    when some constituent reads decorrelated data; the decorrelation noise is
    then drawn fresh from ``rng``.  A constituent fires when its value exceeds its threshold.
    Both operating modes produce bit-identical statistic values for a fixed
    draw.  A NaN value (the observation holds a NaN, or infinities that
    cancel) raises :class:`DomainError`.
    """
    model = obs.model
    if model is not test.model:
        _check_compatibility(test.model, model)
    if obs.x.ndim != 1:
        raise ContractError("evaluate takes a single observation vector")
    constituents = test.constituents
    x = canonical_layout(model, obs.x[None, :])
    xi = rng.standard_normal((1, model.R)) if test.reads_decorrelated else None
    values = {name: v.item() for name, v in _values(constituents, x, model, xi).items()}
    if any(math.isnan(value) for value in values.values()):
        raise DomainError("a statistic is NaN: the observation holds a NaN or infinities")
    fired = tuple([c.name for c in constituents if values[c.name] > c.threshold])
    return Verdict(reject=bool(fired), fired=fired, values=values)


def _check_compatibility(built: CorrelationModel, model: CorrelationModel) -> None:
    if model.family != built.family or model.p != built.p:
        raise ContractError("observation model does not match the test's family/dimension")
    if model.gamma != built.gamma:
        raise ContractError(
            f"observation gamma={model.gamma} routed to a test built for "
            f"gamma={built.gamma}")
    if model.R != built.R:
        raise ContractError("group count mismatch")
    if (built.family == "rank_one" and model.v is not built.v
            and np.abs(model.v - built.v).max() > 1e-12):
        raise ContractError("pattern mismatch")
