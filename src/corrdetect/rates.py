"""Closed-form squared minimax separation rates and regime classification.

Rates are reported as exact branch formulas with no absolute-constant
normalization; they are defined up to universal constants, and downstream
risk experiments introduce a single separation multiplier (applied to the
squared rate).  All logarithms are natural.  Regime boundaries evaluate the
printed inequalities verbatim on integers; square roots are not rounded.

Equicorrelated squared rate (gamma < 1):

    s <  sqrt(p):            (1-g) s log(1 + p/s^2)
    sqrt(p) <= s <= p-sqrt(p):  (1-g) sqrt(p) + min((1-g) p^{3/2}/(p-s), 1-g+gp)
    p-sqrt(p) < s <= p:      (1-g) sqrt(p) + min((1-g) p log(1 + p/(p-s)^2), 1-g+gp)

and at gamma = 1 the rate degenerates to 0 for s < p and to p at s = p.
The grouped and rank-one families generalize these branches; see the
individual functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError
from .geometry import omega as pattern_omega
from .models import check_family

__all__ = [
    "RateResult",
    "rate_equicorrelated",
    "rate_grouped",
    "rate_rank_one",
    "rate_for",
    "blessing_curse_thresholds",
    "psi1_sq",
    "boundary_audit",
]


@dataclass(frozen=True)
class RateResult:
    """Squared separation rate with its active branch and components.

    ``value`` is None exactly when the configuration falls in the
    uncharacterized rank-one region (s > omega(v) with gamma < 1).
    """

    value: Optional[float]
    regime: str
    components: dict = field(default_factory=dict)

    @property
    def uncharacterized(self) -> bool:
        return self.value is None


def _check_ps(p: int, s: int) -> None:
    if p < 1 or not (1 <= s <= p):
        raise ContractError(f"need 1 <= s <= p, got s={s}, p={p}")


def _cell(p: int, s: int, gamma: float, R: Optional[int] = None,
          v: Optional[np.ndarray] = None):
    """Refuse a cell outside the domain of the rates."""
    _check_ps(p, s)
    if R is not None and (R < 1 or p % R != 0):
        raise ContractError(f"R must divide p, got R={R}, p={p}")
    if v is not None and v.shape != (p,):
        raise ContractError(f"the pattern v must have length p={p}, got shape {v.shape}")
    if not (0.0 <= gamma <= 1.0):
        raise ContractError("gamma must lie in [0, 1]")


def psi1_sq(p: int, s: int, gamma: float) -> float:
    """Centered-component squared rate: the sparse/dense base branch."""
    if s < math.sqrt(p):
        return (1.0 - gamma) * s * math.log1p(p / s ** 2)
    return (1.0 - gamma) * math.sqrt(p)


def _psi2_sq(p: int, s: int, gamma: float) -> tuple:
    """Mean-direction squared rate branch for s above p/2, with its cap."""
    cap = 1.0 - gamma + gamma * p
    if s <= p - math.sqrt(p):
        kappa = (1.0 - gamma) * p ** 1.5 / (p - s)
    else:
        kappa = (1.0 - gamma) * p * math.log1p(p / (p - s) ** 2) if s < p else math.inf
    return min(kappa, cap), kappa, cap


def rate_equicorrelated(p: int, s: int, gamma: float) -> RateResult:
    _cell(p, s, gamma)
    if gamma == 1.0:
        return (RateResult(0.0, "perfect-degenerate") if s < p
                else RateResult(float(p), "perfect-dense"))
    base = psi1_sq(p, s, gamma)
    root = math.sqrt(p)
    if s < root:
        return RateResult(base, "sparse", {"psi1_sq": base})
    mean_part, kappa, cap = _psi2_sq(p, s, gamma)
    return RateResult(base + mean_part, "dense" if s <= p - root else "very-dense",
                      {"psi1_sq": base, "psi2_sq": mean_part, "cap": cap, "kappa": kappa})


def rate_grouped(p: int, s: int, gamma: float, R: int) -> RateResult:
    """Squared rate for the grouped random-effects model.

    R = 1 reduces to the single random effect and R = p to independent
    observations; those endpoints delegate to the equicorrelated formulas
    (at the model's own gamma, respectively at gamma = 0) so the reductions
    hold with exact floating-point equality.  Grouped plans, default panels
    and the boundary audit read their regime here and reduce the same way.
    """
    _cell(p, s, gamma, R)
    if R in (1, p):
        base = rate_equicorrelated(p, s, gamma if R == 1 else 0.0)
        return RateResult(base.value, base.regime, base.components)
    bs = p / R
    if gamma == 1.0:
        if s < bs:
            return RateResult(0.0, "perfect-degenerate")
        if s < p / math.sqrt(R):
            return RateResult(s * math.log1p(p ** 2 / (R * s ** 2)), "perfect-average-sparse")
        return RateResult(p / math.sqrt(R), "perfect-average-dense")
    base = psi1_sq(p, s, gamma)
    if s <= p / (4 * R):
        return RateResult(base, "within-group-sparse", {"psi1_sq": base})
    sigma_sq = 1.0 - gamma + gamma * bs
    if s < bs:
        # scan regime: the minimum of a scan term and the group-mean cap
        # (1-g+g p/R) log(eR); the plan's scan constituent follows which term
        # attains it (the scan term wins ties)
        log_er = 1.0 + math.log(R)
        cap = sigma_sq * log_er
        if s <= bs - math.sqrt(bs * log_er):
            first = (1.0 - gamma) * p / (p - R * s) * (math.sqrt(bs * log_er) + math.log(R))
            sub = "scan-moderate"
        else:
            first = (1.0 - gamma) * p / (p - R * s) * (
                (bs - s) * math.log1p(R * p * log_er / (p - R * s) ** 2) + math.log(R)
            )
            sub = "scan-dense"
        scan = min(first, cap)
        return RateResult(base + scan, sub,
                          {"psi1_sq": base, "upsilon_sq": scan, "scan_term": first, "cap": cap})
    if s < p / math.sqrt(R):
        avg = sigma_sq * (R * s / p) * math.log1p(p ** 2 / (R * s ** 2))
        return RateResult(base + avg, "average-sparse",
                          {"psi1_sq": base, "rho_sq": avg, "cap": sigma_sq})
    value = (1.0 - gamma) * math.sqrt(p) + sigma_sq * math.sqrt(R)
    return RateResult(value, "average-dense", {"psi1_sq": (1.0 - gamma) * math.sqrt(p),
                                               "rho_sq": sigma_sq * math.sqrt(R),
                                               "cap": sigma_sq})


def rate_rank_one(p: int, s: int, gamma: float, v) -> RateResult:
    """Squared rate for the rank-one pattern model.

    Characterized for s <= omega(v) when gamma < 1 (sparse branch uses the
    inclusive boundary s <= sqrt(p)); outside that range the result is an
    explicit uncharacterized verdict, not a number.  At gamma = 1 the rate is
    0 below the pattern's support size and p at or above it.
    """
    v = np.asarray(v, dtype=float)
    _cell(p, s, gamma, v=v)
    w = pattern_omega(v)
    if gamma == 1.0:
        v0 = int(np.count_nonzero(v))
        components = {"omega": w, "pattern_support": v0}
        return (RateResult(0.0, "perfect-degenerate", components) if s < v0
                else RateResult(float(p), "perfect-dense", components))
    if s > w:
        return RateResult(None, "uncharacterized", {"omega": w})
    if s <= math.sqrt(p):
        value = (1.0 - gamma) * s * math.log1p(p / s ** 2)
        return RateResult(value, "sparse", {"psi1_sq": value, "omega": w})
    value = (1.0 - gamma) * math.sqrt(p)
    return RateResult(value, "dense", {"psi1_sq": value, "omega": w})


def rate_for(family: str, p: int, s: int, gamma: float, R: Optional[int] = None,
             v=None) -> RateResult:
    """The squared rate of a family name: "equicorrelated", "grouped" (needs
    R) or "rank_one" (needs the pattern v); see :func:`models.check_family`."""
    check_family(family, R=R, v=v)
    if family == "equicorrelated":
        return rate_equicorrelated(p, s, gamma)
    if family == "grouped":
        return rate_grouped(p, s, gamma, R)
    return rate_rank_one(p, s, gamma, v)


def blessing_curse_thresholds(p: int, s: int) -> dict:
    """Correlation levels at which dependence helps or hurts detection.

    ``one_minus_gamma_star``: correlations with 1-gamma below this order
    strictly shrink the rate relative to independence (None at s = p, where
    no blessing threshold is defined).  ``one_minus_gamma_lower``: the curse
    threshold; None for s < sqrt(p) where correlation is never a curse.
    """
    _check_ps(p, s)
    root = math.sqrt(p)
    if s < root:
        star = 1.0
        curse = None
    elif s <= p - root:
        star = (p - s) / p
        curse = (p - s) / p
    elif s < p:
        star = 1.0 / (root * math.log1p(p / (p - s) ** 2))
        curse = star
    else:
        star = None
        curse = 0.0
    return {"one_minus_gamma_star": star, "one_minus_gamma_lower": curse}


_JUMPS = ("s=p", "s=p/R")  # the boundaries where a rate may jump


def _boundary_sparsities(family: str, p: int, R: Optional[int]) -> list:
    root = math.sqrt(p)
    pairs = []

    def straddle(name, boundary):
        # Adjacent integers across the boundary; for an integer boundary the
        # branch switch happens at the boundary itself.
        lo = int(math.floor(boundary))
        if lo == boundary:
            lo -= 1
        pairs.append((name, lo, lo + 1))

    if family == "equicorrelated":
        straddle("s=sqrt(p)", root)
        straddle("s=p-sqrt(p)", p - root)
        pairs.append(("s=p", p - 1, p))
    else:
        straddle("s=p/(4R)", p / (4 * R))
        bs = p / R
        log_er = 1.0 + math.log(R)
        straddle("s=p/R-sqrt((p/R)log(eR))", bs - math.sqrt(bs * log_er))
        pairs.append(("s=p/R", int(bs) - 1, int(bs)))
        straddle("s=p/sqrt(R)", p / math.sqrt(R))
    named = {}
    for name, lo, hi in pairs:
        # a jump boundary names its pair when a continuous one falls between
        # the same integers (at p = 2, sqrt(p) and p both lie in (1, 2])
        if 1 <= lo < hi <= p and ((lo, hi) not in named or name in _JUMPS):
            named[(lo, hi)] = name
    return [(name, lo, hi) for (lo, hi), name in named.items()]


def boundary_audit(family: str, p: int, gamma: float, R: Optional[int] = None) -> list:
    """Ratio of adjacent branch values across every regime boundary.

    Returns rows ``{boundary, s_lo, s_hi, lo, hi, ratio, flagged, documented}``.
    ``flagged`` marks ratios above 8; ``documented`` marks the two
    boundaries where a genuine discontinuity exists: s = p under strong
    correlation ((1-gamma) log(ep) small) and s = p/R in the grouped model
    (at R = 1 and R = p the grouped audit is the equicorrelated one).
    A flagged-but-undocumented row signals a formula defect.
    """
    if family != "equicorrelated" and (family != "grouped" or R is None):
        raise ContractError("the boundary audit covers the equicorrelated family "
                            f"and the grouped family with R; got {family!r}, R={R}")
    rate_for(family, p, 1, gamma, R)  # refuses a bad p, gamma or R before any boundary
    if family == "grouped" and R in (1, p):  # the reductions of ``rate_grouped``
        return boundary_audit("equicorrelated", p, gamma if R == 1 else 0.0)
    rows = []
    for name, lo_s, hi_s in _boundary_sparsities(family, p, R):
        lo = rate_for(family, p, lo_s, gamma, R).value
        hi = rate_for(family, p, hi_s, gamma, R).value
        if lo == 0.0 and hi == 0.0:
            ratio = 1.0
        elif min(lo, hi) == 0.0:
            ratio = math.inf
        else:
            ratio = max(lo, hi) / min(lo, hi)
        documented = (
            (name == "s=p" and (1.0 - gamma) * math.log(math.e * p) < 1.0)
            or name == "s=p/R"
        )
        rows.append({
            "boundary": name, "s_lo": lo_s, "s_hi": hi_s, "lo": lo, "hi": hi,
            "ratio": ratio, "flagged": ratio > 8.0, "documented": documented,
        })
    return rows
