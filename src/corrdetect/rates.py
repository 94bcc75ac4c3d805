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
    "rate_rows_csv",
    "boundary_audit",
]


@dataclass(frozen=True)
class RateResult:
    """Squared separation rate with its active branch and components.

    ``value`` is None exactly when the configuration falls in the
    uncharacterized rank-one region (s > omega(v) with gamma < 1).
    """

    family: str
    p: int
    s: int
    gamma: float
    R: Optional[int]
    value: Optional[float]
    regime: str
    components: dict = field(default_factory=dict)

    @property
    def uncharacterized(self) -> bool:
        return self.value is None


def _check_ps(p: int, s: int) -> None:
    if p < 1 or not (1 <= s <= p):
        raise ContractError(f"need 1 <= s <= p, got s={s}, p={p}")


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
    _check_ps(p, s)
    if not (0.0 <= gamma <= 1.0):
        raise ContractError("gamma must lie in [0, 1]")
    if gamma == 1.0:
        if s < p:
            return RateResult("equicorrelated", p, s, gamma, None, 0.0,
                              "perfect-degenerate", {})
        return RateResult("equicorrelated", p, s, gamma, None, float(p),
                          "perfect-dense", {})
    base = psi1_sq(p, s, gamma)
    root = math.sqrt(p)
    if s < root:
        return RateResult("equicorrelated", p, s, gamma, None, base, "sparse",
                          {"psi1_sq": base})
    mean_part, kappa, cap = _psi2_sq(p, s, gamma)
    regime = "dense" if s <= p - root else "very-dense"
    value = base + mean_part
    return RateResult("equicorrelated", p, s, gamma, None, value, regime,
                      {"psi1_sq": base, "psi2_sq": mean_part, "cap": cap,
                       "kappa": kappa})


def _grouped_scan_sq(p: int, s: int, gamma: float, R: int) -> tuple:
    """Scan-regime squared rate component for p/(4R) < s < p/R.

    Returns (value, first_branch, cap, sub_regime).  The value is the minimum
    of a scan term and a group-mean cap (1-g+g p/R) log(eR); which term
    attains the minimum selects the scan constituent downstream (first branch
    wins ties).
    """
    bs = p / R
    log_er = 1.0 + math.log(R)
    cap = (1.0 - gamma + gamma * bs) * log_er
    boundary = bs - math.sqrt(bs * log_er)
    if s <= boundary:
        first = (1.0 - gamma) * p / (p - R * s) * (math.sqrt(bs * log_er) + math.log(R))
        sub = "scan-moderate"
    else:
        first = (1.0 - gamma) * p / (p - R * s) * (
            (bs - s) * math.log1p(R * p * log_er / (p - R * s) ** 2) + math.log(R)
        )
        sub = "scan-dense"
    return min(first, cap), first, cap, sub


def rate_grouped(p: int, s: int, gamma: float, R: int) -> RateResult:
    """Squared rate for the grouped random-effects model.

    R = 1 reduces to the single random effect and R = p to independent
    observations; those endpoints delegate to the equicorrelated formulas
    (at the model's own gamma, respectively at gamma = 0) so the reductions
    hold with exact floating-point equality.
    """
    _check_ps(p, s)
    if R < 1 or p % R != 0:
        raise ContractError(f"R must divide p, got R={R}, p={p}")
    if not (0.0 <= gamma <= 1.0):
        raise ContractError("gamma must lie in [0, 1]")
    if R == 1:
        base = rate_equicorrelated(p, s, gamma)
        return RateResult("grouped", p, s, gamma, 1, base.value, base.regime,
                          base.components)
    if R == p:
        base = rate_equicorrelated(p, s, 0.0)
        return RateResult("grouped", p, s, gamma, p, base.value, base.regime,
                          base.components)
    bs = p / R
    if gamma == 1.0:
        if s < bs:
            return RateResult("grouped", p, s, gamma, R, 0.0, "perfect-degenerate", {})
        if s < p / math.sqrt(R):
            value = s * math.log1p(p ** 2 / (R * s ** 2))
            return RateResult("grouped", p, s, gamma, R, value,
                              "perfect-average-sparse", {})
        return RateResult("grouped", p, s, gamma, R, p / math.sqrt(R),
                          "perfect-average-dense", {})
    base = psi1_sq(p, s, gamma)
    if s <= p / (4 * R):
        return RateResult("grouped", p, s, gamma, R, base, "within-group-sparse",
                          {"psi1_sq": base})
    if s < bs:
        scan, first, cap, sub = _grouped_scan_sq(p, s, gamma, R)
        return RateResult("grouped", p, s, gamma, R, base + scan, sub,
                          {"psi1_sq": base, "upsilon_sq": scan,
                           "scan_term": first, "cap": cap})
    sigma_sq = 1.0 - gamma + gamma * bs
    if s < p / math.sqrt(R):
        avg = sigma_sq * (R * s / p) * math.log1p(p ** 2 / (R * s ** 2))
        return RateResult("grouped", p, s, gamma, R, base + avg, "average-sparse",
                          {"psi1_sq": base, "rho_sq": avg, "cap": sigma_sq})
    value = (1.0 - gamma) * math.sqrt(p) + sigma_sq * math.sqrt(R)
    return RateResult("grouped", p, s, gamma, R, value, "average-dense",
                      {"psi1_sq": (1.0 - gamma) * math.sqrt(p),
                       "rho_sq": sigma_sq * math.sqrt(R), "cap": sigma_sq})


def rate_rank_one(p: int, s: int, gamma: float, v) -> RateResult:
    """Squared rate for the rank-one pattern model.

    Characterized for s <= omega(v) when gamma < 1 (sparse branch uses the
    inclusive boundary s <= sqrt(p)); outside that range the result is an
    explicit uncharacterized verdict, not a number.  At gamma = 1 the rate is
    0 below the pattern's support size and p at or above it.
    """
    _check_ps(p, s)
    v = np.asarray(v, dtype=float)
    if v.shape != (p,):
        raise ContractError(f"the pattern v must have length p={p}, got shape {v.shape}")
    if not (0.0 <= gamma <= 1.0):
        raise ContractError("gamma must lie in [0, 1]")
    w = pattern_omega(v)
    if gamma == 1.0:
        v0 = int(np.count_nonzero(v))
        if s < v0:
            return RateResult("rank_one", p, s, gamma, None, 0.0,
                              "perfect-degenerate", {"omega": w, "pattern_support": v0})
        return RateResult("rank_one", p, s, gamma, None, float(p), "perfect-dense",
                          {"omega": w, "pattern_support": v0})
    if s > w:
        return RateResult("rank_one", p, s, gamma, None, None, "uncharacterized",
                          {"omega": w})
    if s <= math.sqrt(p):
        value = (1.0 - gamma) * s * math.log1p(p / s ** 2)
        return RateResult("rank_one", p, s, gamma, None, value, "sparse",
                          {"psi1_sq": value, "omega": w})
    value = (1.0 - gamma) * math.sqrt(p)
    return RateResult("rank_one", p, s, gamma, None, value, "dense",
                      {"psi1_sq": value, "omega": w})


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


def rate_rows_csv(results, path) -> None:
    """Write rate rows as CSV: family,p,s,gamma,R,regime,rate_sq,psi1_sq,cap."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "p", "s", "gamma", "R", "regime",
                         "rate_sq", "psi1_sq", "cap"])
        for r in results:
            writer.writerow([
                r.family, r.p, r.s, repr(r.gamma), "" if r.R is None else r.R,
                r.regime,
                "" if r.value is None else repr(r.value),
                repr(r.components.get("psi1_sq", "")) if "psi1_sq" in r.components else "",
                repr(r.components.get("cap", "")) if "cap" in r.components else "",
            ])


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
        if bs >= 2:
            pairs.append(("s=p/R", int(bs) - 1, int(bs)))
        straddle("s=p/sqrt(R)", p / math.sqrt(R))
    named = {}
    for name, lo, hi in pairs:
        # a jump boundary names its pair when a continuous one falls between
        # the same integers (at p = 2, sqrt(p) and p both lie in (1, 2])
        if 1 <= lo < hi <= p and ((lo, hi) not in named or name in _JUMPS):
            named[(lo, hi)] = name
    return [(name, lo, hi) for (lo, hi), name in named.items()]


def boundary_audit(family: str, p: int, gamma: float, R: Optional[int] = None,
                   max_ratio: float = 8.0) -> list:
    """Ratio of adjacent branch values across every regime boundary.

    Returns rows ``{boundary, s_lo, s_hi, lo, hi, ratio, flagged, documented}``.
    ``flagged`` marks ratios above ``max_ratio``; ``documented`` marks the two
    boundaries where a genuine discontinuity exists: s = p under strong
    correlation ((1-gamma) log(ep) small) and s = p/R in the grouped model.
    A flagged-but-undocumented row signals a formula defect.
    """
    if family != "equicorrelated" and (family != "grouped" or R is None):
        raise ContractError("the boundary audit covers the equicorrelated family "
                            f"and the grouped family with R; got {family!r}, R={R}")
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
            "ratio": ratio, "flagged": ratio > max_ratio, "documented": documented,
        })
    return rows
