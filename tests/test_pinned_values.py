"""Pinned outputs: statistic values and risk estimates, recorded as float.hex.

The values were recorded before stream derivation was reimplemented and
the single-observation path trimmed, so a change to a stream, a draw or the
order of any sum shows here as a changed bit.  One plan of every
constituent kind is evaluated on a fixed signal, and one risk cell per
family is estimated.
"""

import numpy as np
import pytest

from corrdetect.models import sample
from corrdetect.procedures import build_test, evaluate, model_for
from corrdetect.rates import rate_for
from corrdetect.risk import default_alternatives, estimate_risk
from corrdetect.streams import substream

_PATTERNS = {
    None: None,
    "sign": np.where(np.arange(64) % 3 == 0, -1.0, 1.0),
    "hetero": np.concatenate([np.full(8, 64 ** 0.25), np.zeros(56)]),
}

# (family, p, s, gamma, R, pattern) -> {constituent: value.hex()}; five values
# of cases 0, 1, 6 and 12 were re-recorded, 1-3 ulps apart, when alpha(t) began
# to compute erfcx in the package
EVALUATE_CASES = [
    (('equicorrelated', 64, 'adaptive', 0.5, None, None),
     {'adaptive_sparse': '0x1.aa41248839b73p+2',
      'chisq': '0x1.8fbfffd860c93p+6',
      'adaptive_dense': '0x1.aa41248839b73p+2',
      'linear': '0x1.56ad641114a87p+3'}),
    (('equicorrelated', 64, 3, 0.5, None, None),
     {'thresholded': '0x1.3cd55212edfaap+6'}),
    (('equicorrelated', 64, 40, 0.5, None, None),
     {'chisq': '0x1.36f18a55e16f3p+7',
      'linear': '0x1.00f08cd20f05dp+3'}),
    (('equicorrelated', 64, 62, 0.5, None, None),
     {'chisq': '0x1.5fda5f485b6adp+7',
      'thresholded_dense': '0x1.2a6c04c4d08dep+6',
      'linear': '0x1.958e6a5d96c96p-15'}),
    (('equicorrelated', 64, 5, 1.0, None, None),
     {'noiseless': '0x1.598e147ae147ap+5'}),
    (('equicorrelated', 64, 64, 1.0, None, None),
     {'chisq_raw': '0x1.8391e370c7d53p+5'}),
    (('rank_one', 64, 3, 0.5, None, 'sign'),
     {'thresholded': '0x1.84224e7116caep+6'}),
    (('rank_one', 64, 5, 1.0, None, 'sign'),
     {'noiseless': '0x1.87ea3d70a3d72p+5'}),
    (('rank_one', 64, 3, 1.0, None, 'hetero'),
     {'noiseless': '0x1.818f5c28f5c29p+5'}),
    (('rank_one', 64, 64, 1.0, None, 'sign'),
     {'chisq_raw': '0x1.2abea1ed6ba62p+8'}),
    (('grouped', 64, 16, 1.0, 4, None),
     {'noiseless': '0x1.56428f5c28f5dp+5',
      'thresholded_avg': '0x0.0p+0'}),
    (('grouped', 64, 5, 0.5, 4, None),
     {'thresholded': '0x1.c5d8d4a0a6f38p+5',
      'chisq_scan': '0x1.79f39da9e3776p+5'}),
    (('grouped', 64, 10, 0.5, 4, None),
     {'chisq': '0x1.fdfafab61c2a4p+6',
      'thresholded_scan': '0x1.a0b2bae7130f0p+4'}),
    (('grouped', 64, 5, 0.0, 4, None),
     {'thresholded': '0x1.19cdc51d68496p+5',
      'linear_scan': '0x1.e43f801d727abp+1'}),
    (('grouped', 64, 16, 0.0, 4, None),
     {'chisq': '0x1.2debd89e122a5p+6',
      'thresholded_avg': '0x1.2e7387c1072c8p+1'}),
    (('grouped', 64, 32, 0.0, 4, None),
     {'chisq': '0x1.faf775db8d1e4p+6',
      'chisq_avg': '0x1.fa01d25bb4d80p+2'}),
]


# (family, p, s, gamma, R, pattern), type I and worst type II at 4x the rate
RISK_CASES = [
    (('equicorrelated', 32, 3, 0.5, None, None),
     '0x1.eb851eb851eb8p-6', '0x1.fae147ae147aep-2'),
    (('grouped', 32, 2, 0.5, 4, None),
     '0x1.0a3d70a3d70a4p-4', '0x1.1eb851eb851ecp-1'),
    (('rank_one', 32, 2, 0.5, None, 'sign'),
     '0x1.1eb851eb851ecp-5', '0x1.947ae147ae148p-2'),
]


KINDS = {"thresholded", "chisq", "linear", "chisq_scan", "thresholded_scan", "linear_scan",
         "thresholded_avg", "chisq_avg", "noiseless", "chisq_raw", "adaptive_scan"}


def test_every_constituent_kind_is_pinned():
    kinds = set()
    for (family, p, s, gamma, R, pattern), _ in EVALUATE_CASES:
        test = build_test(family, p, s, gamma, R=R, v=_PATTERNS[pattern],
                          mode="paper_constants", C=1.0)
        kinds |= {c.kind for c in test.constituents}
    assert kinds == KINDS


@pytest.mark.parametrize("i", range(len(EVALUATE_CASES)))
def test_evaluate_values_pinned(i):
    (family, p, s, gamma, R, pattern), expected = EVALUATE_CASES[i]
    test = build_test(family, p, s, gamma, R=R, v=_PATTERNS[pattern],
                      mode="paper_constants", C=1.0)
    theta = np.zeros(p)
    theta[[1, 9, 20, 33, 50]] = 3.0
    theta[40:52] += 0.4
    obs = sample(model_for(test), theta, substream(2024, i, 0))
    values = evaluate(test, obs, substream(2024, i, 1)).values
    assert {name: value.hex() for name, value in values.items()} == expected


@pytest.mark.parametrize("cell", range(len(RISK_CASES)))
def test_risk_estimates_pinned(cell):
    (family, p, s, gamma, R, pattern), type_i, type_ii = RISK_CASES[cell]
    v = None if pattern is None else _PATTERNS[pattern][:p]
    test = build_test(family, p, s, gamma, R=R, v=v, n_cal=1000,
                      rng=substream(2024, 99, cell))
    rate = rate_for(family, p, s, gamma, R=R, v=v)
    alternatives = default_alternatives(family, p, s, gamma, R, v, 4.0 * rate.value)
    est = estimate_risk(test, model_for(test), alternatives, 200, 2024, cell_id=cell)
    assert (est.type_i.hex(), est.worst_type_ii.hex()) == (type_i, type_ii)
