"""A NaN in the data fails loudly: ``statistics.value`` and ``evaluate``
raise ``DomainError`` instead of returning a number that hides it."""

import math

import numpy as np
import pytest

from corrdetect.errors import DomainError
from corrdetect.gaussian import alpha
from corrdetect.models import Equicorrelated, Grouped, Observation
from corrdetect.procedures import build_test, evaluate, model_for
from corrdetect.statistics import value
from corrdetect.streams import substream

_WITH_NAN = np.array([0.1, math.nan, 5.0, -4.0])


@pytest.mark.parametrize("kind,model,params", [
    ("thresholded", None, {"t": 2.0}),  # once 29.51: the NaN was zeroed as sub-threshold
    ("chisq", None, {}),
    ("adaptive_scan", Equicorrelated(4, 0.5), {"ts": np.array([0.5, 2.0]),
                                               "shapes": np.array([1.0, 2.0])}),
    ("thresholded_avg", Grouped(4, 2, 0.5), {"t": 0.5}),
    ("linear", Equicorrelated(4, 0.5), {}),
    ("noiseless", Equicorrelated(4, 1.0), {}),
])
def test_value_refuses_a_nan_statistic(kind, model, params):
    x = _WITH_NAN if model is not None else _WITH_NAN[None, :]
    with pytest.raises(DomainError, match="NaN"):
        value(kind, x, model, **params)


def test_thresholded_count_keeps_every_bit_on_finite_data():
    # zeroing |z| < t and counting the rest gives the values of zeroing
    # ~(|z| >= t) and counting the selected coordinates
    rng = np.random.default_rng(3)
    z = rng.standard_normal((200, 1, 37))
    z[:5, 0, :3] = 1.5  # coordinates exactly at the threshold are selected
    z.sort(axis=-1)  # the canonical order value() sums in
    for t in (0.0, 0.7, 1.5, 2.5):
        mask = np.abs(z) >= t
        sq = np.where(mask, z * z, 0.0)
        want = (sq.sum(axis=-1) - mask.sum(axis=-1) * alpha(t))[:, 0]
        assert np.array_equal(value("thresholded", z, t=t).value, want)


@pytest.mark.parametrize("s", [1, 2])
def test_evaluate_refuses_a_nan_observation(s):
    # a thresholded test once returned reject=False with the value 0.0
    test = build_test("equicorrelated", 4, s, 0.5, n_cal=1000, rng=substream(1, 0))
    with pytest.raises(DomainError, match="NaN"):
        evaluate(test, Observation(_WITH_NAN, model_for(test)), substream(2, 0))
    finite = evaluate(test, Observation(np.nan_to_num(_WITH_NAN), model_for(test)),
                      substream(2, 0))
    assert all(math.isfinite(v) for v in finite.values.values())
