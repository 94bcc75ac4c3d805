"""The benchmark tracer: attributes restored, spans counted, results unchanged."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from bench_tracer import _TARGETS, PoolCounter, Tracer, layer_metrics  # noqa: E402
from corrdetect import procedures, risk, streams  # noqa: E402
from corrdetect.divergences import UniformSparse  # noqa: E402


def _sites():
    return [(importlib.import_module(module), attr)
            for _, _, sites in _TARGETS for module, attr in sites]


def test_tracer_wraps_then_restores_every_attribute():
    before = [(module, attr, getattr(module, attr)) for module, attr in _sites()]
    with Tracer():
        for module, attr, original in before:
            wrapper = getattr(module, attr)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_tracer_restores_after_an_error():
    before = [(module, attr, getattr(module, attr)) for module, attr in _sites()]
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_pool_counter_restores_the_executor():
    original = risk.ProcessPoolExecutor
    with PoolCounter():
        assert risk.ProcessPoolExecutor is not original
    assert risk.ProcessPoolExecutor is original


def _estimate():
    test = procedures.build_test("equicorrelated", 16, 3, 0.5, mode="calibrated",
                                 n_cal=1000, rng=streams.substream(4, 0))
    model = procedures.model_for(test)
    est = risk.estimate_risk(test, model, [UniformSparse(16, 3, 1.2)], 100,
                             master_seed=4)
    return test.constituents[0].threshold, est.type_i, est.worst_type_ii


def test_traced_results_match_and_spans_count_the_work():
    plain = _estimate()
    with Tracer() as tracer:
        traced = _estimate()
    assert traced == plain
    metrics = layer_metrics(tracer.spans, null_base=100)
    # one stream each for calibration, 100 null and 100 prior replications
    assert metrics["streams.substream.calls"] == 201
    assert metrics["procedures.calibrate_null_quantile.rows"] == 1000
    assert metrics["models.sample.rows"] == 1000 + 200
    assert metrics["procedures.evaluate.calls"] == 200
    assert metrics["divergences.draw.calls"] == 100
    assert metrics["risk.null_reps_ratio"] == 1.0
    assert all(value > -1e-9 for name, value in metrics.items() if name.endswith("self_s"))
