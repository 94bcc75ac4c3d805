"""In-memory span tracer for corrdetect, installed from outside the package.

The tracer replaces public functions at the module attributes their callers
resolve at call time (``corrdetect.risk.substream``, ``procedures.decorrelate``,
``statistics.scan`` ...) with thin wrappers, and puts the originals back on
exit.  Each wrapped call appends one span ``[name, start, end, parent, rows,
tag]`` to a list; nesting is tracked with a stack, so the run must be
single-process.  A span's self time is its duration minus the durations of
its direct children.

``rows`` is the leading-axis size of the call's data argument, or of its
result for the samplers (1 for a single vector), so ``rows / calls`` shows how
much work one call batches.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

__all__ = ["LAYERS", "Tracer", "PoolCounter", "layer_metrics", "per_layer_names"]


def _rows(x, base_ndim: int = 1) -> int:
    shape = getattr(getattr(x, "x", x), "shape", ())
    return int(shape[0]) if len(shape) > base_ndim else 1


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _one(args, kwargs, result):
    return 1, None


def _data(pos, key, base_ndim=1):
    def rows(args, kwargs, result):
        return _rows(_arg(args, kwargs, pos, key), base_ndim), None
    return rows


def _drawn(args, kwargs, result):
    return _rows(result), None


def _sample(args, kwargs, result):
    # tag null draws so the risk engine's null work can be counted
    theta = _arg(args, kwargs, 1, "theta")
    return _rows(result), ("null" if theta is None else "alt")


def _calibrate(args, kwargs, result):
    return int(_arg(args, kwargs, 3, "n_cal")), None


def _divergence(args, kwargs, result):
    return 1, result.method


# statistic -> (name of its data parameter, ndim of one observation's data)
_STATISTICS = {
    "thresholded_sum": ("z", 1), "squared_norm": ("z", 1),
    "scan": ("xt_blocks", 2), "linear_scan": ("x", 1),
    "linear_projection": ("x", 1), "averaged_group": ("x", 1),
    "thresholded_profile": ("z", 1), "noiseless_residual": ("x", 1),
}

# (span name, row rule, [(module, attribute), ...]): every attribute through
# which the package or the benchmark reaches the function.
_TARGETS = [
    ("streams.substream", _one,
     [("corrdetect.streams", "substream"), ("corrdetect.risk", "substream")]),
    ("models.sample", _sample,
     [("corrdetect.models", "sample"), ("corrdetect.risk", "sample")]),
    ("models.decorrelate", _data(1, "x"),
     [("corrdetect.models", "decorrelate"), ("corrdetect.procedures", "decorrelate")]),
    ("models.precision_apply", _data(1, "u"),
     [("corrdetect.models", "precision_apply"),
      ("corrdetect.divergences", "precision_apply")]),
    ("procedures.evaluate", _data(1, "obs"),
     [("corrdetect.procedures", "evaluate"), ("corrdetect.risk", "evaluate")]),
    ("procedures.calibrate_null_quantile", _calibrate,
     [("corrdetect.procedures", "calibrate_null_quantile")]),
    ("divergences.draw", _drawn,
     [("corrdetect.divergences", "draw"), ("corrdetect.risk", "draw_prior")]),
] + [
    (f"statistics.{name}", _data(0, key, ndim), [("corrdetect.statistics", name)])
    for name, (key, ndim) in _STATISTICS.items()
] + [
    ("risk.estimate_risk", _one, [("corrdetect.risk", "estimate_risk")]),
    ("divergences.ingster_suslina_chisq", _divergence,
     [("corrdetect.divergences", "ingster_suslina_chisq")]),
]

LAYERS = [name for name, _, _ in _TARGETS if name not in
          ("risk.estimate_risk", "divergences.ingster_suslina_chisq")]
DIVERGENCE_METHODS = ("closed_form", "hypergeometric_sum", "exact_enumeration",
                      "monte_carlo")
_CALIBRATE = "procedures.calibrate_null_quantile"


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer}.{field}" for layer in LAYERS
             for field in ("calls", "rows", "self_s")]
    names.append("risk.estimate_risk.self_s")
    names += [f"divergences.ingster_suslina_chisq.{m}.self_s"
              for m in DIVERGENCE_METHODS]
    names += ["risk.null_reps_ratio", "risk.pool.tasks", "risk.pool.wait_s",
              "trace_overhead_frac"]
    return names


class Tracer:
    """Context manager that wraps the targets on entry and restores them on exit."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, rule):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4], span[5] = rule(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        try:
            for name, rule, sites in _TARGETS:
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, rule))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class PoolCounter:
    """Counts tasks sent through ``corrdetect.risk.ProcessPoolExecutor.map``
    and the time the client waits for their results."""

    tasks: int = 0
    wait_s: float = 0.0

    def __enter__(self):
        risk = importlib.import_module("corrdetect.risk")
        base = self._original = risk.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def map(self, fn, *iterables, timeout=None, chunksize=1):
                batches = [list(it) for it in iterables]
                counter.tasks += len(batches[0]) if batches else 0
                start = time.perf_counter()
                results = list(super().map(fn, *batches, timeout=timeout,
                                           chunksize=chunksize))
                counter.wait_s += time.perf_counter() - start
                return iter(results)

        risk.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        importlib.import_module("corrdetect.risk").ProcessPoolExecutor = self._original
        return False


def layer_metrics(spans: list, null_base: int) -> dict:
    """Per-layer calls, rows and self time, plus the null work ratio.

    ``null_base`` is cells x n_reps of the traced work; the ratio counts
    null rows the risk engine simulated (null draws outside calibration).
    """
    child_s = [0.0] * len(spans)
    under_cal = [False] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            under_cal[i] = under_cal[parent]
        under_cal[i] = under_cal[i] or name == _CALIBRATE
    totals: dict = {}
    null_rows = 0
    for i, (name, start, end, _, rows, tag) in enumerate(spans):
        key = f"{name}.{tag}" if name == "divergences.ingster_suslina_chisq" else name
        calls, total_rows, self_s = totals.get(key, (0, 0, 0.0))
        totals[key] = (calls + 1, total_rows + rows, self_s + (end - start) - child_s[i])
        if name == "models.sample" and tag == "null" and not under_cal[i]:
            null_rows += rows
    out = {}
    for layer in LAYERS:
        calls, rows, self_s = totals.get(layer, (0, 0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.rows"] = rows
        out[f"{layer}.self_s"] = self_s
    out["risk.estimate_risk.self_s"] = totals.get("risk.estimate_risk", (0, 0, 0.0))[2]
    for method in DIVERGENCE_METHODS:
        key = f"divergences.ingster_suslina_chisq.{method}"
        out[f"{key}.self_s"] = totals.get(key, (0, 0, 0.0))[2]
    out["risk.null_reps_ratio"] = null_rows / null_base if null_base else 0.0
    return out
