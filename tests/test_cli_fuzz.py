"""Config fuzzer for the command line.

Two kinds of input drive ``main``: edge values on the flags of ``rate``,
``calibrate`` and ``divergence`` (0, negatives, NaN, +-inf, s > p, an R that
does not divide p, large integers), and one-field mutations of a valid p=16
sweep config.  Every run must exit 0, 1 or 2 with no exception escaping
``main``, and a run that exits 0 must print only finite numbers; a sweep
that exits 0 must also write them, and its manifest must reproduce its CSV.

Large integers go to the fields where a large valid value is still a small
computation (sparsities, group counts, seeds, and p for ``rate``); a large p,
replication count or worker count elsewhere asks for real memory, time or
processes, so those fields take small edges only.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from corrdetect.cli import main

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_LARGE = [2 ** 31 + 1, 2 ** 64, 2 ** 128]
_INTS = [0, -1, -16, 1, 2, 3, 8, 16, 17] + _LARGE
_SMALL_INTS = [0, -1, 1, 2, 3, 8, 15, 16, 17]
_FLOATS = ["0", "-0.5", "nan", "inf", "-inf", "1", "1.5", "1e300", "0.3"]

_FUZZ = dict(derandomize=True, database=None, deadline=None,
             suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def pattern_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "v.txt"
    path.write_text("\n".join(["1.0", "-1.0"] * 8) + "\n")
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert not _NON_FINITE.search(out), (argv, out)


def _flags(draw, base: dict, pools: dict) -> dict:
    """``base`` with up to two of its ``pools`` fields set to an edge value."""
    flags = dict(base)
    for name in draw(st.lists(st.sampled_from(sorted(pools)), max_size=2, unique=True)):
        flags[name] = draw(st.sampled_from(pools[name]))
    return flags


def _argv(command: str, flags: dict, pattern: str) -> list:
    argv = [command]
    for name, value in flags.items():
        if value is True:
            argv.append(f"--{name}")
        elif value is not None:
            argv.append(f"--{name}={pattern if value == 'V' else value}")
    return argv


@st.composite
def _model_base(draw):
    family = draw(st.sampled_from(["eq", "grouped", "rankone"]))
    return {"family": family, "p": 16, "gamma": 0.3,
            "R": 4 if family == "grouped" else None,
            "v-file": "V" if family == "rankone" else None}


@st.composite
def rate_flags(draw):
    base = dict(draw(_model_base()), s=3)
    return _flags(draw, base, {"p": _INTS + [16], "s": _INTS, "gamma": _FLOATS,
                               "R": _INTS + [4, 8]})


@st.composite
def calibrate_flags(draw):
    base = dict(draw(_model_base()), s=3, eta=0.2, **{"n-cal": 1000, "seed": 0})
    return _flags(draw, base, {"p": _SMALL_INTS, "s": _INTS + [None], "gamma": _FLOATS,
                               "R": _INTS + [4], "eta": _FLOATS,
                               "n-cal": [0, -1, 999, 1000], "seed": [-1] + _LARGE,
                               "adaptive": [True]})


@st.composite
def divergence_flags(draw):
    base = dict(draw(_model_base()), magnitude=0.4, seed=0,
                prior=draw(st.sampled_from(["point_mass", "uniform_sparse",
                                            "single_group_sparse", "group_supported",
                                            "shifted_sparse"])),
                method=draw(st.sampled_from(["auto", "closed_form", "hypergeometric_sum",
                                             "exact_enumeration", "monte_carlo"])),
                **{"n-mc": 500})
    if base["prior"] in ("single_group_sparse", "group_supported"):
        base["R"] = 4
    # each prior gets only the size flag it takes: m whole groups, or s coordinates
    base.update({"m": 1} if base["prior"] == "group_supported" else {"s": 3})
    return _flags(draw, base, {"p": _SMALL_INTS, "s": _INTS, "gamma": _FLOATS,
                               "R": _INTS + [4], "m": _INTS + [2],
                               "magnitude": _FLOATS + ["2147483649"],
                               "n-mc": [0, 1, -1, 2, 500], "seed": [-1] + _LARGE,
                               "signs": ["match_pattern", "rademacher"]})


@settings(max_examples=150, **_FUZZ)
@given(flags=rate_flags())
def test_rate_flags(pattern_file, flags):
    _check(_argv("rate", flags, pattern_file))


@settings(max_examples=40, **_FUZZ)
@given(flags=calibrate_flags())
def test_calibrate_flags(pattern_file, flags):
    _check(_argv("calibrate", flags, pattern_file))


@settings(max_examples=150, **_FUZZ)
@given(flags=divergence_flags())
@example(flags={"prior": "uniform_sparse", "family": "eq", "p": 10, "s": 2, "gamma": 0.3,
                "magnitude": "nan"})  # once printed a NaN row and exited 0
def test_divergence_flags(pattern_file, flags):
    _check(_argv("divergence", flags, pattern_file))


_SWEEP = {
    "model": {"family": "equicorrelated", "p": [16], "gamma": [0.5]},
    "test": {"mode": "calibrated", "eta": 0.2, "n_cal": 1000},
    "sweep": {"s": [3], "multipliers": [1.0], "n_reps": 100},
    "seed": 0,
    "workers": 1,
}
_FIELDS = [("model", k) for k in ("family", "p", "gamma", "R", "v_file")] + [
    ("test", k) for k in ("mode", "eta", "n_cal", "C", "s")] + [
    ("sweep", k) for k in ("s", "multipliers", "n_reps", "separation_reference",
                           "adaptive")] + [(None, "seed"), (None, "workers"), (None, "bogus")]
_JSON_EDGES = [0, -1, 1, 3, 17, 1.5, math.nan, math.inf, -math.inf, True, None, "x",
               "adaptive", "grouped", "gamma0", "paper_constants", [], [0], [17],
               [math.nan], [1.0, -1.0], {}] + _LARGE
# valid values of each field, so that mutations also reach runs that exit 0
_VALID = {"family": ["eq", "equicorrelated"], "p": [[8], [4, 16]], "gamma": [[0.0, 1.0], 0.9],
          "eta": [0.05, 0.5], "n_cal": [1000],
          "multipliers": [[0.5, 4.0]], "n_reps": [1, 100], "separation_reference": ["gamma0"],
          "adaptive": [True, False], "seed": [7, 2 ** 128 - 1], "workers": [1]}
# a large valid p, replication count or worker count is a large job, not an edge
_COSTLY = {"p": 17, "n_reps": 100, "n_cal": 1000, "workers": 1}


def _affordable(key, value) -> bool:
    values = value if isinstance(value, list) else [value]
    return key not in _COSTLY or not any(
        type(x) is int and x > _COSTLY[key] for x in values)


@settings(max_examples=60, **_FUZZ)
@given(field=st.sampled_from(_FIELDS), data=st.data())
def test_sweep_config_mutations(field, data):
    section, key = field
    value = data.draw(st.sampled_from(_VALID.get(key, []) + _JSON_EDGES))
    assume(_affordable(key, value))
    cfg = json.loads(json.dumps(_SWEEP))
    (cfg[section] if section else cfg)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "sweep.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        code, out, err = _run(["sweep", "--config", str(path), "--out", str(out_dir)])
        assert code in (0, 1, 2), (cfg, code, err)
        if code == 0:
            csv = (out_dir / "sweep.csv").read_text()
            assert not _NON_FINITE.search(out + csv), (cfg, csv)
            again = Path(tmp) / "again"
            assert _run(["sweep", "--config", str(out_dir / "manifest.json"),
                         "--out", str(again)])[0] == 0
            assert (again / "sweep.csv").read_text() == csv
