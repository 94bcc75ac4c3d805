"""The command line reports the library's argument rules: a value that a
rule of ``models``, ``procedures`` or ``risk`` refuses exits 2, with that
rule's message, at the field path of the refused argument."""

import contextlib
import io
import json

import pytest

from corrdetect.cli import main

_SWEEP = {"model": {"family": "grouped", "p": [16], "gamma": [0.5], "R": [4]},
          "test": {"eta": 0.2, "n_cal": 1000},
          "sweep": {"s": [3], "multipliers": [1.0], "n_reps": 100}}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("block,key,value,message", [
    ("model", "R", [3], "model.R: R must divide p, got R=3, p=16"),
    ("model", "gamma", [1.5], "model.gamma: gamma must lie in [0, 1], got 1.5"),
    ("sweep", "s", [40], "sweep.s: s must be in [1, 16], got 40"),
    ("test", "n_cal", 999, "test.n_cal: n_cal must be >= 1000, got 999"),
    ("test", "C", 2.0, "test.C: paper_constants mode needs the constant C, and only it uses C"),
    ("sweep", "separation_reference", "x",
     "sweep.separation_reference: separation_reference must be 'cell' or 'gamma0'"),
    ("sweep", "multipliers", [-1.0], "sweep.multipliers: multipliers must be positive"),
])
def test_a_sweep_reports_the_library_refusal_at_its_field(tmp_path, block, key, value, message):
    cfg = json.loads(json.dumps(_SWEEP))
    cfg[block][key] = value
    path, out_dir = tmp_path / "sweep.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(["sweep", "--config", str(path), "--out", str(out_dir)])
    assert code == 2 and out == "" and not out_dir.exists()
    assert f"config error at {message}" in err


@pytest.mark.parametrize("argv,message", [
    (["rate", "--family", "grouped", "--R", "3", "--s", "2"],
     "model.R: R must divide p, got R=3, p=16"),
    (["rate", "--family", "eq", "--s", "17"], "s: s must be in [1, 16], got 17"),
    (["calibrate", "--family", "eq", "--s", "3", "--n-cal", "999"],
     "test.n_cal: n_cal must be >= 1000, got 999"),
    (["divergence", "--family", "eq", "--prior", "single_group_sparse", "--R", "4", "--s", "5",
      "--magnitude", "0.4"], "prior.s: s must be in [1, 4], got 5"),
])
def test_a_flag_reports_the_library_refusal_at_its_field(argv, message):
    code, out, err = _run(argv + ["--p", "16", "--gamma", "0.5"])
    assert code == 2 and out == ""
    assert f"config error at {message}" in err


def test_an_integer_past_the_float_range_is_a_config_error(tmp_path):
    # a JSON integer with 400 digits raised OverflowError out of main
    cfg = json.loads(json.dumps(_SWEEP))
    cfg["model"]["gamma"] = [10 ** 400]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2 and out == "" and "config error at model.gamma:" in err
