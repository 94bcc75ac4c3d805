"""Command-line interface: flags, exit codes, config diagnostics, round-trips."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from corrdetect.cli import main
from corrdetect.divergences import GroupSupported, SingleGroupSparse, ingster_suslina_chisq
from corrdetect.models import Equicorrelated
from corrdetect.procedures import MIN_N_CAL
from corrdetect.risk import MIN_N_REPS


def run_cli(args, env=None):
    """Run in-process, capturing stdout/stderr and the exit code."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    if env:
        old = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        if env:
            for k, v in old.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


class TestRateCommand:
    def test_sparse_example(self):
        code, out, _ = run_cli(["rate", "--family", "eq", "--p", "100",
                                "--s", "5", "--gamma", "0"])
        assert code == 0
        assert "regime sparse" in out
        assert "rate_sq 8.0472" in out

    def test_perfect_dense(self):
        code, out, _ = run_cli(["rate", "--family", "eq", "--p", "100",
                                "--s", "100", "--gamma", "1"])
        assert code == 0 and "rate_sq 100.0000" in out

    def test_grouped_needs_R(self):
        code, _, err = run_cli(["rate", "--family", "grouped", "--p", "100",
                                "--s", "5", "--gamma", "0.5"])
        assert code == 2 and "model.R" in err

    def test_rank_one_via_pattern_file(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("\n".join(["1.0"] * 16) + "\n")
        code, out, _ = run_cli(["rate", "--family", "rankone", "--p", "16",
                                "--s", "2", "--gamma", "0.5", "--v-file", str(vf)])
        assert code == 0 and "regime sparse" in out

    def test_pattern_length_must_be_p(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("\n".join(["1.0"] * 8) + "\n")
        code, out, err = run_cli(["rate", "--family", "rankone", "--p", "16",
                                  "--s", "2", "--gamma", "0.5", "--v-file", str(vf)])
        assert code == 2 and out == "" and "model.v_file" in err

    def test_non_numeric_pattern_is_a_config_error(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("\n".join(["1.0"] * 15 + ["one"]) + "\n")
        code, out, err = run_cli(["rate", "--family", "rankone", "--p", "16",
                                  "--s", "2", "--gamma", "0.5", "--v-file", str(vf)])
        assert code == 2 and out == "" and "model.v_file" in err

    def test_non_finite_pattern_is_a_config_error(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("\n".join(["nan"] + ["1.0"] * 15) + "\n")
        code, out, err = run_cli(["rate", "--family", "rankone", "--p", "16",
                                  "--s", "2", "--gamma", "0.5", "--v-file", str(vf)])
        assert code == 2 and out == "" and "model.v_file" in err

    def test_missing_pattern_file_is_a_config_error(self, tmp_path):
        code, out, err = run_cli(["rate", "--family", "rankone", "--p", "4", "--s", "1",
                                  "--gamma", "0.5", "--v-file", str(tmp_path / "none.txt")])
        assert code == 2 and out == "" and "model.v_file" in err

    @pytest.mark.parametrize("flags,field", [
        (["--family", "eq", "--R", "8"], "model.R"),
        (["--family", "rankone", "--v-file", "V", "--R", "8"], "model.R"),
        (["--family", "eq", "--v-file", "V"], "model.v_file"),
        (["--family", "grouped", "--R", "8", "--v-file", "V"], "model.v_file"),
    ])
    def test_stray_model_flag_is_a_config_error(self, tmp_path, flags, field):
        vf = tmp_path / "v.txt"
        vf.write_text("\n".join(["1.0"] * 64) + "\n")
        flags = [str(vf) if f == "V" else f for f in flags]
        code, out, err = run_cli(["rate", "--p", "64", "--s", "4", "--gamma", "0.5"] + flags)
        assert code == 2 and out == "" and field in err

    def test_uncharacterized_verdict(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("\n".join(["1.0"] * 16) + "\n")
        code, out, _ = run_cli(["rate", "--family", "rankone", "--p", "16",
                                "--s", "10", "--gamma", "0.5", "--v-file", str(vf)])
        assert code == 0 and "rate_sq uncharacterized" in out


def _sweep_config(tmp_path, **overrides):
    cfg = {
        "model": {"family": "equicorrelated", "p": [32], "gamma": [0.0, 0.5]},
        "test": {"mode": "calibrated", "eta": 0.2, "n_cal": 1000},
        "sweep": {"s": [3], "multipliers": [0.25, 8.0], "n_reps": 200},
        "seed": 0,
        "workers": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSweepCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = _sweep_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        csv_path = out_dir / "sweep.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("family,p,s,gamma,R,regime,rate_sq,multiplier,"
                            "type_i,worst_type_ii,total,se,n_reps,seed")
        assert len(lines) == 5
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 0
        assert all(c["status"] == "ok" for c in manifest["cells"])

    def test_manifest_reproduces_identical_bytes(self, tmp_path):
        cfg = _sweep_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)])[0] == 0
        # rerun from the manifest itself (it embeds the config)
        assert run_cli(["sweep", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2)])[0] == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_failed_cell_exits_nonzero_after_writing(self, tmp_path):
        # grouped at gamma = 1 with s < p/R is a refused configuration
        cfg = _sweep_config(tmp_path, model={"family": "grouped", "p": [32],
                                             "gamma": [0.5, 1.0], "R": [4]})
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 1
        assert "1 failed cells" in out
        assert "gamma=1.0" in err
        assert len((out_dir / "sweep.csv").read_text().splitlines()) == 5
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [c["status"] for c in manifest["cells"]] == ["ok", "error"]

    def test_bad_group_count_diagnostic(self, tmp_path):
        cfg = _sweep_config(tmp_path, model={"family": "grouped", "p": [32],
                                             "gamma": [0.5], "R": [5]})
        code, _, err = run_cli(["sweep", "--config", str(cfg), "--out",
                                str(tmp_path / "x")])
        assert code == 2
        assert "model.R" in err

    def test_non_numeric_pattern_diagnostic(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("1.0 -1.0 x 1.0\n")
        cfg = _sweep_config(tmp_path, model={"family": "rank_one", "p": [4],
                                             "gamma": [0.5], "v_file": str(vf)})
        code, _, err = run_cli(["sweep", "--config", str(cfg), "--out",
                                str(tmp_path / "x")])
        assert code == 2 and "model.v_file" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _sweep_config(tmp_path, bogus=1)
        code, _, err = run_cli(["sweep", "--config", str(cfg), "--out",
                                str(tmp_path / "x")])
        assert code == 2 and "bogus" in err

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["sweep", "--config", str(tmp_path / "none.json"),
                                "--out", str(tmp_path / "x")])
        assert code == 2

    def test_seed_env_fallback(self, tmp_path):
        cfg = _sweep_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["seed"]
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "env-out"
        code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)],
                             env={"CORRDETECT_SEED": "77"})
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 77

    def test_flag_overrides_env_and_file(self, tmp_path):
        cfg = _sweep_config(tmp_path)
        out_dir = tmp_path / "flag-out"
        code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir),
                              "--seed", "5"], env={"CORRDETECT_SEED": "77"})
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 5

    @pytest.mark.parametrize("seed", [-1, "abc", 1.5, True, 2 ** 128])
    def test_bad_config_seed_refused(self, tmp_path, seed):
        cfg = _sweep_config(tmp_path, seed=seed)
        out_dir = tmp_path / "bad-seed"
        code, _, err = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2 and "config error at seed" in err
        assert not out_dir.exists()

    def test_largest_seed_accepted(self, tmp_path):
        cfg = _sweep_config(tmp_path, seed=2 ** 128 - 1)
        out_dir = tmp_path / "big-seed"
        code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 2 ** 128 - 1

    # one field at a time on a grouped p=64 sweep; each must be refused before
    # any cell runs, at its own field path
    @pytest.mark.parametrize("section,key,value", [
        ("model", "p", [math.inf]), ("model", "R", [2.5]), ("sweep", "s", [2.5]),
        ("sweep", "multipliers", [math.inf]), ("sweep", "multipliers", [math.nan]),
        ("sweep", "multipliers", [8.0, -1.0]), ("sweep", "multipliers", [0.0]),
        ("sweep", "n_reps", True), ("test", "n_cal", True), ("test", "n_cal", 1000.0),
        (None, "workers", 2.5), (None, "workers", 0), (None, "workers", -3),
    ])
    def test_bad_number_is_a_config_error(self, tmp_path, section, key, value):
        cfg = json.loads(_sweep_config(tmp_path, model={
            "family": "grouped", "p": [64], "gamma": [0.5], "R": [4]}).read_text())
        (cfg[section] if section else cfg)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["sweep", "--config", str(path), "--out", str(out_dir)])
        field = f"{section}.{key}" if section else key
        assert code == 2 and f"config error at {field}:" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags,env", [(["--seed", "5"], {}),
                                           ([], {"CORRDETECT_SEED": "9"})])
    def test_manifest_replays_a_flag_or_environment_seed(self, tmp_path, monkeypatch,
                                                         flags, env):
        # the manifest once held the config without the seed the run used, so
        # a replay fell back to seed 0 or to the environment of the replay
        monkeypatch.delenv("CORRDETECT_SEED", raising=False)
        data = json.loads(_sweep_config(tmp_path, model={
            "family": "equicorrelated", "p": [16], "gamma": [0.5]}).read_text())
        del data["seed"]
        cfg = tmp_path / "unseeded.json"
        cfg.write_text(json.dumps(data))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)] + flags,
                       env=env)[0] == 0
        assert run_cli(["sweep", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2)])[0] == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("env", ["abc", "-3", "1.5"])
    def test_bad_env_seed_refused(self, tmp_path, env):
        cfg = _sweep_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["seed"]
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")],
                               env={"CORRDETECT_SEED": env})
        assert code == 2 and "config error at seed" in err


class TestOtherCommands:
    def test_calibrate_emits_descriptor(self, tmp_path):
        out = tmp_path / "test.json"
        code, _, _ = run_cli(["calibrate", "--family", "eq", "--p", "32", "--s", "3",
                              "--gamma", "0.5", "--eta", "0.2", "--n-cal", "1000",
                              "--seed", "0", "--out", str(out)])
        assert code == 0
        desc = json.loads(out.read_text())
        assert desc["mode"] == "calibrated"
        assert desc["constituents"][0]["kind"] == "thresholded"
        assert desc["calibration"]["n_cal"] == 1000

    def test_negative_seed_flag_refused(self, tmp_path):
        code, _, err = run_cli(["calibrate", "--family", "eq", "--p", "32", "--s", "3",
                                "--gamma", "0.5", "--n-cal", "1000", "--seed", "-1",
                                "--out", str(tmp_path / "test.json")])
        assert code == 2 and "config error at seed" in err

    def test_risk_command(self, tmp_path):
        cfg = {
            "model": {"family": "equicorrelated", "p": 32, "gamma": 0.0},
            "test": {"mode": "calibrated", "eta": 0.2, "n_cal": 1000, "s": 3},
            "risk": {"s": 3, "multiplier": 8.0, "n_reps": 300},
            "seed": 1,
        }
        path = tmp_path / "risk.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["risk", "--config", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["n_reps"] == 300
        assert 0.0 <= payload["estimate"]["total"] <= 2.0

    @pytest.mark.parametrize("multiplier", [-1.0, 0])
    def test_nonpositive_risk_multiplier_is_a_config_error(self, tmp_path, multiplier):
        cfg = {
            "model": {"family": "equicorrelated", "p": 16, "gamma": 0.0},
            "test": {"mode": "calibrated", "eta": 0.2, "n_cal": 1000, "s": 3},
            "risk": {"s": 3, "multiplier": multiplier, "n_reps": 300},
        }
        path = tmp_path / "risk.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["risk", "--config", str(path)])
        assert code == 2 and out == "" and "config error at risk.multiplier:" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_selftest_refuses_fewer_than_one_worker(self, tmp_path, workers):
        out_dir = tmp_path / "selftest"
        code, out, err = run_cli(["selftest", "--workers", workers, "--out", str(out_dir)])
        assert code == 2 and out == "" and "config error at workers:" in err
        assert not out_dir.exists()

    def test_divergence_command(self):
        code, out, _ = run_cli(["divergence", "--prior", "uniform_sparse",
                                "--family", "eq", "--p", "10", "--s", "2",
                                "--gamma", "0.3", "--magnitude", "0.4",
                                "--method", "hypergeometric_sum"])
        assert code == 0
        row = json.loads(out)
        assert row["method"] == "hypergeometric_sum"
        assert row["risk_bound"] == pytest.approx(1 - 0.5 * row["chi_sq"] ** 0.5)

    def test_rademacher_divergence_is_seeded(self):
        args = ["divergence", "--prior", "uniform_sparse", "--signs", "rademacher",
                "--family", "eq", "--p", "40", "--s", "3", "--gamma", "0.3",
                "--magnitude", "0.5", "--method", "monte_carlo", "--n-mc", "3000",
                "--seed", "11"]
        first, second = run_cli(args), run_cli(args)
        assert first[0] == 0
        assert first[1] == second[1]
        row = json.loads(first[1])
        assert row["prior"]["signs"] == "rademacher"
        assert row["method"] == "monte_carlo" and row["stderr"] > 0
        other = run_cli(args[:-1] + ["12"])
        assert json.loads(other[1])["chi_sq"] != row["chi_sq"]

    @pytest.mark.parametrize("n_mc", ["0", "1"])
    def test_monte_carlo_divergence_refuses_tiny_n_mc(self, n_mc):
        code, out, err = run_cli(["divergence", "--prior", "uniform_sparse",
                                  "--family", "eq", "--p", "16", "--s", "2",
                                  "--gamma", "0.3", "--magnitude", "0.4",
                                  "--method", "monte_carlo", "--n-mc", n_mc])
        assert code == 1
        assert out == ""
        assert "n_mc" in err

    @pytest.mark.parametrize("prior", ["single_group_sparse", "group_supported"])
    def test_group_prior_takes_R_under_any_family(self, prior):
        # --R sets the prior's group count; the equicorrelated model has none
        size = ["--m", "2"] if prior == "group_supported" else ["--s", "2"]
        code, out, err = run_cli(["divergence", "--prior", prior, "--family", "eq",
                                  "--p", "16", "--R", "4"] + size +
                                 ["--gamma", "0.3", "--magnitude", "0.4",
                                  "--method", "exact_enumeration"])
        assert code == 0, err
        row = json.loads(out)
        model = Equicorrelated(16, 0.3)
        want = {"single_group_sparse": SingleGroupSparse(16, 4, 2, 0.4),
                "group_supported": GroupSupported(16, 4, 2, 0.4)}[prior]
        assert row["model"] == model.descriptor() and row["prior"] == want.descriptor()
        assert row["chi_sq"] == ingster_suslina_chisq(want, model, method="exact_enumeration").chi_sq

    @pytest.mark.parametrize("argv,field", [
        (["divergence", "--prior", "uniform_sparse", "--family", "eq", "--R", "4"],
         "model.R"),
        (["divergence", "--prior", "single_group_sparse", "--family", "eq"], "model.R"),
        (["divergence", "--prior", "single_group_sparse", "--family", "grouped"],
         "model.R"),
    ])
    def test_divergence_R_belongs_to_a_group_prior_or_grouped_model(self, argv, field):
        code, out, err = run_cli(argv + ["--p", "16", "--s", "2", "--gamma", "0.3",
                                         "--magnitude", "0.4"])
        assert code == 2 and out == "" and field in err

    @pytest.mark.parametrize("argv,field", [
        (["calibrate", "--family", "grouped", "--s", "3"], "model.R"),
        (["calibrate", "--family", "rankone", "--s", "3"], "model.v_file"),
        (["divergence", "--family", "rankone", "--prior", "uniform_sparse",
          "--s", "2", "--magnitude", "0.4"], "model.v_file"),
    ])
    def test_missing_model_flag_is_a_config_error(self, argv, field):
        code, out, err = run_cli(argv + ["--p", "16", "--gamma", "0.5"])
        assert code == 2 and out == "" and field in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "corrdetect", "rate", "--family", "eq",
             "--p", "100", "--s", "5", "--gamma", "0"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "8.0472" in proc.stdout


# sha256 of the stdout of valid commands, recorded before the flag commands
# went through the config validators; risk leaves out its wall time.  The two
# hypergeometric_sum rows were re-recorded when the overlap weights became a
# running sum of log ratios: chi_sq moved by 1.3e-15 absolute, to within 3e-18
# of a 50-digit value
_PINNED = {
    "rate --family eq --p 100 --s 5 --gamma 0.5":
        "611753c19d60fe9baefeab560732ef915280a0c9d7f556fe44edcc920d8ee183",
    "rate --family grouped --p 64 --s 4 --gamma 0.5 --R 8":
        "fe1e525162f2d3e63c2119586eeb0903d07143e110a26b5735e6fe51ba8dc351",
    "rate --family rankone --p 16 --s 2 --gamma 0.5 --v-file V":
        "ff67837a087ad27050acb7efc5e99004861dc2d5cee435d7e9683669c8530be3",
    "divergence --prior uniform_sparse --family eq --p 16 --s 3 --gamma 0.4 "
    "--magnitude 0.4 --method hypergeometric_sum":
        "6f022e2fd0d4e6167303e1493460d14e4c15134e572cbd30c61d98a84a6f3fb8",
    "divergence --prior single_group_sparse --family grouped --p 16 --R 4 --s 2 "
    "--gamma 0.3 --magnitude 0.5 --method exact_enumeration":
        "fe8c3c7c0f7ff6e7adf34c1c58d6698bb25f25ed735b6cc185b335dfded16fa6",
    "divergence --prior shifted_sparse --family eq --p 16 --s 3 --gamma 0.4 "
    "--magnitude 0.2 --method hypergeometric_sum":
        "509c4ac6104222a1d6011df0f59470c4d05340b22af0b3218b94bc4922ebc10b",
    "divergence --prior uniform_sparse --signs rademacher --family eq --p 16 --s 3 "
    "--gamma 0.4 --magnitude 0.4 --method monte_carlo --n-mc 2000 --seed 5":
        "b771cfcd67b82856befeceb51b7afb67e2d21f8b9ca0b976f3a3afa7a7d9d039",
    "calibrate --family eq --p 16 --s 3 --gamma 0.5 --n-cal 1000 --seed 0":
        "fa944fa664c529f7274515d5f33ddb90947ff48b95a9f752c3e49ab2e0e59d49",
    "risk --config C":
        "7bf6fd9ad8af1c876d4e093bcb0aa1b0ef1482f9cb54be80618522f34bef4f27",
}


@pytest.mark.parametrize("command", sorted(_PINNED))
def test_valid_command_output_is_pinned(tmp_path, command):
    import hashlib

    vf, cfg = tmp_path / "v.txt", tmp_path / "risk.json"
    vf.write_text("\n".join(["1.0", "-1.0"] * 8) + "\n")
    cfg.write_text(json.dumps({
        "model": {"family": "equicorrelated", "p": 16, "gamma": 0.3},
        "test": {"mode": "calibrated", "eta": 0.2, "n_cal": 1000, "s": 3},
        "risk": {"s": 3, "multiplier": 4.0, "n_reps": 200}, "seed": 2}))
    argv = [{"V": str(vf), "C": str(cfg)}.get(a, a) for a in command.split()]
    code, out, err = run_cli(argv)
    assert code == 0, err
    if argv[0] == "risk":
        payload = json.loads(out)
        del payload["estimate"]["wall_time"]
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command]


_EQ = ["--family", "eq", "--p", "16", "--gamma", "0.3"]
_DIV = ["divergence", "--prior", "uniform_sparse", "--s", "2", "--magnitude", "0.4"] + _EQ


# flags are checked by the config validators, at their config field paths
@pytest.mark.parametrize("argv,field", [
    (["rate", "--family", "eq", "--p", "0", "--s", "1", "--gamma", "0.5"], "model.p"),
    (["rate", "--family", "eq", "--p", "-4", "--s", "1", "--gamma", "0.5"], "model.p"),
    (["rate", "--family", "eq", "--p", "16", "--s", "30", "--gamma", "0.5"], "s"),
    (["rate", "--family", "eq", "--p", "16", "--s", "0", "--gamma", "0.5"], "s"),
    (["rate", "--family", "eq", "--p", "16", "--s", "2", "--gamma", "1.5"], "model.gamma"),
    (["rate", "--family", "eq", "--p", "16", "--s", "2", "--gamma", "nan"], "model.gamma"),
    (["rate", "--family", "grouped", "--p", "16", "--s", "2", "--gamma", "0.3", "--R", "3"],
     "model.R"),
    (["calibrate", "--s", "3", "--eta", "2"] + _EQ, "test.eta"),
    (["calibrate", "--s", "3", "--eta", "nan"] + _EQ, "test.eta"),
    (["calibrate", "--s", "17"] + _EQ, "test.s"),
    (["calibrate", "--s", "3", "--adaptive"] + _EQ, "test.s"),
    (["calibrate", "--s", "3", "--n-cal", "0"] + _EQ, "test.n_cal"),
    (["calibrate", "--s", "3", "--n-cal", str(MIN_N_CAL - 1)] + _EQ, "test.n_cal"),
    (_DIV[:-2] + ["--gamma", "-0.1"], "model.gamma"),
    (_DIV + ["--magnitude", "nan"], "prior.magnitude"),
    (_DIV + ["--magnitude", "inf"], "prior.magnitude"),
    (_DIV + ["--magnitude=-inf"], "prior.magnitude"),
    (_DIV + ["--s", "17"], "prior.s"),
    (_DIV + ["--prior", "point_mass", "--s", "-3"], "prior.s"),
    (_DIV + ["--prior", "shifted_sparse", "--s", "16"], "prior.s"),
    (_DIV + ["--prior", "single_group_sparse", "--R", "4", "--s", "5"], "prior.s"),
    (_DIV + ["--prior", "single_group_sparse", "--R", "3"], "prior.R"),
    (_DIV + ["--prior", "group_supported", "--R", "4", "--m", "5"], "prior.m"),
    # a flag the prior does not take: both once exited 0 and dropped it
    (_DIV + ["--m", "7"], "prior.m"),
    (_DIV + ["--prior", "group_supported", "--R", "4", "--m", "2"], "prior.s"),
    (_DIV + ["--prior", "single_group_sparse", "--R", "4", "--signs", "rademacher"],
     "prior.signs"),
    (_DIV + ["--prior", "point_mass", "--signs", "rademacher"], "prior.signs"),
    (_DIV + ["--signs", "match_pattern"], "prior.signs"),
])
def test_flag_is_refused_at_its_field_path(argv, field):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert f"config error at {field}:" in err


@pytest.mark.parametrize("command", ["rate", "calibrate", "divergence", "sweep"])
def test_pattern_of_the_wrong_norm_is_a_config_error(tmp_path, command):
    # ||v||^2 = 7, not p = 4: this exited 1 from the library, and failed every
    # sweep cell
    vf = tmp_path / "v.txt"
    vf.write_text("1 1 1 2\n")
    cfg = _sweep_config(tmp_path, model={"family": "rank_one", "p": [4], "gamma": [0.5],
                                         "v_file": str(vf)})
    model = ["--family", "rankone", "--p", "4", "--gamma", "0.5", "--v-file", str(vf)]
    argv = {"rate": ["rate", "--s", "1"] + model,
            "calibrate": ["calibrate", "--s", "1", "--n-cal", "1000"] + model,
            "divergence": ["divergence", "--prior", "uniform_sparse", "--s", "1",
                           "--magnitude", "0.4"] + model,
            "sweep": ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]}[command]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "config error at model.v_file:" in err and "||v||^2 must equal p" in err
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_a_test_sparsity(tmp_path):
    # a sweep takes its sparsities from sweep.s; test.s used to be dropped
    for s in (9, "adaptive"):
        cfg = _sweep_config(tmp_path, test={"eta": 0.2, "n_cal": 1000, "s": s})
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2 and out == "" and not out_dir.exists()
        assert "config error at test.s:" in err and "sweep.s" in err and "sweep.adaptive" in err


def test_risk_sparsity_above_p_is_a_config_error(tmp_path):
    path = tmp_path / "risk.json"
    path.write_text(json.dumps({
        "model": {"family": "equicorrelated", "p": 16, "gamma": 0.0},
        "test": {"eta": 0.2, "n_cal": 1000},
        "risk": {"s": 40, "multiplier": 1.0, "n_reps": 100}}))
    code, out, err = run_cli(["risk", "--config", str(path)])
    assert code == 2 and out == "" and "config error at risk.s:" in err


@pytest.mark.parametrize("prior", ["point_mass", "uniform_sparse"])
def test_divergence_that_overflows_a_float_exits_1(prior):
    # the IS-value is +inf in floats: refused, not printed as Infinity
    code, out, err = run_cli(_DIV + ["--prior", prior, "--magnitude", "100"])
    assert code == 1 and out == "" and "not a finite float" in err


@pytest.mark.parametrize("prior", ["point_mass", "uniform_sparse"])
def test_divergence_past_the_float_range_warns_nothing(prior):
    # a uniform support computed inf * 0 = NaN here, and both priors made
    # numpy print overflow warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(_DIV + ["--prior", prior, "--magnitude", "1e300"])
    assert code == 1 and out == "" and "not a finite float" in err
    assert [str(w.message) for w in caught] == []


_RISK_CONFIG = {"model": {"family": "equicorrelated", "p": 16, "gamma": 0.0},
                "test": {"eta": 0.2, "n_cal": 1000},
                "risk": {"s": 3, "multiplier": 1.0, "n_reps": 100}}


@pytest.mark.parametrize("command,block,key,value", [
    ("sweep", "sweep", "n_reps", MIN_N_REPS - 1),
    ("sweep", "test", "n_cal", MIN_N_CAL - 1),
    ("risk", "risk", "n_reps", MIN_N_REPS - 1),
    ("risk", "test", "n_cal", MIN_N_CAL - 1),
])
def test_below_a_library_minimum_is_a_config_error(tmp_path, command, block, key, value):
    # these exited 1 from inside the library (a sweep wrote failed rows)
    cfg = (json.loads(_sweep_config(tmp_path).read_text()) if command == "sweep"
           else copy.deepcopy(_RISK_CONFIG))
    cfg[block][key] = value
    path = tmp_path / "low.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run_cli([command, "--config", str(path), "--out", str(out_dir)])
    assert code == 2 and out == "" and not out_dir.exists()
    assert f"config error at {block}.{key}:" in err


def test_n_cal_minimum_binds_calibrated_tests_only(tmp_path):
    cfg = dict(_RISK_CONFIG, test={"mode": "paper_constants", "C": 1.0, "n_cal": 10})
    path = tmp_path / "risk.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["risk", "--config", str(path)])
    assert code == 0, err
    assert json.loads(out)["estimate"]["n_reps"] == 100


def test_shifted_divergence_uses_n_mc():
    argv = _DIV + ["--prior", "shifted_sparse", "--magnitude", "0.2", "--method",
                   "monte_carlo", "--seed", "3"]
    rows = [json.loads(run_cli(argv + ["--n-mc", n])[1]) for n in ("500", "2000")]
    assert rows[0]["risk_bound"] != rows[1]["risk_bound"]


def test_calibrated_sweep_refuses_a_paper_constant(tmp_path):
    # C sets paper_constants thresholds; a calibrated sweep used to drop it
    cfg = _sweep_config(tmp_path, test={"eta": 0.2, "n_cal": 1000, "C": 2.0})
    code, out, err = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2 and out == "" and "config error at test.C:" in err
