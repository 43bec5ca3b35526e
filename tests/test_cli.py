"""Configuration handling, artifact formats, and exit codes of the CLI."""

import json
import math
import os
import subprocess
import sys

import pytest

import sedes
from sedes.cli import (EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR,
                       EXIT_NUMERICAL_FAILURE, EXIT_OK, FRACTION, KEYS,
                       NUMBER, POSITIVE, ConfigError, load_config, main)
from sedes.integrator import run_ensemble
from sedes.presets import make_preset


def run_cli(args):
    return main(args)


def quick_heat_flags(out, extra=()):
    return ["--preset", "heat", "--grid-n", "31", "--t-final", "0.5",
            "--tau", "0.25", "--paths", "2", "--n-samples", "200",
            "--out-dir", str(out)] + list(extra)


def test_load_config_defaults_and_file(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"preset": "heat", "grid_n": 127,
                                   "dt": 0.001, "t_final": 1.0}))
    cfg = load_config(str(cfgfile), {})
    assert cfg["preset"] == "heat"
    assert cfg["grid_n"] == 127
    assert cfg["n_paths"] == 200          # default
    # flags override the file
    cfg2 = load_config(str(cfgfile), {"grid_n": 63})
    assert cfg2["grid_n"] == 63


def test_load_config_unknown_keys_listed(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"preset": "heat", "grid_m": 1,
                                   "dtt": 0.1}))
    with pytest.raises(ConfigError, match="unknown config keys: dtt, grid_m"):
        load_config(str(cfgfile), {})


def test_load_config_rejects_unstable_eq24_citing_hypothesis():
    with pytest.raises(ConfigError, match="c\\^4 < 2"):
        load_config(None, {"preset": "eq24", "c": 1.3})
    with pytest.raises(ConfigError, match="nu-a > b\\^2 > 0"):
        load_config(None, {"preset": "eq24", "b": 2.0})
    # --allow-unstable lifts the construction-time rejection
    cfg = load_config(None, {"preset": "eq24", "c": 1.3,
                             "allow_unstable": True})
    assert cfg["c"] == 1.3


def test_heat_default_run_passes(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["--preset", "heat", "--grid-n", "63", "--paths", "2",
                    "--n-samples", "500", "--out-dir", str(out)])
    assert code == EXIT_OK
    for name in ("report.json", "conditions.json", "ms_curve.csv",
                 "paths_sample.csv", "config.resolved.json"):
        assert (out / name).exists()
    rep = json.loads((out / "report.json").read_text())
    lam = rep["metadata"]["lambda1h"]
    assert rep["fitted_rate"] == pytest.approx(-2 * lam, rel=0.02)
    # enough metadata to replay the run
    for key in ("grid_n", "dt", "lambda1h", "seed", "scheme", "version"):
        assert key in rep["metadata"]
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["preset"] == "heat"
    assert resolved["grid_n"] == 63


def test_csv_format_and_byte_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(quick_heat_flags(out)) == EXIT_OK
    for name in ("ms_curve.csv", "paths_sample.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
        assert b"\r" not in b1
    header = (out1 / "ms_curve.csv").read_text().splitlines()[0]
    assert header == "t,mean_h_norm_sq,std_err,n_alive"
    header2 = (out1 / "paths_sample.csv").read_text().splitlines()[0]
    assert header2 == "t,path_id,h_norm,v_norm"
    # 17 significant digits survive a round trip
    row = (out1 / "ms_curve.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.pi / 2, rel=1e-6)
    assert len(row[1].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_dt_adjustment_recorded(tmp_path):
    out = tmp_path / "adj"
    code = run_cli(["--preset", "heat", "--grid-n", "31", "--t-final", "0.3",
                    "--tau", "0.25", "--dt", "0.0003", "--paths", "2",
                    "--no-check-conditions", "--out-dir", str(out)])
    assert code == EXIT_OK
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["dt_adjusted"] is True
    assert resolved["dt"] <= 0.0003
    assert resolved["m_delay"] * resolved["dt"] == pytest.approx(0.25)


def test_explosion_scan_horizon_is_reported(tmp_path, capsys):
    flags = ["--preset", "eq16", "--grid-n", "15", "--tau", "0.1",
             "--dt", "0.01", "--paths", "4", "--no-check-conditions",
             "--no-ms-ensemble", "--explosion-scan"]
    out = tmp_path / "scan"
    code = run_cli(flags + ["--t-final", "0.2", "--out-dir", str(out)])
    assert code == EXIT_OK
    note = "note: explosion scan runs to horizon 5, not t_final 0.2"
    assert note in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["explosion_horizon"] == 5.0
    # a config whose horizon is t_final needs no note
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"explosion_horizon": 0.2}))
    code = run_cli(flags + ["--config", str(cfgfile), "--t-final", "0.2",
                            "--out-dir", str(tmp_path / "same")])
    assert code == EXIT_OK
    assert "explosion scan runs to horizon" not in capsys.readouterr().out
    report = json.loads((tmp_path / "same" / "report.json").read_text())
    assert report["metadata"]["explosion_horizon"] == 0.2


def test_sedes_out_env_override(tmp_path, monkeypatch):
    out = tmp_path / "env-out"
    monkeypatch.setenv("SEDES_OUT", str(out))
    code = run_cli(["--preset", "heat", "--grid-n", "31", "--t-final", "0.2",
                    "--tau", "0.1", "--paths", "2", "--n-samples", "100"])
    assert code == EXIT_OK
    assert (out / "report.json").exists()


def test_broken_eq16_exits_with_check_failure(tmp_path):
    out = tmp_path / "broken16"
    code = run_cli(["--preset", "eq16", "--lam2", "10", "--t-final", "2",
                    "--n-samples", "2000", "--no-ms-ensemble",
                    "--out-dir", str(out)])
    assert code == EXIT_CHECK_FAILURE
    conds = json.loads((out / "conditions.json").read_text())
    assert conds[0]["passed"] is False
    assert conds[0]["max_violation"] > 0


def test_broken_eq6_exits_with_check_failure(tmp_path):
    out = tmp_path / "broken6"
    code = run_cli(["--preset", "eq6", "--g-factor", "3", "--t-final", "2",
                    "--n-samples", "2000", "--no-ms-ensemble",
                    "--out-dir", str(out)])
    assert code == EXIT_CHECK_FAILURE


def test_broken_eq24_rejected_then_reported(tmp_path):
    # without --allow-unstable the config is rejected, citing c^4 < 2
    code = run_cli(["--preset", "eq24", "--c", "1.3",
                    "--out-dir", str(tmp_path / "rej")])
    assert code == EXIT_CONFIG_ERROR
    # with it, the run proceeds and the violated hypothesis fails the check
    out = tmp_path / "allowed"
    code = run_cli(["--preset", "eq24", "--c", "1.3", "--allow-unstable",
                    "--t-final", "2", "--n-samples", "200",
                    "--no-ms-ensemble", "--out-dir", str(out)])
    assert code == EXIT_CHECK_FAILURE
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"]["conditions"] is False
    assert rep["checks"]["decay_solver"] is False
    assert rep["exit_code"] == EXIT_CHECK_FAILURE


def test_explosion_budget_gives_numerical_failure(tmp_path):
    # coarse dt on the cubic-drift preset with a large state blows up
    out = tmp_path / "boom"
    code = run_cli(["--preset", "eq16", "--amplitude", "5.0", "--dt", "0.05",
                    "--tau", "0.5", "--t-final", "3", "--paths", "4",
                    "--no-check-conditions", "--out-dir", str(out)])
    assert code == EXIT_NUMERICAL_FAILURE
    assert (out / "report.json").exists()


def test_partly_exploding_ensemble_writes_its_report(tmp_path):
    # some paths of the sign variant explode: the run ends with exit 3 and
    # report.json lists the exploded paths as plain integers
    out = tmp_path / "partial"
    code = run_cli(["--preset", "eq16", "--sign-variant", "--amplitude", "1",
                    "--paths", "20", "--t-final", "2", "--tau", "0.1",
                    "--grid-n", "15", "--no-check-conditions",
                    "--out-dir", str(out)])
    assert code == EXIT_NUMERICAL_FAILURE
    rep = json.loads((out / "report.json").read_text())
    pre = make_preset("eq16", grid_n=15, tau=0.1, t_final=2.0,
                      amplitude=1.0, sign_variant=True)
    exploded = run_ensemble(pre.problem, range(20), record_steps=(),
                            record_v=0).exploded_ids()
    assert 0 < len(exploded) < 20
    assert all(type(pid) is int for pid in exploded)
    assert rep["ms_curve"]["exploded_ids"] == exploded


def test_unknown_preset_and_custom_are_config_errors(tmp_path):
    assert run_cli(["--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"preset": "custom"}))
    assert run_cli(["--config", str(cfgfile)]) == EXIT_CONFIG_ERROR


def test_eq6_with_conditions_and_as_stats_passes(tmp_path):
    out = tmp_path / "eq6run"
    code = run_cli(["--preset", "eq6", "--t-final", "15", "--paths", "40",
                    "--n-samples", "2000", "--as-stats",
                    "--out-dir", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"]["as_stats"] is True
    assert rep["as_stats"]["fraction"] >= 0.99


# a run small enough that a bad key is reached within seconds
SMALL_EQ16 = {"preset": "eq16", "grid_n": 15, "n_paths": 4, "t_final": 1.0,
              "check_conditions": False}
# a run small enough that only its configuration decides how it ends
TINY = ["--grid-n", "15", "--paths", "2", "--t-final", "0.5", "--tau", "0.1",
        "--n-samples", "20"]


@pytest.mark.parametrize("args, config", [
    (["--preset", "heat", "--grid-n", "1"], None),
    (["--preset", "heat", "--dt", "-1"], None),
    ([], {"preset": "heat", "n_paths": "many"}),
    (["--preset", "heat", "--paths", "0"], None),
    ([], {"preset": "heat", "n_samples": "many"}),
    (["--preset", "heat", "--n-samples", "-5"], None),
    (["--preset", "heat", "--n-samples", "0"], None),
    ([], {"preset": "heat", "record_points": 10.5}),
    ([], {"preset": "heat", "record_points": 1}),
    ([], {"preset": "heat", "n_sample_paths": -1}),
    ([], {"preset": "heat", "seed": "7"}),
    ([], {"preset": "heat", "seed": 2 ** 64}),
    (["--preset", "heat", "--sampler-seed", "-1"], None),
    ([], {"preset": "heat", "sampler_seed": 1.0}),
    ([], dict(SMALL_EQ16, explosion_scan=True, explosion_horizon=-1)),
    ([], dict(SMALL_EQ16, as_stats=True, as_threshold="x")),
    ([], dict(SMALL_EQ16, explosion_budget="x")),
    ([], dict(SMALL_EQ16, as_stats=True, as_window=[3, 1])),
    ([], dict(SMALL_EQ16, explosion_scan=True, explosion_k_values=[])),
    ([], dict(SMALL_EQ16, explosion_scan=True, explosion_k_values=[4, 2])),
    ([], dict(SMALL_EQ16, explosion_scan=True, ms_ensemble=False,
              amplitude=1.0, explosion_horizon=1.0,
              explosion_k_values=[0.5, 2.0])),
    ([], {"preset": "eq24", "grid_n": 15, "nu": "x"}),
    (["--preset", "eq24", "--dt", "1e-9"], None),
    (["--preset", "eq24", "--tau", "1e300"], None),
    (["--preset", "eq24", "--t-final", "1e300"], None),
    (["--preset", "eq24", "--grid-n", "100000000"], None),
    ([], {"preset": "heat", "grid_n": 31.9}),
    ([], {"preset": "heat", "grid_n": "31"}),
    ([], {"preset": "heat", "clamp": "no"}),
    ([], dict(SMALL_EQ16, sign_variant="x")),
    ([], dict(SMALL_EQ16, ms_ensemble=0)),
    ([], dict(SMALL_EQ16, fit_window=[5.0, 6.0])),
    ([], dict(SMALL_EQ16, explosion_scan=True, explosion_horizon=1e300)),
    (["--preset", "eq24", "--c", "1e300", *TINY], None),
    (["--preset", "eq24", "--c", "1e300", "--allow-unstable", *TINY], None),
    (["--preset", "eq6", "--g-factor", "1e300", *TINY], None),
], ids=["grid-n-1", "dt-negative", "n-paths-not-integer", "paths-0",
        "n-samples-not-integer", "n-samples-negative", "n-samples-0",
        "record-points-not-integer", "record-points-1",
        "n-sample-paths-negative", "seed-not-integer", "seed-too-large",
        "sampler-seed-negative", "sampler-seed-float",
        "explosion-horizon-negative", "as-threshold-not-number",
        "explosion-budget-not-number", "as-window-reversed",
        "explosion-k-values-empty", "explosion-k-values-decreasing",
        "explosion-k-inside-initial-data", "eq24-nu-not-number",
        "ring-beyond-limit-dt", "ring-beyond-limit-tau",
        "traces-beyond-limit-t-final", "ring-beyond-limit-grid-n",
        "grid-n-float", "grid-n-string", "clamp-not-bool",
        "sign-variant-not-bool", "ms-ensemble-integer",
        "fit-window-beyond-t-final", "scan-horizon-beyond-step-limit",
        "eq24-c-overflows", "eq24-c-overflows-unstable",
        "eq6-g-factor-overflows-check"])
def test_configuration_errors_exit_4_without_traceback(tmp_path, args,
                                                        config):
    # run as a process so an escaping exception shows as a traceback
    if config is not None:
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        args = ["--config", str(cfgfile)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SEDES_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "sedes.cli", *args,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert any(line.startswith("configuration error: ")
               for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("amplitude", ["1e300", "-1e300"])
def test_overflowing_initial_history_exits_4_without_a_warning(tmp_path,
                                                              amplitude):
    # a finite history whose H norm overflows is a configuration error,
    # reported without a numpy warning
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SEDES_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sedes.cli",
         "--preset", "eq16", "--amplitude=" + amplitude, *TINY,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert "configuration error: " in proc.stderr
    assert "initial history" in proc.stderr


@pytest.mark.parametrize("c", ["0", "1e-300", "-1e-300"])
def test_eq24_vanishing_c4_is_rejected_citing_c4(tmp_path, monkeypatch,
                                                 capsys, c):
    monkeypatch.delenv("SEDES_OUT", raising=False)
    code = run_cli(["--preset", "eq24", "--c=" + c, *TINY,
                    "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "c^4" in err and "--allow-unstable" in err


def test_eq24_vanishing_c4_runs_when_allowed(tmp_path, monkeypatch):
    # with --allow-unstable, alpha4 = 0 fails the exponential check
    monkeypatch.delenv("SEDES_OUT", raising=False)
    code = run_cli(["--preset", "eq24", "--c", "0", "--allow-unstable",
                    *TINY, "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CHECK_FAILURE


@pytest.mark.parametrize("args", [
    ["--preset", "eq6", "--g-factor", "1e300"],
    ["--preset", "eq24", "--c", "1e300", "--allow-unstable"],
], ids=["eq6-g-factor", "eq24-c-unstable"])
def test_checker_overflow_exits_4_without_a_warning(tmp_path, args):
    # the checkers report an overflow of LU as a configuration error; numpy
    # must not also warn about it on stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SEDES_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "sedes.cli", *args, *TINY,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert "evaluation overflow" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# a preset that reads each float key, and the analyses the key needs
FLOAT_KEY_RUNS = {
    "dt": ("heat", {}),
    "tau": ("heat", {}),
    "t_final": ("heat", {}),
    "amplitude": ("eq16", {}),
    "nu": ("eq24", {}),
    "a": ("eq24", {}),
    "b": ("eq24", {}),
    "c": ("eq24", {}),
    "g_factor": ("eq6", {}),
    "lam2": ("eq16", {}),
    "as_threshold": ("eq6", {"as_stats": True}),
    "as_pass_fraction": ("eq6", {"as_stats": True}),
    "u_bound": ("eq6", {"as_stats": True}),
    "explosion_horizon": ("eq16", {"explosion_scan": True}),
    "explosion_budget": ("eq16", {}),
}
FLOAT_KEYS = [key for key, (_, check, _) in KEYS.items()
              if check in (NUMBER, POSITIVE, FRACTION)]
EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 0.0]


def test_every_float_key_has_an_extreme_value_run():
    assert sorted(FLOAT_KEY_RUNS) == sorted(FLOAT_KEYS)


@pytest.mark.parametrize("key, value", [(k, v) for k in FLOAT_KEYS
                                        for v in EXTREMES],
                         ids=lambda v: v if isinstance(v, str) else "%g" % v)
def test_extreme_float_values_end_with_an_exit_code(tmp_path, monkeypatch,
                                                    key, value):
    # at TINY's sizes, every float key at +-1e300, +-1e-300 and 0 ends the
    # run with a documented exit code, never with an exception
    monkeypatch.delenv("SEDES_OUT", raising=False)
    preset, extra = FLOAT_KEY_RUNS[key]
    cfg = {"preset": preset, "grid_n": 15, "n_paths": 2, "t_final": 0.5,
           "tau": 0.1, "n_samples": 20, **extra, key: value}
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(cfg))
    code = main(["--config", str(cfgfile), "--out-dir",
                 str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CHECK_FAILURE, EXIT_NUMERICAL_FAILURE,
                    EXIT_CONFIG_ERROR)


def test_output_dir_errors_exit_4_without_traceback(tmp_path, monkeypatch):
    monkeypatch.delenv("SEDES_OUT", raising=False)
    for bad in (5, None):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"preset": "heat", "output_dir": bad}))
        with pytest.raises(ConfigError, match="output_dir must be a string"):
            load_config(str(cfgfile), {})
    # SEDES_OUT wins over --out-dir; a regular file cannot hold a directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedes.__file__)))
    env = dict(os.environ, PYTHONPATH=src, SEDES_OUT=str(blocker / "out"))
    proc = subprocess.run(
        [sys.executable, "-m", "sedes.cli", "--preset", "heat",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert proc.stderr.startswith("configuration error: cannot create "
                                  "output directory")
    assert "Traceback" not in proc.stderr


def test_resolved_config_replays_byte_for_byte(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    code = run_cli(["--preset", "eq16", "--grid-n", "15", "--tau", "0.1",
                    "--t-final", "0.5", "--dt", "0.0003", "--paths", "4",
                    "--n-samples", "200", "--as-stats",
                    "--out-dir", str(first)])
    # at t = 0.5 the a.s. proxy fails, which is beside the point here
    assert code == EXIT_CHECK_FAILURE
    resolved = first / "config.resolved.json"
    assert run_cli(["--config", str(resolved),
                    "--out-dir", str(second)]) == EXIT_CHECK_FAILURE
    for name in ("ms_curve.csv", "paths_sample.csv", "conditions.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    a = json.loads(resolved.read_text())
    b = json.loads((second / "config.resolved.json").read_text())
    assert a["dt_adjusted"] is True
    assert (b["dt"], b["m_delay"]) == (a["dt"], a["m_delay"]) == \
        (pytest.approx(0.1 / 334, rel=1e-15), 334)


def test_key_table_keeps_the_flags_and_defaults(monkeypatch):
    from sedes.cli import build_parser
    monkeypatch.delenv("SEDES_OUT", raising=False)
    ap = build_parser()
    flags = [s for action in ap._actions for s in action.option_strings
             if s not in ("-h", "--help")]
    assert flags == [
        "--config", "--preset", "--grid-n", "--dt", "--tau", "--t-final",
        "--paths", "--seed", "--out-dir", "--allow-unstable", "--clamp",
        "--amplitude", "--nu", "--a", "--b", "--c", "--sign-variant",
        "--g-factor", "--lam2", "--n-samples", "--sampler-seed",
        "--check-conditions", "--no-check-conditions", "--ms-ensemble",
        "--no-ms-ensemble", "--as-stats", "--no-as-stats",
        "--explosion-scan", "--no-explosion-scan", "--decay-solver",
        "--no-decay-solver"]
    # dests, types and actions: every flag set once
    got = vars(ap.parse_args([
        "--config", "c.json", "--preset", "eq24", "--grid-n", "15",
        "--dt", "0.01", "--tau", "0.5", "--t-final", "2", "--paths", "3",
        "--seed", "4", "--out-dir", "o", "--allow-unstable", "--clamp",
        "--amplitude", "0.5", "--nu", "3", "--a", "0.25", "--b", "1.5",
        "--c", "1.1", "--sign-variant", "--g-factor", "2", "--lam2", "7",
        "--n-samples", "9", "--sampler-seed", "5", "--no-check-conditions",
        "--ms-ensemble", "--as-stats", "--no-explosion-scan",
        "--decay-solver"]))
    want = {"config": "c.json", "preset": "eq24", "grid_n": 15, "dt": 0.01,
            "tau": 0.5, "t_final": 2.0, "n_paths": 3, "seed": 4,
            "output_dir": "o", "allow_unstable": True, "clamp": True,
            "amplitude": 0.5, "nu": 3.0, "a": 0.25, "b": 1.5, "c": 1.1,
            "sign_variant": True, "g_factor": 2.0, "lam2": 7.0,
            "n_samples": 9, "sampler_seed": 5, "check_conditions": False,
            "ms_ensemble": True, "as_stats": True, "explosion_scan": False,
            "decay_solver": True}
    assert {k: (type(v), v) for k, v in got.items()} == \
        {k: (type(v), v) for k, v in want.items()}
    assert set(vars(ap.parse_args([])).values()) == {None}
    defaults = {
        "preset": "heat", "grid_n": None, "dt": None, "tau": None,
        "t_final": None, "n_paths": 200, "seed": 0, "amplitude": None,
        "nu": 2.0, "a": 0.5, "b": 1.0, "c": 1.0, "sign_variant": False,
        "g_factor": 1.0, "lam2": None, "check_conditions": True,
        "ms_ensemble": True, "as_stats": False, "explosion_scan": False,
        "decay_solver": False, "n_samples": 10000, "sampler_seed": 0,
        "as_threshold": 0.01, "as_window": None, "as_pass_fraction": 0.99,
        "u_bound": 1e6, "fit_window": None,
        "explosion_k_values": [2.0, 4.0, 8.0, 16.0],
        "explosion_horizon": 5.0, "explosion_budget": 0.01,
        "record_points": 501, "n_sample_paths": 8, "allow_unstable": False,
        "clamp": False, "output_dir": "sedes-out"}
    assert load_config(None, {"preset": "heat"}) == defaults
    # the parser's namespace, config: None included, as CI passes it
    assert load_config(None, vars(ap.parse_args(["--preset", "heat"]))) == \
        defaults


def test_preflight_names_the_size_and_admits_the_desk_runs(tmp_path):
    from sedes.cli import MAX_RUN_BYTES, _run_bytes
    cfg = load_config(None, {"preset": "eq24", "dt": 1e-9})
    with pytest.raises(ConfigError, match=r"9\.39e\+04 GiB"):
        sedes.cli._build_preset(cfg)
    # the default desk runs: ring (1001, 200, 63) plus 208 norm records of
    # at most 501 points and their times, and the setup term
    desk = load_config(None, {"preset": "eq24"})
    expected = 8.0 * (1024 * 63 + 1001 * 200 * 63 + 209 * 501)
    assert _run_bytes(desk) == pytest.approx(expected, rel=1e-12)
    scan = load_config(None, {"preset": "eq16", "explosion_scan": True,
                              "as_stats": True})
    assert _run_bytes(scan) < MAX_RUN_BYTES
    # a number make_preset rejects is left to its message
    assert _run_bytes(load_config(None, {"preset": "heat", "dt": -1.0})) \
        is None


def test_preflight_counts_one_path_chunk_and_no_per_step_trace():
    # the ensemble holds one chunk's ring and its record-time norms, so a
    # 10^4-path eq24 run fits, and its size does not grow with t_final
    from sedes.cli import _build_preset, _run_bytes
    wide = {"preset": "eq24", "n_paths": 10000, "t_final": 50.0}
    cfg = load_config(None, wide)
    assert _run_bytes(cfg) < 0.5 * 2 ** 30
    assert _build_preset(cfg).problem.n_steps == 50000
    assert _run_bytes(load_config(None, dict(wide, t_final=500.0))) == \
        _run_bytes(cfg)


def test_preflight_scan_size_does_not_grow_with_the_horizon():
    # the scan keeps one chunk's ring and a few floats per path, so a
    # 10^4-path eq16 scan counts the same at any horizon; at horizon 120 a
    # per-step trace counted 9.06 GiB and was refused
    from sedes.cli import _build_preset, _run_bytes
    wide = {"preset": "eq16", "n_paths": 10000, "explosion_scan": True,
            "ms_ensemble": False, "check_conditions": False}
    sizes = {_run_bytes(load_config(None, dict(wide, explosion_horizon=h)))
             for h in (5.0, 50.0, 120.0)}
    assert len(sizes) == 1 and sizes.pop() < 0.5 * 2 ** 30
    cfg = load_config(None, dict(wide, explosion_horizon=120.0))
    assert _build_preset(cfg).problem.n_steps == 50000


def test_large_delay_run_ends_without_traceback(tmp_path):
    # e^{alpha1 tau} overflowed in the decay solver at tau = 1000
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SEDES_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "sedes.cli", "--preset", "eq24", "--tau",
         "1000", "--dt", "1", "--t-final", "2000", "--paths", "4",
         "--n-samples", "10", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["decay"]["eps1"] == pytest.approx(
        math.log(1.5) / 1000, rel=1e-2)
