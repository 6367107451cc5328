"""Command-line interface."""

from __future__ import annotations

import pytest

from evplant.cli import main, resolve_strategy
from evplant.engine import strategy_max_power
from evplant.params import default_data_dir

PROFILE = """t_s,kind,value_w,ambient_c,charger_mode
0,plugged,11040,20,
600,idle,0,20,
"""


@pytest.fixture
def scenario_files(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("initial_soc = 0.5\ninitial_temp_c = 20\n")
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE)
    return config, profile


def test_validate_params_on_shipped_data(capsys):
    rc = main(["validate-params", "--data", str(default_data_dir())])
    out = capsys.readouterr().out
    assert rc == 0
    assert "errors: 0" in out
    assert "ocv: 23 SOC rows x 5 temperature columns" in out


def test_validate_params_missing_dir(tmp_path, capsys):
    rc = main(["validate-params", "--data", str(tmp_path)])
    assert rc == 2
    assert "ocv" in capsys.readouterr().err


def test_simulate_writes_report(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    out_dir = tmp_path / "out"
    rc = main(
        ["simulate", "--config", str(config), "--profile", str(profile), "--out", str(out_dir)]
    )
    assert rc == 0
    assert (out_dir / "trajectory.csv").is_file()
    assert (out_dir / "summary.txt").is_file()
    assert "trajectory.csv" in capsys.readouterr().out


def test_simulate_is_deterministic(scenario_files, tmp_path):
    config, profile = scenario_files
    args = ["simulate", "--config", str(config), "--profile", str(profile)]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()


def test_simulate_dt_override(scenario_files, tmp_path):
    config, profile = scenario_files
    out_dir = tmp_path / "out"
    rc = main(
        [
            "simulate",
            "--config",
            str(config),
            "--profile",
            str(profile),
            "--out",
            str(out_dir),
            "--dt",
            "2.0",
        ]
    )
    assert rc == 0
    n_rows = (out_dir / "trajectory.csv").read_text().count("\n") - 1
    assert n_rows == 300


def test_metrics_command(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    main(["simulate", "--config", str(config), "--profile", str(profile), "--out", str(tmp_path / "a")])
    rc = main(
        [
            "metrics",
            "--sim",
            str(tmp_path / "a" / "trajectory.csv"),
            "--ref",
            str(tmp_path / "a" / "trajectory.csv"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "rmse_cell_voltage_mv = 0.0" in out


def test_batch_sequential_and_parallel(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "config,profile,out,strategy\n"
        f"{config.name},{profile.name},out_one,max_power\n"
        f"{config.name},{profile.name},out_two,\n"
    )
    rc = main(["batch", "--manifest", str(manifest), "--jobs", "1"])
    assert rc == 0
    assert (tmp_path / "out_one" / "trajectory.csv").is_file()
    assert (tmp_path / "out_two" / "trajectory.csv").is_file()
    rc = main(["batch", "--manifest", str(manifest), "--jobs", "2"])
    assert rc == 0
    assert capsys.readouterr().out.count("done") >= 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_runs_every_entry_and_reports_failures(scenario_files, tmp_path, capsys, jobs):
    config, profile = scenario_files
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "config,profile,out,strategy\n"
        f"{config.name},{profile.name},good_one,\n"
        f"{config.name},{profile.name},bad,bogus\n"
        f"{config.name},{profile.name},good_two,\n"
    )
    rc = main(["batch", "--manifest", str(manifest), "--jobs", jobs])
    assert rc == 2
    assert (tmp_path / "good_one" / "trajectory.csv").is_file()
    assert (tmp_path / "good_two" / "trajectory.csv").is_file()
    assert not (tmp_path / "bad").exists()
    assert capsys.readouterr().out.splitlines() == [
        f"done {tmp_path / 'good_one'}",
        f"failed {tmp_path / 'bad'}: unknown strategy 'bogus'",
        f"done {tmp_path / 'good_two'}",
    ]


def test_strategy_resolution():
    assert resolve_strategy(None) is None
    assert resolve_strategy("profile") is None
    assert resolve_strategy("max_power") is strategy_max_power
    assert resolve_strategy("constant:5000")(None) == 5000.0
    assert resolve_strategy("evplant.engine:strategy_max_power") is strategy_max_power
    with pytest.raises(ValueError):
        resolve_strategy("bogus")


def test_unknown_strategy_is_reported(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    rc = main(
        [
            "simulate",
            "--config",
            str(config),
            "--profile",
            str(profile),
            "--out",
            str(tmp_path / "o"),
            "--strategy",
            "bogus",
        ]
    )
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def _simulate(config, profile, out, *extra):
    argv = ["simulate", "--config", str(config), "--profile", str(profile), "--out", str(out)]
    return main(argv + list(extra))


def test_step_failure_is_reported(tmp_path, capsys):
    config = tmp_path / "coarse.cfg"
    # a step beyond the thermal model's explicit-Euler stability bound
    config.write_text("dt_s = 4000\ncontrol_interval_s = 4000\naging_interval_s = 4000\n")
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE.replace("600,idle", "8000,idle"))
    assert _simulate(config, profile, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: thermal step failed at step 0")
    assert "Traceback" not in err


def test_non_finite_dt_is_reported(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    assert _simulate(config, profile, tmp_path / "o", "--dt", "nan") == 2
    assert capsys.readouterr().err == "error: dt_s must be a finite number, got nan\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("nosuch.mod:fn", "cannot load strategy 'nosuch.mod:fn': No module named 'nosuch'"),
        ("math:nosuch", "cannot load strategy 'math:nosuch'"),
        ("math:pi", "strategy 'math:pi' is not callable"),
        ("math:sqrt", "strategy failed at step 0 (t=0.0 s): TypeError"),
    ],
)
def test_bad_strategy_is_reported(scenario_files, tmp_path, capsys, spec, message):
    config, profile = scenario_files
    assert _simulate(config, profile, tmp_path / "o", "--strategy", spec) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
