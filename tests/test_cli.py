"""Command-line interface."""

from __future__ import annotations

import shutil

import pytest

from evplant.cli import main, resolve_strategy
from evplant.engine import strategy_max_power, strategy_off
from evplant.params import PARAM_NAMES, default_data_dir

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


def test_validate_params_names_a_non_finite_breakpoint(tmp_path, capsys):
    for name in PARAM_NAMES:
        (tmp_path / f"{name}.csv").write_text((default_data_dir() / f"{name}.csv").read_text())
    lines = (tmp_path / "r1.csv").read_text().splitlines()
    lines[3] = "nan" + lines[3][lines[3].index(",") :]
    (tmp_path / "r1.csv").write_text("\n".join(lines) + "\n")
    assert main(["validate-params", "--data", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: r1: non-finite breakpoint\n"


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
    assert resolve_strategy("off") is strategy_off
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
    # a zero r1 table loads, then divides by zero in the first step's RC decay
    data = tmp_path / "data"
    data.mkdir()
    for path in default_data_dir().glob("*.csv"):
        shutil.copy(path, data)
    head, *body = (data / "r1.csv").read_text().split()
    zeroed = [row.split(",")[0] + ",0" * row.count(",") for row in body]
    (data / "r1.csv").write_text("\n".join([head, *zeroed]) + "\n")
    config = tmp_path / "zero_r1.cfg"
    config.write_text("data_dir = data\n")
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE)
    assert _simulate(config, profile, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: plant step failed at step 0 (t=0.0 s): ZeroDivisionError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, row, message",
    [
        # an infinite last time would overflow the step count
        (PROFILE.replace("600,idle", "inf,idle"), 3, "t_s must be a finite number, got inf"),
        # a NaN request would charge at 0 W without a word
        (PROFILE.replace("11040", "nan"), 2, "value_w must be a finite number, got nan"),
        # a NaN time in the middle would be skipped
        (PROFILE.replace("600,idle", "nan,idle,0,20,\n600,idle"), 3, "t_s must be a finite number, got nan"),
    ],
)
def test_non_finite_profile_cell_is_reported(scenario_files, tmp_path, capsys, text, row, message):
    config, profile = scenario_files
    profile.write_text(text)
    assert _simulate(config, profile, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {profile} row {row}: {message}\n"


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
