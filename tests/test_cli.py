"""Command-line interface."""

from __future__ import annotations

import re
import shutil

import pytest

import evplant.cli
from evplant.cli import main, resolve_strategy
from evplant.engine import strategy_max_power, strategy_off
from evplant.params import PARAM_NAMES, default_data_dir
from evplant.scenario import load_config

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


def test_metrics_rejects_times_out_of_order(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    main(["simulate", "--config", str(config), "--profile", str(profile), "--out", str(tmp_path / "a")])
    sim = tmp_path / "a" / "trajectory.csv"
    lines = sim.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["metrics", "--sim", str(sim), "--ref", str(ref)]) == 2
    message = "reference trajectory: t_s must increase, but row 3 has t_s = 2.0 after 3.0"
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    # fewer than one job used to run the manifest serially without a word
    for jobs in ("0", "-3"):
        assert main(["batch", "--manifest", str(manifest), "--jobs", jobs]) == 2
        assert capsys.readouterr() == ("", f"error: --jobs must be at least 1, got {jobs}\n")


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


def test_batch_rejects_a_repeated_out_before_any_run(scenario_files, tmp_path, capsys):
    # the second run used to overwrite the first one's report, and two workers wrote the same files
    config, profile = scenario_files
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "config,profile,out,strategy\n"
        f"{config.name},{profile.name},out,\n"
        f"{config.name},{profile.name},other,\n"
        f"{config.name},{profile.name},./out,max_power\n"
    )
    assert main(["batch", "--manifest", str(manifest), "--jobs", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {manifest} row 4: out './out' is the output of row 2 too\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "other").exists()


@pytest.mark.parametrize("n_entries, sizes", [(2, [2]), (1, [])])
def test_batch_pool_is_no_larger_than_the_manifest(scenario_files, tmp_path, capsys, monkeypatch, n_entries, sizes):
    seen = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(evplant.cli, "ProcessPoolExecutor", SerialPool)
    config, profile = scenario_files
    manifest = tmp_path / "manifest.csv"
    rows = [f"{config.name},{profile.name},out_{k},\n" for k in range(n_entries)]
    manifest.write_text("config,profile,out,strategy\n" + "".join(rows))
    assert main(["batch", "--manifest", str(manifest), "--jobs", "64"]) == 0
    assert seen == sizes
    assert capsys.readouterr().out.count("done") == n_entries


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


def test_out_of_order_profile_is_reported(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    profile.write_text(PROFILE + "300,idle,0,20,\n")
    assert _simulate(config, profile, tmp_path / "o") == 2
    message = "t_s must increase, but row 4 has t_s = 300.0 after 600.0"
    assert capsys.readouterr().err == f"error: {profile}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_non_numeric_profile_cell_is_reported(scenario_files, tmp_path, capsys):
    config, profile = scenario_files
    profile.write_text(PROFILE.replace("600,idle,0,20", "600,idle,0,warm"))
    assert _simulate(config, profile, tmp_path / "o") == 2
    message = "non-numeric cell (could not convert string to float: 'warm')"
    assert capsys.readouterr().err == f"error: {profile} row 3: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "dt, message",
    [
        pytest.param("nan", "dt_s must be a finite number, got nan", id="nan"),
        # 10 s / 0.3 s is no whole number of steps; the strategy was polled every 9.9 s
        pytest.param("0.3", "control_interval_s must be a whole multiple of dt_s (0.3), got 10.0", id="0.3"),
    ],
)
def test_bad_dt_is_reported(scenario_files, tmp_path, capsys, dt, message):
    config, profile = scenario_files
    assert _simulate(config, profile, tmp_path / "o", "--dt", dt) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_run_too_large_to_hold_is_reported(tmp_path, capsys):
    # 1e15 steps, 32 PB of tables: the allocation used to end the command in a MemoryError traceback
    config = tmp_path / "scenario.cfg"
    config.write_text("dt_s = 1e-6\ninitial_soc = 0.5\ninitial_temp_c = 20\n")
    profile = tmp_path / "idle.csv"
    profile.write_text("t_s,kind,value_w,ambient_c,charger_mode\n0,idle,0,20,\n1e9,idle,0,20,\n")
    message = "a run of 1000000000000000 steps of dt_s = 1e-06 s is too large to hold in memory"
    assert _simulate(config, profile, tmp_path / "o") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "o").exists()
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"config,profile,out,strategy\n{config.name},{profile.name},big,\n")
    assert main(["batch", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().out == f"failed {tmp_path / 'big'}: {message}\n"


@pytest.mark.parametrize("volts", ["0", "-230"])
def test_non_positive_grid_voltage_is_reported(scenario_files, tmp_path, capsys, volts):
    # 0 V made every three-phase set-point 0 W; -230 V failed at step 4 without naming it
    config, profile = scenario_files
    config.write_text(config.read_text() + f"grid_voltage_v = {volts}\n")
    message = f"{config}: grid_voltage_v must be positive, got {float(volts)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(config)
    assert _simulate(config, profile, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("ramp_curve", "t_s,p_norm\n0,0\n52,0.9\n", "ramp curve must start at 0 and reach 1 at 52.0 s"),
        ("efficiency_curve", "p_ac_w,efficiency\n1800,0.9\n11040,1.2\n", "efficiency anchors must lie in (0, 1]"),
    ],
    ids=["ramp", "efficiency"],
)
def test_a_curve_the_charger_refuses_is_named(scenario_files, tmp_path, capsys, key, text, message):
    # the error said what was wrong with the curve, but not which file held it
    config, profile = scenario_files
    curve = tmp_path / f"bad_{key}.csv"
    curve.write_text(text)
    config.write_text(config.read_text() + f"{key} = {curve.name}\n")
    assert _simulate(config, profile, tmp_path / "o") == 2
    assert capsys.readouterr() == ("", f"error: {curve}: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        # the first two failed only when the run started, naming neither key nor file
        ("c_pack_j_per_k = 0", "c_pack_j_per_k must be positive, got 0.0"),
        ("dead_time_s = 60", "dead_time_s must lie in [0, 52) s, got 60.0"),
        ("initial_soc = 2", "initial_soc must be in [0, 1]"),
        ("soc_min = 0.96", "soc_min must not exceed soc_max"),
    ],
)
def test_bad_config_number_names_the_file(scenario_files, tmp_path, capsys, lines, message):
    config, profile = scenario_files
    # the bad line takes the place of a fixture line that sets the same key
    key = lines.split("=")[0].strip()
    kept = [line for line in config.read_text().splitlines() if line.split("=")[0].strip() != key]
    config.write_text("\n".join(kept + [lines]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{config}: {message}')}$"):
        load_config(config)
    assert _simulate(config, profile, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lines", [("dt_s = 1", "dt_s = 2"), ("soc_min = 0.1", "# lower", "soc_min = 0.2")])
def test_repeated_config_key_is_rejected(scenario_files, tmp_path, capsys, lines):
    # the last value used to win without a word: dt_s = 1 then dt_s = 2 ran at 2 s
    config, profile = scenario_files
    config.write_text(config.read_text() + "\n".join(lines) + "\n")
    key = lines[0].split("=")[0].strip()
    message = f"{config} line {2 + len(lines)}: duplicate key '{key}' (first set on line 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(config)
    assert _simulate(config, profile, tmp_path / "o") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


# a constant strategy whose watts are not a number names the spec
NON_NUMBER_CONSTANTS = [
    ("constant:abc", "cannot load strategy 'constant:abc': could not convert string to float: 'abc'"),
    ("constant:", "cannot load strategy 'constant:': could not convert string to float: ''"),
]


# a constant strategy whose watts no charger can draw is refused when it is resolved
BAD_POWER_CONSTANTS = [
    (f"constant:{text}", f"cannot load strategy 'constant:{text}': constant power must be finite and >= 0, got {watts}")
    for text, watts in (("nan", "nan"), ("inf", "inf"), ("-5", "-5.0"))
]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("nosuch.mod:fn", "cannot load strategy 'nosuch.mod:fn': No module named 'nosuch'"),
        ("math:nosuch", "cannot load strategy 'math:nosuch'"),
        ("math:pi", "strategy 'math:pi' is not callable"),
        ("math:sqrt", "strategy failed at step 0 (t=0.0 s): TypeError"),
        # a module that fails to import used to end the command in its traceback
        ("unclosed_strategy:f", "cannot load strategy 'unclosed_strategy:f': SyntaxError: '(' was never closed"),
        ("keyerror_strategy:f", "cannot load strategy 'keyerror_strategy:f': KeyError: 'k'"),
        *NON_NUMBER_CONSTANTS,
        *BAD_POWER_CONSTANTS,
    ],
)
def test_bad_strategy_is_reported(scenario_files, tmp_path, capsys, monkeypatch, spec, message):
    config, profile = scenario_files
    modules = tmp_path / "modules"
    modules.mkdir()
    (modules / "unclosed_strategy.py").write_text("def f(obs:\n    return 0.0\n")
    (modules / "keyerror_strategy.py").write_text("SETTINGS = {}['k']\n\ndef f(obs):\n    return 0.0\n")
    monkeypatch.syspath_prepend(modules)
    assert _simulate(config, profile, tmp_path / "o", "--strategy", spec) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("spec, message", BAD_POWER_CONSTANTS)
def test_bad_power_constant_strategy_fails_on_a_profile_never_plugged(tmp_path, capsys, spec, message):
    # no step polls the strategy, so only its resolution can refuse it
    config = tmp_path / "scenario.cfg"
    config.write_text("initial_soc = 0.5\ninitial_temp_c = 20\n")
    profile = tmp_path / "drive.csv"
    profile.write_text("t_s,kind,value_w,ambient_c,charger_mode\n0,drive,-5000,20,\n60,idle,0,20,\n")
    assert _simulate(config, profile, tmp_path / "o", "--strategy", spec) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec, message", NON_NUMBER_CONSTANTS)
def test_non_number_constant_strategy_fails_its_batch_line(scenario_files, tmp_path, capsys, spec, message):
    config, profile = scenario_files
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"config,profile,out,strategy\n{config.name},{profile.name},bad,{spec}\n")
    assert main(["batch", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().out == f"failed {tmp_path / 'bad'}: {message}\n"
