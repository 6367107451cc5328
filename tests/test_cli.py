"""Command-line interface."""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import evplant.cli
from evplant.aging import CALENDAR_FILES, CYCLE_FILES
from evplant.cli import main, resolve_strategy
from evplant.engine import strategy_max_power, strategy_off
from evplant.params import PARAM_NAMES, default_data_dir
from evplant.scenario import PROFILE_HEADER, load_config

from conftest import CONFIG, MANIFEST_HEADER, PROFILE, write_scenario


@pytest.fixture
def scenario_files(tmp_path):
    return write_scenario(tmp_path)


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
    assert capsys.readouterr().err == f"error: {tmp_path / 'r1.csv'}: r1: non-finite breakpoint\n"


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
    config.write_text(CONFIG)
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


# Fuzzing of the two files `simulate` reads. A valid profile and config are
# generated and then broken in one place: a cell, a row, the header (the
# config's first key), or bytes that do not decode. Every mutation is
# invalid by construction, so `simulate` must refuse it with exit 2 and one
# stderr line, `error: ...`, that names the file, and never a traceback.

# per profile column, texts that no row may hold there
BAD_PROFILE_CELLS = {
    0: ["", "abc", "nan", "inf", "-inf", "1e999", "0x10"],
    1: ["", "parked", "drive_", "1"],
    2: ["abc", "nan", "inf", "-1e999", "1e6e"],
    3: ["", "hot", "nan", "-inf"],
    4: ["single_phase", "x", "3"],
}
# per config key, values it may not take
BAD_CONFIG_VALUES = {
    "initial_soc": ["", "abc", "nan", "inf", "1.5", "-0.5"],
    "initial_temp_c": ["", "warm", "inf", "-nan"],
    "dt_s": ["0", "-1", "abc", "nan", "7"],
    "thermal_mode": ["", "ev", "lab"],
}
# bytes that UTF-8, the encoding a text file is read in here, cannot decode
BAD_BYTES = [b"\xff", b"\xfe\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80"]


@st.composite
def valid_profile(draw):
    """Rows of a valid profile CSV: 2-4 records at rising times, each within its kind's limits."""
    n = draw(st.integers(2, 4))
    times = sorted(draw(st.lists(st.integers(0, 300), min_size=n, max_size=n, unique=True)))
    rows = []
    for t in times:
        kind = draw(st.sampled_from(["drive", "idle", "plugged"]))
        value = {"drive": -5000, "idle": 0, "plugged": 11040}[kind]
        mode = draw(st.sampled_from(["", "three_phase", "one_phase"])) if kind == "plugged" else ""
        rows.append([str(float(t)), kind, str(value), str(draw(st.integers(-10, 35))), mode])
    return rows


@st.composite
def broken_profile(draw):
    """A valid profile's bytes, broken in one cell, row, the header or its encoding."""
    rows = draw(valid_profile())
    header = PROFILE_HEADER
    where = draw(st.sampled_from(["cell", "row", "header", "bytes"]))
    if where == "cell":
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.sampled_from(sorted(BAD_PROFILE_CELLS)))
        rows[r][c] = draw(st.sampled_from(BAD_PROFILE_CELLS[c]))
    elif where == "row":
        r = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(["drop a cell", "add a cell", "repeat", "move back"]))
        if change == "drop a cell":
            del rows[r][draw(st.integers(0, 4))]
        elif change == "add a cell":
            rows[r].insert(draw(st.integers(0, 5)), draw(st.sampled_from(["", "0", "idle"])))
        elif change == "repeat":
            rows.insert(r, list(rows[r]))
        else:
            rows.insert(0, rows.pop(draw(st.integers(1, len(rows) - 1))))
    elif where == "header":
        at = draw(st.integers(0, len(header)))
        header = header[:at] + draw(st.sampled_from(["x", ",", "_", "T"])) + header[at:]
    data = profile_bytes(header, rows)
    if where == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


def profile_bytes(header: str, rows: list[list[str]]) -> bytes:
    return "\n".join([header, *(",".join(row) for row in rows)]).encode() + b"\n"


@st.composite
def valid_config(draw):
    """(key, value) lines of a valid config."""
    return [
        ["initial_soc", str(draw(st.floats(0.0, 1.0)))],
        ["initial_temp_c", str(draw(st.integers(-10, 35)))],
        ["dt_s", draw(st.sampled_from(["1", "2", "5"]))],
        ["thermal_mode", draw(st.sampled_from(["ev_operation", "lab_pack_test"]))],
    ]


def config_bytes(lines: list[list[str]]) -> bytes:
    return "\n".join(f"{key} = {value}" for key, value in lines).encode() + b"\n"


@st.composite
def broken_config(draw):
    """A valid config's bytes, broken in one value, one line, its first key or its encoding."""
    lines = draw(valid_config())
    where = draw(st.sampled_from(["value", "line", "header", "bytes"]))
    if where == "value":
        line = draw(st.sampled_from(lines))
        line[1] = draw(st.sampled_from(BAD_CONFIG_VALUES[line[0]]))
    elif where == "line":
        r = draw(st.integers(0, len(lines) - 1))
        change = draw(st.sampled_from(["no =", "repeat", "unknown key"]))
        if change == "repeat":
            lines.insert(r, list(lines[r]))
        elif change == "unknown key":
            # inside the key, where strip leaves even a break of str.splitlines
            key, at = lines[r][0], draw(st.integers(1, len(lines[r][0]) - 1))
            lines[r][0] = key[:at] + draw(st.sampled_from(["_", "x", "2", "\x0b", "\x85", "\u2028"])) + key[at:]
    elif where == "header":
        lines[0][0] = lines[0][0].upper()
    data = config_bytes(lines)
    if where == "line" and change == "no =":
        data = data.replace(f"{lines[r][0]} =".encode(), lines[r][0].encode(), 1)
    if where == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


@settings(max_examples=20, deadline=None)
@given(rows=valid_profile(), lines=valid_config())
def test_the_unbroken_profile_and_config_run(tmp_path_factory, rows, lines):
    # the files the fuzzing below breaks are valid as generated
    directory = tmp_path_factory.mktemp("valid")
    (directory / "scenario.cfg").write_bytes(config_bytes(lines))
    (directory / "profile.csv").write_bytes(profile_bytes(PROFILE_HEADER, rows))
    args = ["--config", str(directory / "scenario.cfg"), "--profile", str(directory / "profile.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *args, "--out", str(directory / "out")]) == 0


@settings(max_examples=200, deadline=None)
@given(broken=st.one_of(st.tuples(st.just("profile"), broken_profile()), st.tuples(st.just("config"), broken_config())))
@example(broken=("config", b"initial\x0bsoc = 0.5\n"))
@example(broken=("config", "initial_soc = 0.5\ninitial\u2028temp_c = 20\n".encode()))
def test_a_broken_profile_or_config_fails_with_one_line_naming_the_file(tmp_path_factory, broken):
    which, data = broken
    directory = tmp_path_factory.mktemp("fuzz")
    paths = dict(zip(("config", "profile"), write_scenario(directory)))
    paths[which].write_bytes(data)
    args = ["simulate", "--config", str(paths["config"]), "--profile", str(paths["profile"])]
    assert_refused_in_one_line(args + ["--out", str(directory / "out")], str(paths[which]))


def assert_refused_in_one_line(argv: list[str], name: str) -> None:
    """``main(argv)`` exits 2 with no output but one ``error:`` line that holds ``name``, and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    # one line by its \n and by str.splitlines, which also breaks at a \x0b, \x85 or \u2028 in it
    assert (rc, out.getvalue(), text.count("\n"), len(text.splitlines())) == (2, "", 1, 1), text
    assert text.startswith("error: ") and text.endswith("\n") and name in text, text
    assert "Traceback" not in text


# Fuzzing of the three other inputs: a batch manifest, a --strategy spec and
# the tables of a data directory, each broken in one place and each refused
# in one line that names it.

@st.composite
def valid_manifest(draw):
    """Rows of a valid manifest: 1-3 runs of one scenario, each into its own directory.

    A directory's name may hold a break of str.splitlines, which a refusal
    that names it must quote.
    """
    strategy = st.sampled_from(["", "off", "max_power", "constant:5000"])
    out = st.sampled_from(["out", "out\x0b", "out\u2028"])
    n = draw(st.integers(1, 3))
    return [["scenario.cfg", "profile.csv", f"{draw(out)}{i}", draw(strategy)] for i in range(n)]


def manifest_bytes(header: str, rows: list[list[str]]) -> bytes:
    return "\n".join([header, *(",".join(row) for row in rows)]).encode() + b"\n"


@st.composite
def broken_manifest(draw):
    """A valid manifest's bytes, broken in one cell, row, the header or its encoding."""
    rows = draw(valid_manifest())
    n = len(rows)
    header = MANIFEST_HEADER
    where = draw(st.sampled_from(["cell", "row", "header", "bytes"]))
    r = draw(st.integers(0, n - 1))
    if where == "cell":
        if n > 1 and draw(st.booleans()):
            # the output of another row, as written there or by another path
            rows[r][2] = draw(st.sampled_from(["", "./", "out9/../"])) + rows[r - 1][2]
        else:
            c = draw(st.integers(0, 3))
            at = draw(st.integers(0, len(rows[r][c])))
            rows[r][c] = rows[r][c][:at] + "," + rows[r][c][at:]
    elif where == "row":
        change = draw(st.sampled_from(["drop a cell", "add a cell", "repeat"]))
        if change == "drop a cell":
            del rows[r][draw(st.integers(0, 3))]
        elif change == "add a cell":
            rows[r].insert(draw(st.integers(0, 4)), draw(st.sampled_from(["", "off", "out9"])))
        else:
            rows.insert(r, list(rows[r]))
    elif where == "header":
        at = draw(st.integers(0, len(header)))
        header = header[:at] + draw(st.sampled_from(["x", ",", "_", "T"])) + header[at:]
    data = manifest_bytes(header, rows)
    if where == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


def _manifest_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("batch")
    write_scenario(directory)
    return directory


@settings(max_examples=10, deadline=None)
@given(rows=valid_manifest())
def test_the_unbroken_manifest_runs(tmp_path_factory, rows):
    # the manifests the fuzzing below breaks are valid as generated
    directory = _manifest_dir(tmp_path_factory)
    (directory / "manifest.csv").write_bytes(manifest_bytes(MANIFEST_HEADER, rows))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["batch", "--manifest", str(directory / "manifest.csv"), "--jobs", "1"]) == 0
    assert out.getvalue() == "".join(f"done {directory / row[2]}\n" for row in rows)


@settings(max_examples=100, deadline=None)
@given(data=broken_manifest())
@example(data=manifest_bytes(MANIFEST_HEADER, [["scenario.cfg", "profile.csv", "out\u20280", ""]] * 2))
def test_a_broken_manifest_fails_with_one_line_naming_the_file(tmp_path_factory, data):
    directory = _manifest_dir(tmp_path_factory)
    manifest = directory / "manifest.csv"
    manifest.write_bytes(data)
    assert_refused_in_one_line(["batch", "--manifest", str(manifest), "--jobs", "1"], str(manifest))
    assert not any(directory.glob("out*"))


# strategy modules the spec fuzzing imports, by what each does when imported
STRATEGY_MODULES = {
    "fuzzed_strategy_good": "X = 1\n\n\ndef f(obs):\n    return 0.0\n",
    "fuzzed_strategy_unclosed": "def f(obs:\n    return 0.0\n",
    "fuzzed_strategy_keyerror": "X = {}['k']\n",
    "fuzzed_strategy_zerodiv": "X = 1 / 0\n",
    "fuzzed_strategy_imports": "import fuzzed_strategy_nowhere\n",
    "fuzzed_strategy_exits": "import sys\n\nsys.exit(3)\n",
}


@pytest.fixture(scope="module")
def strategy_modules(tmp_path_factory):
    directory = tmp_path_factory.mktemp("strategy_modules")
    for name, source in STRATEGY_MODULES.items():
        (directory / f"{name}.py").write_text(source)
    sys.path.insert(0, str(directory))
    yield
    sys.path.remove(str(directory))
    for name in STRATEGY_MODULES:
        sys.modules.pop(name, None)


# names that no module has: a spec only ever imports these or STRATEGY_MODULES
MISSING_MODULES = ["", ".fuzzed", "fuzzed_strategy_missing", "fuzzed_strategy_good.sub", "evplant.fuzzed_strategy"]


@st.composite
def broken_spec(draw):
    """A --strategy spec that no strategy answers to."""
    where = draw(st.sampled_from(["name", "constant", "module", "callable"]))
    if where == "name":
        # no colon, so nothing is imported
        spec = draw(st.text(st.characters(exclude_categories=("Cs",), exclude_characters=":"), max_size=12))
        assume(spec not in ("profile", "max_power", "off"))
    elif where == "constant":
        watts = st.sampled_from(["", "nan", "inf", "-inf", "-1", "-1e-300", "1e999", "0x10", "1,5", "--1", "five"])
        spec = "constant:" + draw(watts)
    elif where == "module":
        module = draw(st.sampled_from(MISSING_MODULES + [m for m in STRATEGY_MODULES if m != "fuzzed_strategy_good"]))
        spec = f"{module}:f"
    else:
        spec = "fuzzed_strategy_good:" + draw(st.sampled_from(["", "g", "X", "F", "f.g", " f", "__name__"]))
    return spec


@pytest.fixture(scope="module")
def scenario_files_once(tmp_path_factory):
    return write_scenario(tmp_path_factory.mktemp("scenario"))


@settings(max_examples=100, deadline=None)
@given(spec=broken_spec())
def test_a_broken_strategy_spec_fails_with_one_line_naming_it(scenario_files_once, strategy_modules, spec):
    config, profile = scenario_files_once
    argv = ["simulate", "--config", str(config), "--profile", str(profile), "--out", str(config.parent / "out")]
    # in one argument, so that a spec that starts with '-' is not read as an option
    assert_refused_in_one_line(argv + [f"--strategy={spec}"], repr(spec))
    assert not (config.parent / "out").exists()


# every table simulate reads from a data directory
DATA_TABLES = [*PARAM_NAMES, *CALENDAR_FILES, *CYCLE_FILES]
# texts that no table cell may hold
BAD_TABLE_CELLS = ["", "abc", "nan", "inf", "-inf", "1e999", "0x10", "1.2.3"]


@st.composite
def broken_table(draw):
    """(name, bytes) of a shipped table broken in one cell, row, its header or its encoding."""
    name = draw(st.sampled_from(DATA_TABLES))
    head, *rows = (line.split(",") for line in (default_data_dir() / f"{name}.csv").read_text().split())
    where = draw(st.sampled_from(["cell", "row", "header", "bytes"]))
    r = draw(st.integers(0, len(rows) - 1))
    if where == "cell":
        c = draw(st.integers(0, len(head) - 1))
        # a value of an electrical table may be negative, an aging rate not
        rows[r][c] = draw(st.sampled_from(BAD_TABLE_CELLS + (["-1"] if name not in PARAM_NAMES and c else [])))
    elif where == "row":
        change = draw(st.sampled_from(["drop a cell", "add a cell", "repeat", "move back"]))
        if change == "drop a cell":
            del rows[r][draw(st.integers(0, len(head) - 1))]
        elif change == "add a cell":
            rows[r].insert(draw(st.integers(0, len(head))), draw(st.sampled_from(["", "0", "1.5"])))
        elif change == "repeat":
            rows.insert(r, list(rows[r]))
        else:
            rows.insert(0, rows.pop(draw(st.integers(1, len(rows) - 1))))
    elif where == "header":
        # the first cell names the row axis; the others are the column breakpoints
        c = draw(st.integers(1, len(head) - 2))
        change = draw(st.sampled_from(["bad cell", "repeat", "drop"]))
        if change == "bad cell":
            head[c] = draw(st.sampled_from(BAD_TABLE_CELLS))
        elif change == "repeat":
            head[c + 1] = head[c]
        else:
            del head[c]
    data = "\n".join(",".join(row) for row in [head, *rows]).encode() + b"\n"
    if where == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return name, data


def _run_on_table(directory: Path, name: str, data: bytes) -> tuple[list[str], Path]:
    """The argv of a run on the shipped tables, but for table ``name``, which holds ``data``; and that table."""
    shutil.copytree(default_data_dir(), directory / "data")
    table = directory / "data" / f"{name}.csv"
    table.write_bytes(data)
    config, profile = write_scenario(directory, CONFIG + f"data_dir = {directory / 'data'}\n")
    return ["simulate", "--config", str(config), "--profile", str(profile), "--out", str(directory / "out")], table


@settings(max_examples=100, deadline=None)
@given(broken=broken_table())
def test_a_broken_data_table_fails_with_one_line_naming_the_file(tmp_path_factory, broken):
    directory = tmp_path_factory.mktemp("tables")
    argv, table = _run_on_table(directory, *broken)
    assert_refused_in_one_line(argv, str(table))
    assert not (directory / "out").exists()


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("calendar_alpha_r", "90,8.620690e-05", "90,-1", "calendar rates must be >= 0"),
        ("cycle_beta_r", "30,2.500000e-05", "30,-1", "cycle rates must be >= 0"),
        ("calendar_alpha_c", "0,1.288224e-05,7.471698e-05", "0,7.471698e-05,1.288224e-05", "rate must increase with temperature"),
        ("cycle_beta_c", "10,1.500000e-05", "10,3e-05", "rate must not decrease with cycle depth"),
        # breakpoints that only collapse once the percent is a fraction
        ("cycle_beta_c", "dod_pct,25,50", "dod_pct,1e-322,2e-322", "temperature breakpoints not strictly increasing"),
    ],
)
def test_a_table_its_aging_grid_refuses_is_named_by_its_file(tmp_path, name, old, new, message):
    text = (default_data_dir() / f"{name}.csv").read_text()
    argv, table = _run_on_table(tmp_path, name, text.replace(old, new, 1).encode())
    assert_refused_in_one_line(argv, f"{table}: {name}: {message}")
