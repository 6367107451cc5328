"""Profile and configuration file parsing."""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, fields
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evplant.aging import CALENDAR_FILES, CYCLE_FILES
from evplant.bms import BmsLimits
from evplant.charger import ChargerConfig, ChargerMode
from evplant.engine import run_scenario
from evplant.scenario import (
    PROFILE_HEADER,
    ProfileRecord,
    ScenarioConfig,
    ScenarioProfile,
    SegmentKind,
    load_config,
    whole_steps,
)
from evplant.thermal import ThermalMode, ThermalParams

GOOD_PROFILE = """t_s,kind,value_w,ambient_c,charger_mode
0,drive,-12000,20,
600,plugged,11040,20,three_phase
4200,idle,0,20,
"""


class TestProfile:
    def test_parse(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(GOOD_PROFILE)
        profile = ScenarioProfile.from_csv(path)
        assert len(profile.records) == 3
        assert profile.records[0].kind is SegmentKind.DRIVE
        assert profile.records[0].value_w == -12000.0
        assert profile.records[1].charger_mode is ChargerMode.THREE_PHASE
        assert profile.records[2].charger_mode is None
        assert profile.duration_s == 4200.0

    def test_header_required(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,kind\n0,drive\n")
        with pytest.raises(ValueError, match=PROFILE_HEADER.split(",")[0]):
            ScenarioProfile.from_csv(path)

    def test_bad_kind_reports_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(PROFILE_HEADER + "\n0,flying,0,20,\n")
        with pytest.raises(ValueError, match="row 2"):
            ScenarioProfile.from_csv(path)

    def test_timestamps_strictly_increasing(self):
        records = [
            ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0),
            ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0),
        ]
        message = "profile: t_s must increase, but record 2 has t_s = 0.0 after 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioProfile(records)

    def test_out_of_order_record_is_named(self):
        records = [ProfileRecord(t, SegmentKind.IDLE, 0.0, 20.0) for t in (0.0, 60.0, 30.0)]
        with pytest.raises(ValueError) as info:
            ScenarioProfile(records)
        assert str(info.value) == "profile: t_s must increase, but record 3 has t_s = 30.0 after 60.0"

    def test_out_of_order_row_names_the_file_row(self, tmp_path):
        # the row counts the header and the blank line, as every CSV error does
        path = tmp_path / "p.csv"
        path.write_text(PROFILE_HEADER + "\n0,idle,0,20,\n\n60,idle,0,20,\n30,idle,0,20,\n")
        with pytest.raises(ValueError) as info:
            ScenarioProfile.from_csv(path)
        assert str(info.value) == f"{path}: t_s must increase, but row 5 has t_s = 30.0 after 60.0"

    def test_a_profile_cannot_be_changed_after_its_check(self):
        # a 200 s drive record inserted before the 100 s end record passed no
        # check, and the run gave 100 idle rows with no drive and no error
        records = [ProfileRecord(t, SegmentKind.IDLE, 0.0, 20.0) for t in (0.0, 100.0)]
        profile = ScenarioProfile(records)
        drive = ProfileRecord(200.0, SegmentKind.DRIVE, -10000.0, 20.0)
        with pytest.raises(FrozenInstanceError):
            profile.records = [records[0], drive, records[1]]
        with pytest.raises(AttributeError):
            profile.records.append(drive)
        with pytest.raises(AttributeError):
            profile.records.insert(1, drive)
        # the list passed in is copied: changing it leaves the profile as checked
        records.insert(1, drive)
        assert profile.records == (records[0], records[2])

    def test_drive_power_bounded_by_motor_rating(self, tmp_path):
        with pytest.raises(ValueError, match="motor rating"):
            ScenarioProfile([ProfileRecord(0.0, SegmentKind.DRIVE, -60000.0, 20.0)])
        path = tmp_path / "p.csv"
        path.write_text(GOOD_PROFILE.replace("-12000", "-60000"))
        with pytest.raises(ValueError) as info:
            ScenarioProfile.from_csv(path)
        assert str(info.value) == (
            f"{path} row 2: drive power -60000.0 W at t=0.0 exceeds the 55000 W motor rating"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["t_s", "value_w", "ambient_c"])
    def test_non_finite_cell_names_the_row(self, tmp_path, name, value):
        cells = {"t_s": "600", "value_w": "11040", "ambient_c": "20", name: value}
        row = f"{cells['t_s']},plugged,{cells['value_w']},{cells['ambient_c']},three_phase"
        path = tmp_path / "p.csv"
        path.write_text(GOOD_PROFILE.replace("600,plugged,11040,20,three_phase", row))
        with pytest.raises(ValueError) as info:
            ScenarioProfile.from_csv(path)
        assert str(info.value) == f"{path} row 3: {name} must be a finite number, got {float(value)!r}"

    # a file cell parses to a float; only a record built in code can hold an int beyond the float range
    @pytest.mark.parametrize("value", [pytest.param(10**400, id="huge_int"), pytest.param(-(10**400), id="-huge_int")])
    @pytest.mark.parametrize("name", ["t_s", "value_w", "ambient_c"])
    def test_huge_int_in_a_record_built_in_code_names_the_field(self, name, value):
        numbers = {"t_s": 0.0, "value_w": 0.0, "ambient_c": 20.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
            ProfileRecord(numbers["t_s"], SegmentKind.IDLE, numbers["value_w"], numbers["ambient_c"])

    @pytest.mark.parametrize("name", ["t_s", "value_w", "ambient_c"])
    def test_non_numeric_cell_names_the_row(self, tmp_path, name):
        cells = {"t_s": "600", "value_w": "11040", "ambient_c": "20", name: "x"}
        row = f"{cells['t_s']},plugged,{cells['value_w']},{cells['ambient_c']},three_phase"
        path = tmp_path / "p.csv"
        path.write_text(GOOD_PROFILE.replace("600,plugged,11040,20,three_phase", row))
        with pytest.raises(ValueError) as info:
            ScenarioProfile.from_csv(path)
        assert str(info.value) == f"{path} row 3: non-numeric cell (could not convert string to float: 'x')"

    def test_empty_value_is_zero_watts(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(GOOD_PROFILE.replace("4200,idle,0,20,", "4200,idle,,20,"))
        assert ScenarioProfile.from_csv(path).records[2].value_w == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="missing profile"):
            ScenarioProfile.from_csv(tmp_path / "nope.csv")


# a valid value, unlike the default, per config key: one key per field of
# ScenarioConfig but bms, and one per field of BmsLimits
CONFIG_VALUES = {
    "data_dir": "tables",
    "aging_data_dir": "aging",
    "thermal_mode": "lab_pack_test",
    "charger_mode": "one_phase",
    "grid_voltage_v": "220",
    "dt_s": "0.5",
    "control_interval_s": "5",
    "aging_interval_s": "30",
    "initial_soc": "0.25",
    "initial_temp_c": "18.5",
    "dead_time_s": "1.5",
    "c_pack_j_per_k": "20000",
    "ramp_curve": "ramp.csv",
    "efficiency_curve": "efficiency.csv",
    "soc_min": "0.05",
    "soc_max": "0.9",
    "v_cell_min": "3.1",
    "v_cell_max": "4.1",
    "t_min_c": "-20",
    "t_max_c": "50",
    "max_current_a": "80",
}
BMS_KEYS = [f.name for f in fields(BmsLimits)]
CONFIG_KEYS = [f.name for f in fields(ScenarioConfig) if f.name != "bms"] + BMS_KEYS


class TestConfig:
    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_every_field_has_a_key(self, tmp_path, key):
        # a field added without a parser, or without a value here, fails
        value = CONFIG_VALUES[key]
        path = tmp_path / "scenario.cfg"
        path.write_text(f"{key} = {value}\n")
        config = load_config(path)
        record, default = (config.bms, BmsLimits()) if key in BMS_KEYS else (config, ScenarioConfig())
        loaded = getattr(record, key)
        if isinstance(loaded, Path):
            expected = (tmp_path / value).resolve()
        elif isinstance(loaded, Enum):
            expected = type(loaded)(value)
        else:
            expected = float(value)
        assert loaded == expected != getattr(default, key)

    def test_defaults(self):
        config = ScenarioConfig()
        assert config.dt_s == 1.0
        assert config.control_interval_s == 10.0
        assert config.aging_interval_s == 60.0
        assert config.thermal_mode is ThermalMode.EV_OPERATION
        assert config.charger_mode is ChargerMode.THREE_PHASE
        assert config.bms.soc_min == 0.032

    def test_parse_full_file(self, tmp_path, data_dir):
        text = f"""
# scenario configuration
data_dir = {data_dir}
thermal_mode = lab_pack_test
charger_mode = one_phase
grid_voltage_v = 230
dt_s = 0.5
control_interval_s = 5
aging_interval_s = 30
initial_soc = 0.25
initial_temp_c = 18.5
dead_time_s = 1.0
soc_max = 0.9
max_current_a = 80
"""
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        config = load_config(path)
        assert config.thermal_mode is ThermalMode.LAB_PACK_TEST
        assert config.charger_mode is ChargerMode.ONE_PHASE
        assert config.dt_s == 0.5
        assert config.initial_temp_c == 18.5
        assert config.bms.soc_max == 0.9
        assert config.bms.max_current_a == 80.0
        assert config.bms.soc_min == 0.032  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("dt = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dt_s", "nan"),
            ("initial_temp_c", "nan"),
            ("grid_voltage_v", "inf"),
            ("aging_interval_s", "-inf"),
            ("soc_max", "NaN"),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, key, value):
        path = tmp_path / "scenario.cfg"
        path.write_text(f"initial_soc = 0.5\n{key} = {value}\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        message = str(info.value)
        assert message.startswith(f"{path} line 2: ")
        assert f"{key} must be a finite number, got '{value}'" in message

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, data_dir):
        (tmp_path / "tables").mkdir()
        for f in data_dir.glob("*.csv"):
            (tmp_path / "tables" / f.name).write_text(f.read_text())
        path = tmp_path / "scenario.cfg"
        path.write_text("data_dir = tables\n")
        config = load_config(path)
        assert config.data_dir == (tmp_path / "tables").resolve()

    def test_aging_data_dir_resolves_against_config_dir(self, tmp_path, data_dir):
        # the calendar tables there are doubled: an idle day fades twice as much
        (tmp_path / "aging").mkdir()
        for name in CALENDAR_FILES:
            head, *body = (data_dir / f"{name}.csv").read_text().split()
            lines = [head]
            for row in body:
                soc, *rates = row.split(",")
                lines.append(",".join([soc, *(repr(2.0 * float(r)) for r in rates)]))
            (tmp_path / "aging" / f"{name}.csv").write_text("\n".join(lines) + "\n")
        for name in CYCLE_FILES:
            (tmp_path / "aging" / f"{name}.csv").write_text((data_dir / f"{name}.csv").read_text())
        timing = "dt_s = 60\ncontrol_interval_s = 60\naging_interval_s = 60\n"
        path = tmp_path / "scenario.cfg"
        path.write_text(f"aging_data_dir = aging\n{timing}")
        config = load_config(path)
        assert config.aging_data_dir == (tmp_path / "aging").resolve()

        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 25.0),
                ProfileRecord(86400.0, SegmentKind.IDLE, 0.0, 25.0),
            ]
        )
        base = tmp_path / "base.cfg"
        base.write_text(timing)
        fade, doubled_fade = (
            1.0 - run_scenario(load_config(cfg), profile).c_norm[-1] for cfg in (base, path)
        )
        assert fade > 0.0
        assert doubled_fade == pytest.approx(2.0 * fade, rel=1e-9)

    def test_missing_config_file_is_named(self, tmp_path):
        path = tmp_path / "nope.cfg"
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"missing config file: {path}"

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("dt_s = 1\n\ninitial_soc 0.5\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path} line 3: expected 'key = value'"

    # a huge int is beyond the float range: it must not overflow in the check
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge_int"), pytest.param(-(10**400), id="-huge_int")]
    )
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if "float" in f.type])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize(
        "interval, message",
        [
            ({"control_interval_s": 15.0}, "control_interval_s must be a whole multiple of dt_s (10.0), got 15.0"),
            ({"aging_interval_s": 25.0}, "aging_interval_s must be a whole multiple of dt_s (10.0), got 25.0"),
        ],
    )
    def test_interval_must_be_whole_steps(self, interval, message):
        # the engine used to round: a 15 s control interval at dt 10 s polled every 20 s
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(dt_s=10.0, **{"control_interval_s": 60.0, "aging_interval_s": 60.0, **interval})

    @pytest.mark.parametrize(
        "dt, control, aging",
        [(0.25, 10.0, 60.0), (0.5, 10.0, 60.0), (1.0, 10.0, 60.0), (60.0, 60.0, 60.0), (0.7, 2.1, 4.2)],
    )
    def test_intervals_that_are_whole_steps_load(self, dt, control, aging):
        # 2.1 / 0.7 is 3.0000000000000004 in binary; the whole-step slack admits it
        config = ScenarioConfig(dt_s=dt, control_interval_s=control, aging_interval_s=aging)
        assert (config.control_interval_s, config.aging_interval_s) == (control, aging)

    def test_an_interval_within_a_millionth_of_a_step_is_that_step(self):
        # the intervals follow the run's whole-step rule: 60.00003 s at dt 60 s
        # is 1.0000005 steps, which the engine rounds to 1; 60.0003 s is not
        config = ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.00003)
        assert whole_steps(config.aging_interval_s, config.dt_s) == (1, 0.0)
        message = "aging_interval_s must be a whole multiple of dt_s (60.0), got 60.0003"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0003)

    def test_a_field_cannot_be_assigned(self):
        # an assignment would skip the checks: a dt_s of 0.3 s does not divide
        # the 10 s control interval, and the run would poll every 9.9 s
        config = ScenarioConfig()
        with pytest.raises(FrozenInstanceError):
            config.dt_s = 0.3
        assert config.dt_s == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dt_s=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(control_interval_s=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(initial_soc=1.5)


ENUMS = (SegmentKind, ChargerMode, ThermalMode)

# every enum or record field of an input record: (field, type, None allowed, build with a value)
TYPED_FIELDS = {
    "ProfileRecord.kind": ("kind", SegmentKind, False, lambda v: ProfileRecord(0.0, v, 0.0, 20.0)),
    "ProfileRecord.charger_mode": (
        "charger_mode",
        ChargerMode,
        True,
        lambda v: ProfileRecord(0.0, SegmentKind.PLUGGED, 0.0, 20.0, v),
    ),
    "ScenarioConfig.thermal_mode": ("thermal_mode", ThermalMode, False, lambda v: ScenarioConfig(thermal_mode=v)),
    "ScenarioConfig.charger_mode": ("charger_mode", ChargerMode, False, lambda v: ScenarioConfig(charger_mode=v)),
    "ScenarioConfig.bms": ("bms", BmsLimits, False, lambda v: ScenarioConfig(bms=v)),
    "ChargerConfig.mode": ("mode", ChargerMode, False, lambda v: ChargerConfig(mode=v)),
    "ThermalParams.for_mode": ("mode", ThermalMode, False, ThermalParams.for_mode),
}


def wrong_values(kind: type, none_allowed: bool):
    """Values a field of type ``kind`` refuses: its members' text, any text, integers, other enums' members."""
    values = st.text() | st.integers() | st.sampled_from([m for e in ENUMS if e is not kind for m in e])
    if issubclass(kind, Enum):
        values |= st.sampled_from([m.value for m in kind])
    return values if none_allowed else values | st.none()


class TestWholeSteps:
    @given(
        t0=st.sampled_from([0.0, 1.5, 3600.3, 8.64e6, 3.1536e7]),
        dt=st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.7, 1.0, 2.0, 60.0]),
        n=st.integers(0, 10**7),
    )
    # 374.8 s from day 100, and one short step from year 1: each span is off a
    # whole count by the rounding of its end time, well inside the slack
    @example(t0=8.64e6, dt=0.2, n=1874)
    @example(t0=3.1536e7, dt=0.1, n=1)
    def test_a_span_of_whole_steps_has_no_rest(self, t0, dt, n):
        # the span as a run sees it: the difference of its end and start times
        assert whole_steps((t0 + n * dt) - t0, dt) == (n, 0.0)

    @given(
        dt=st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.7, 1.0, 2.0, 60.0]),
        n=st.integers(0, 10**4),
        f=st.floats(0.01, 0.99),
    )
    def test_a_real_tail_is_kept(self, dt, n, f):
        n_whole, rest = whole_steps(n * dt + f * dt, dt)
        assert n_whole == n
        assert abs(rest - f * dt) <= 1e-6 * dt


class TestTypedFields:
    # a record built in code is not converted: a wrong type would fail deep in
    # the run, as an AttributeError or a KeyError, or, for ChargerConfig's
    # mode, pick the three-phase set-points

    @pytest.mark.parametrize("case", list(TYPED_FIELDS))
    @given(data=st.data())
    def test_wrong_type_is_rejected_by_field_name(self, case, data):
        name, kind, none_allowed, build = TYPED_FIELDS[case]
        value = data.draw(wrong_values(kind, none_allowed))
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value).startswith(f"{name} must be a {kind.__name__}")

    @pytest.mark.parametrize("case", list(TYPED_FIELDS))
    def test_valid_values_build(self, case):
        _, kind, none_allowed, build = TYPED_FIELDS[case]
        for value in [*(kind if issubclass(kind, Enum) else [kind()]), *([None] if none_allowed else [])]:
            build(value)

    @pytest.mark.parametrize(
        "case, value, message",
        [
            ("ProfileRecord.kind", "drive", "kind must be a SegmentKind, got 'drive'"),
            (
                "ProfileRecord.charger_mode",
                "one_phase",
                "charger_mode must be a ChargerMode or None, got 'one_phase'",
            ),
            (
                "ScenarioConfig.thermal_mode",
                "lab_pack_test",
                "thermal_mode must be a ThermalMode, got 'lab_pack_test'",
            ),
            ("ScenarioConfig.charger_mode", "one_phase", "charger_mode must be a ChargerMode, got 'one_phase'"),
            ("ScenarioConfig.bms", None, "bms must be a BmsLimits, got None"),
            ("ChargerConfig.mode", "one_phase", "mode must be a ChargerMode, got 'one_phase'"),
            ("ThermalParams.for_mode", "ev_operation", "mode must be a ThermalMode, got 'ev_operation'"),
        ],
    )
    def test_message_names_field_type_and_value(self, case, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TYPED_FIELDS[case][3](value)
