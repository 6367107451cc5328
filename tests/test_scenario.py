"""Profile and configuration file parsing."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from evplant.aging import CALENDAR_FILES, CYCLE_FILES
from evplant.charger import ChargerMode
from evplant.engine import run_scenario
from evplant.scenario import (
    PROFILE_HEADER,
    ProfileRecord,
    ScenarioConfig,
    ScenarioProfile,
    SegmentKind,
    load_config,
)
from evplant.thermal import ThermalMode

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
        with pytest.raises(ValueError, match="strictly increasing"):
            ScenarioProfile(records)

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

    @pytest.mark.parametrize(
        "kind, mode, message",
        [
            ("drive", None, "kind must be a SegmentKind, got 'drive'"),
            (SegmentKind.PLUGGED, "one_phase", "charger_mode must be a ChargerMode or None, got 'one_phase'"),
        ],
    )
    def test_non_enum_field_is_rejected(self, kind, mode, message):
        # a record built in code is not converted: a string would fail deep in
        # the run, as an AttributeError or a KeyError
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProfileRecord(0.0, kind, -10000.0, 20.0, mode)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="missing profile"):
            ScenarioProfile.from_csv(tmp_path / "nope.csv")


class TestConfig:
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if "float" in f.type])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
            ScenarioConfig(**{name: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dt_s=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(control_interval_s=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(initial_soc=1.5)
