"""Engine coupling: determinism, energy bookkeeping, metrics, reports."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evplant.engine
from evplant.bms import BmsLimits
from evplant.charger import ChargerMode
from evplant.ecm import POINT_ORDER
from evplant.engine import (
    CV_MARGIN_V_PER_CELL,
    FLOAT_COLUMNS,
    TRAJECTORY_HEADER,
    StrategyObservation,
    Trajectory,
    compute_metrics,
    emit_report,
    make_constant_strategy,
    read_trajectory,
    run_scenario,
    strategy_max_power,
    strategy_off,
)
from evplant.params import N_SERIES, PARAM_NAMES, GridLookup, ParamGrid, default_data_dir
from evplant.scenario import (
    _WHOLE_STEPS_TOL,
    ProfileRecord,
    ScenarioConfig,
    ScenarioProfile,
    SegmentKind,
    whole_steps,
)
from evplant.thermal import ThermalMode

REGRESSION_DIR = Path(__file__).parent / "data" / "regression"


def charge_profile(duration=1800.0, power=11040.0, ambient=20.0):
    return ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.PLUGGED, power, ambient, None),
            ProfileRecord(duration, SegmentKind.IDLE, 0.0, ambient, None),
        ]
    )


def mixed_profile():
    return ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.DRIVE, -15000.0, 20.0, None),
            ProfileRecord(600.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ProfileRecord(900.0, SegmentKind.PLUGGED, 11040.0, 20.0, None),
            ProfileRecord(2400.0, SegmentKind.IDLE, 0.0, 20.0, None),
        ]
    )


def aging_day_profile(ambient=15.0):
    """One day of an aging study: two 25-min drives, then plugged from 18:00."""
    return ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.IDLE, 0.0, ambient, None),
            ProfileRecord(7 * 3600.0, SegmentKind.DRIVE, -9000.0, ambient, None),
            ProfileRecord(7 * 3600.0 + 1500.0, SegmentKind.IDLE, 0.0, ambient, None),
            ProfileRecord(17 * 3600.0, SegmentKind.DRIVE, -7500.0, ambient, None),
            ProfileRecord(17 * 3600.0 + 1500.0, SegmentKind.IDLE, 0.0, ambient, None),
            ProfileRecord(18 * 3600.0, SegmentKind.PLUGGED, 11040.0, ambient, None),
            ProfileRecord(86400.0, SegmentKind.IDLE, 0.0, ambient, None),
        ]
    )


def trajectory_digest(traj: Trajectory) -> str:
    """SHA-256 over the float64 little-endian columns, then the joined flags."""
    h = hashlib.sha256()
    for name in FLOAT_COLUMNS:
        h.update(getattr(traj, name).astype("<f8").tobytes())
    h.update("\n".join(traj.flags).encode())
    return h.hexdigest()


class TestRunScenario:
    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0)
        profile = mixed_profile()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_scenario(config, profile), None, out_a)
        emit_report(run_scenario(config, profile), None, out_b)
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()

    def test_zero_length_profile_gives_empty_trajectory(self):
        empty = ScenarioProfile([])
        assert run_scenario(ScenarioConfig(), empty).n_rows == 0
        single = ScenarioProfile([ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0)])
        assert run_scenario(ScenarioConfig(), single).n_rows == 0

    def test_mode_exclusivity(self):
        traj = run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0), mixed_profile())
        for i, flags in enumerate(traj.flags):
            if flags.startswith("drive") or flags.startswith("idle"):
                assert traj.p_ac[i] == 0.0

    def test_default_strategy_follows_profile_power(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        profile = charge_profile(duration=300.0, power=4830.0)
        traj = run_scenario(config, profile)  # no explicit strategy
        assert traj.p_ac.max() == pytest.approx(4830.0, rel=0.01)

    def test_energy_bookkeeping(self, pset):
        config = ScenarioConfig(initial_soc=0.2, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=3600.0), make_constant_strategy(11040.0))
        dt = 1.0
        e_ac = float(np.sum(traj.p_ac) * dt)
        e_dc = float(np.sum(traj.p_dc) * dt)
        # stored electrochemical energy: OCV at the sample SOC times charge
        ocv = np.array([pset.ocv.interpolate(s, 20.0) for s in traj.soc])
        e_stored = float(np.sum(ocv * 93 * traj.i_dc) * dt)
        assert e_ac >= e_dc * (1.0 - 5e-3)
        assert e_dc >= e_stored * (1.0 - 5e-3)
        assert e_ac > e_dc > e_stored > 0.0

    def test_soc_stays_within_window_plus_one_step(self):
        config = ScenarioConfig(initial_soc=0.94, initial_temp_c=20.0)
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.PLUGGED, 11040.0, 20.0, None),
                ProfileRecord(1800.0, SegmentKind.DRIVE, -30000.0, 20.0, None),
                ProfileRecord(7200.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        traj = run_scenario(config, profile, strategy_max_power)
        limits = config.bms
        eps = np.max(np.abs(traj.i_dc)) * config.dt_s / (3600.0 * 52.0 * traj.c_norm.min())
        assert traj.soc.max() <= limits.soc_max + eps
        assert traj.soc.min() >= limits.soc_min - eps
        # the drive leg actually reached the bottom of the window, so the
        # sweep realizes the maximum reachable depth of discharge of 92.1 %
        assert traj.soc.min() <= limits.soc_min + 0.01
        assert traj.soc.max() - traj.soc.min() == pytest.approx(0.921, abs=2e-3)

    def test_pack_voltage_is_93_times_cell(self):
        traj = run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0), mixed_profile())
        assert np.all(traj.v_pack == 93 * traj.v_cell)

    @pytest.mark.parametrize(
        "limits, temp, flagged",
        [
            pytest.param({}, 25.0, False, id="default-inside"),
            pytest.param({}, -25.0, False, id="default-min-inclusive"),
            pytest.param({}, 55.0, False, id="default-max-inclusive"),
            pytest.param({}, 60.0, True, id="default-above"),
            pytest.param({}, -30.0, True, id="default-below"),
            pytest.param({"t_max_c": 40.0}, 40.0, False, id="custom-max-inclusive"),
            pytest.param({"t_max_c": 40.0}, 45.0, True, id="custom-above"),
            pytest.param({"t_min_c": -10.0}, -15.0, True, id="custom-below"),
        ],
    )
    def test_temp_envelope_flag_reads_bms_limits(self, limits, temp, flagged):
        # idle at ambient: no heat and no convection, so the pack stays at temp
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=temp, bms=BmsLimits(**limits))
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.IDLE, 0.0, temp, None),
                ProfileRecord(120.0, SegmentKind.IDLE, 0.0, temp, None),
            ]
        )
        traj = run_scenario(config, profile)
        assert np.all(traj.t_pack == temp)
        assert traj.flags == ["idle|temp_envelope" if flagged else "idle"] * 120

    def test_charge_terminates_with_cv_taper(self, pset):
        config = ScenarioConfig(initial_soc=0.90, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=7200.0), make_constant_strategy(11040.0))
        charging = traj.i_dc > 0.01
        assert charging.any() and not charging[-1]
        i_charging = traj.i_dc[charging]
        tail = i_charging[-120:]
        assert np.all(np.diff(tail) <= 1e-9)  # taper is non-increasing
        assert traj.v_cell.max() <= 4.2
        assert traj.soc[-1] == pytest.approx(config.bms.soc_max, abs=1e-3)

    def test_cv_holds_voltage_within_one_mv_of_limit(self):
        config = ScenarioConfig(initial_soc=0.90, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=5400.0), make_constant_strategy(11040.0))
        assert traj.v_cell.max() <= 4.2 + 1e-3
        in_cv = traj.v_cell > 4.19
        assert in_cv.any()

    @pytest.mark.parametrize("v_cell_max", [4.1, 4.0])
    def test_cv_targets_a_lowered_voltage_limit(self, v_cell_max):
        limits = BmsLimits(v_cell_max=v_cell_max, soc_max=0.99)
        config = ScenarioConfig(initial_soc=0.80, initial_temp_c=20.0, bms=limits)
        traj = run_scenario(config, charge_profile(duration=3600.0))
        assert traj.n_rows == 3600
        assert traj.v_cell.max() <= v_cell_max - CV_MARGIN_V_PER_CELL + 1e-9
        assert not any("voltage_high" in f for f in traj.flags)
        on = traj.i_dc > 0
        assert np.count_nonzero(on[:-1] & ~on[1:]) <= 1  # tapers, no on/off chatter

    def test_heater_floor_while_plugged_below_zero(self):
        config = ScenarioConfig(initial_soc=0.3, initial_temp_c=-5.0)
        profile = charge_profile(duration=1200.0, power=4140.0, ambient=-10.0)
        traj = run_scenario(config, profile, make_constant_strategy(4140.0))
        # the heater floor lifts the pack to 0 degC on the very first step
        assert traj.t_pack[0] == 0.0
        assert traj.t_pack.min() >= 0.0

    def test_pack_cools_below_zero_while_driving(self):
        # no heater floor outside charging: a light drive at -20 degC ambient
        # lets the pack drift well below its initial -5 degC
        config = ScenarioConfig(initial_soc=0.6, initial_temp_c=-5.0)
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -500.0, -20.0, None),
                ProfileRecord(3600.0, SegmentKind.IDLE, 0.0, -20.0, None),
            ]
        )
        traj = run_scenario(config, profile)
        assert traj.t_pack.min() < -10.0

    def test_ev_mode_sheds_heat_faster_than_lab_mode(self):
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -20000.0, 20.0, None),
                ProfileRecord(1800.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        hot = dict(initial_soc=0.9, initial_temp_c=35.0)
        ev = run_scenario(ScenarioConfig(thermal_mode=ThermalMode.EV_OPERATION, **hot), profile)
        lab = run_scenario(ScenarioConfig(thermal_mode=ThermalMode.LAB_PACK_TEST, **hot), profile)
        assert ev.t_pack[-1] < lab.t_pack[-1]

    def test_ramp_limits_initial_ac_power(self):
        config = ScenarioConfig(initial_soc=0.3, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=300.0), make_constant_strategy(11040.0))
        assert np.all(traj.p_ac[:2] == 0.0)  # reaction dead time from 0 W
        assert traj.p_ac[30] < 11040.0 * 0.99
        assert traj.p_ac[60] == pytest.approx(11040.0, rel=5e-3)
        # monotone while ramping; afterwards only the ~0.02 % constant-power
        # tracking error of the discrete current command remains
        assert np.all(np.diff(traj.p_ac[:52]) >= -1e-6)
        assert np.all(np.abs(traj.p_ac[53:100] - 11040.0) < 11040.0 * 1e-3)

    def test_strategy_observation_is_restricted(self):
        seen: list[StrategyObservation] = []

        def spy(obs: StrategyObservation) -> float:
            seen.append(obs)
            return 11040.0

        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        run_scenario(config, charge_profile(duration=100.0), spy)
        assert len(seen) == 10  # polled every control interval (10 s)
        obs = seen[0]
        assert obs._fields == ("t_s", "soc", "t_pack_c", "plugged", "ac_power_w", "setpoints_w")
        assert obs == (0.0, 0.5, 20.0, True, 0.0, obs.setpoints_w)
        with pytest.raises(AttributeError):
            obs.soc = 0.9
        assert obs.setpoints_w[-1] == 11040.0

    def test_invalid_strategy_output_raises(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        message = (
            "strategy failed at step 0 (t=0.0 s): "
            "ValueError: requested power must be finite and >= 0, got -5.0"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run_scenario(config, charge_profile(duration=60.0), lambda obs: -5.0)

    def test_aging_updates_at_cadence(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=30.0)
        traj = run_scenario(config, charge_profile(duration=600.0), strategy_off)
        distinct = np.unique(traj.c_norm).size
        assert distinct == 600 // 60 + 1  # one fresh value plus one per minute

    @pytest.mark.parametrize("duration, dt", [(60.0, 1.0), (90.0, 1.0), (119.0, 1.0), (120.0, 1.0), (100.0, 60.0)])
    def test_storage_run_books_aging_to_its_end(self, cal_coeffs, duration, dt):
        # at SOC 1.0 and 40 degC an idle pack holds still, so the booked fade is
        # rate x time; the steps after the last 60 s aging point went unbooked
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 40.0),
                ProfileRecord(duration, SegmentKind.IDLE, 0.0, 40.0),
            ]
        )
        config = ScenarioConfig(dt_s=dt, control_interval_s=60.0, initial_soc=1.0, initial_temp_c=40.0)
        traj = run_scenario(config, profile)
        alpha_c, alpha_r = cal_coeffs.rates(1.0, 40.0)
        assert traj.t_s[-1] == duration
        assert 1.0 - traj.c_norm[-1] == pytest.approx(alpha_c * duration / 86400.0, rel=1e-9)
        assert traj.r_norm[-1] - 1.0 == pytest.approx(alpha_r * duration / 86400.0, rel=1e-9)

    def test_last_partial_interval_reaches_the_cycle_counter(self):
        # the SOC at the 60 s aging point and at the end of a 119 s drive make
        # one half cycle; the counter used to see the first sample only
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -10000.0, 20.0),
                ProfileRecord(119.0, SegmentKind.IDLE, 0.0, 20.0),
            ]
        )
        traj = run_scenario(ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0), profile)
        assert traj.eqfc[-1] == pytest.approx(0.5 * (traj.soc[59] - traj.soc[-1]), rel=1e-12)
        assert traj.eqfc[-1] > 0.0

    def test_tail_shorter_than_one_step_is_simulated(self):
        # 100 s at dt = 60 s: a 60 s step, then a 40 s one; the tail used to be dropped
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -10000.0, 20.0),
                ProfileRecord(100.0, SegmentKind.IDLE, 0.0, 20.0),
            ]
        )
        config = ScenarioConfig(dt_s=60.0, control_interval_s=60.0, initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, profile)
        assert traj.t_s.tolist() == [60.0, 100.0]
        # the tail moves the SOC by its current for 40 s
        drops = 0.5 - traj.soc[0], traj.soc[0] - traj.soc[1]
        assert drops[1] / drops[0] == pytest.approx(40.0 * traj.i_dc[1] / (60.0 * traj.i_dc[0]), rel=1e-6)

    def test_a_late_start_splits_into_whole_steps(self):
        # the span of 374.8 s from day 100 is 1874 whole steps of 0.2 s,
        # though in floats it divides to 1874.0000000037
        profile = ScenarioProfile(
            [
                ProfileRecord(8_640_000.0, SegmentKind.DRIVE, -3000.0, 20.0),
                ProfileRecord(8_640_374.8, SegmentKind.IDLE, 0.0, 20.0),
            ]
        )
        traj = run_scenario(ScenarioConfig(dt_s=0.2, initial_soc=0.5, initial_temp_c=20.0), profile)
        assert traj.n_rows == 1874
        assert np.diff(traj.t_s, prepend=8_640_000.0).min() > 0.19

    def test_strategy_off_draws_nothing(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=120.0), strategy_off)
        assert np.all(traj.i_dc == 0.0)
        assert np.all(traj.p_ac == 0.0)

    def test_plugged_step_looks_up_parameters_once(self, monkeypatch):
        grids, points = [], []
        interpolate, lookup = ParamGrid.interpolate, GridLookup.__call__

        def counting_interpolate(grid, soc, temp):
            grids.append(grid.name)
            return interpolate(grid, soc, temp)

        def counting_lookup(grid_lookup, soc, temp):
            if grid_lookup.label == "cell parameters":
                points.append((soc, temp))
            return lookup(grid_lookup, soc, temp)

        monkeypatch.setattr(ParamGrid, "interpolate", counting_interpolate)
        monkeypatch.setattr(GridLookup, "__call__", counting_lookup)
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=300.0))
        assert traj.n_rows == 300 and traj.p_ac.max() > 0
        assert len(points) == 300
        # the only electrical-table read outside the fused lookup: the initial rest voltage
        assert [name for name in grids if name in PARAM_NAMES] == ["ocv"]


    def test_each_step_calls_the_traced_plant_functions_once(self, monkeypatch):
        # the benchmark's tracer wraps these names in evplant.engine, so the
        # loop must call each of them by that name, once per step
        calls = dict.fromkeys(("operating_point", "step_ecm", "step_thermal", "gate_current"), 0)

        def counting(name):
            original = getattr(evplant.engine, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(evplant.engine, name, counting(name))
        traj = run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0), mixed_profile())
        kinds = [flags.split("|")[0] for flags in traj.flags]
        assert traj.n_rows == 2400
        assert calls["operating_point"] == calls["step_ecm"] == calls["step_thermal"] == 2400
        assert calls["gate_current"] == kinds.count("drive") + kinds.count("plugged") == 2100

    @pytest.mark.parametrize("mode", list(ThermalMode))
    @pytest.mark.parametrize(
        "kind, power_w, ambient_c, t_pack_c, soc, loop_runs",
        [
            pytest.param(SegmentKind.DRIVE, -10000.0, 20.0, 30.0, 0.5, True, id="warm_drive"),
            pytest.param(SegmentKind.DRIVE, -10000.0, 30.0, 10.0, 0.5, False, id="drive_pack_below_ambient"),
            pytest.param(SegmentKind.PLUGGED, 11040.0, 20.0, 30.0, 0.5, "with_current", id="charging"),
            pytest.param(SegmentKind.PLUGGED, 11040.0, 20.0, 30.0, 0.945, "with_current", id="plugged_to_soc_high"),
            pytest.param(SegmentKind.IDLE, 0.0, 20.0, 30.0, 0.5, False, id="idle"),
        ],
    )
    def test_cooling_loop_runs_only_to_carry_heat_out(
        self, monkeypatch, mode, kind, power_w, ambient_c, t_pack_c, soc, loop_runs
    ):
        # in the vehicle, the loop runs while driving, or while charging with
        # current, and only while the pack is warmer than the ambient coolant;
        # a pack on the lab bench has no loop
        original = evplant.engine.step_thermal
        cooling = []

        def recording(t_pack, q_gen, t_ambient, dt, params, cooling_active=False, charging=False):
            cooling.append(cooling_active)
            return original(t_pack, q_gen, t_ambient, dt, params, cooling_active, charging)

        monkeypatch.setattr(evplant.engine, "step_thermal", recording)
        profile = ScenarioProfile(
            [ProfileRecord(0.0, kind, power_w, ambient_c), ProfileRecord(120.0, SegmentKind.IDLE, 0.0, ambient_c)]
        )
        config = ScenarioConfig(thermal_mode=mode, initial_soc=soc, initial_temp_c=t_pack_c)
        traj = run_scenario(config, profile)
        assert len(cooling) == traj.n_rows == 120
        # the pack stays on the side of ambient it starts on
        assert np.all((traj.t_pack > ambient_c) == (t_pack_c > ambient_c))
        if mode is ThermalMode.LAB_PACK_TEST:
            assert not any(cooling)
        elif loop_runs == "with_current":
            # off through the charger's dead time, on while current flows
            assert cooling == [i > 0.0 for i in traj.i_dc]
            assert any(cooling) and not all(cooling)
        else:
            assert cooling == [loop_runs] * 120
        if soc > 0.9:
            # after soc_high trips, the pack stays plugged at 0 A with the loop off
            trip = next(k for k, flags in enumerate(traj.flags) if flags == "plugged|soc_high")
            assert any(cooling[:trip]) or mode is ThermalMode.LAB_PACK_TEST
            assert not np.any(traj.i_dc[trip:]) and not any(cooling[trip:])

    def test_step_stays_within_its_python_call_budget(self):
        # Python-level calls per step of a day of drives, charging and idle,
        # with aging and rainflow on every step: one frame per layer, an
        # observation built straight from a tuple and a charge command with
        # no __post_init__ make 10.03 on CPython 3.11. Run set-up is not
        # counted: counting starts at the first operating point.
        config = ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.7)
        first_step = evplant.engine.operating_point.__code__
        counted = [0, False]

        def count(frame, event, arg):
            if event == "call":
                counted[1] = counted[1] or frame.f_code is first_step
                counted[0] += counted[1]

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            traj = run_scenario(config, aging_day_profile())
        finally:
            sys.setprofile(previous)
        assert traj.n_rows == 1440
        assert counted[0] / traj.n_rows <= 10.2

    def test_charger_path_runs_only_while_the_ramp_moves(self, monkeypatch):
        # commands at 0 s (up from 0 W), 300 s (down), 600 s (off) and 900 s (up again)
        targets = ((300.0, 11040.0), (600.0, 4140.0), (900.0, 0.0), (math.inf, 6900.0))

        def stepped(obs: StrategyObservation) -> float:
            return next(w for t_end, w in targets if obs.t_s < t_end)

        traced = ("command_setpoint", "ramp_power", "ac_to_dc", "gate_current")
        original = {name: getattr(evplant.engine, name) for name in traced}
        states, ramp_ts, converted, gated = [], [], [], []

        def command_setpoint(*args):
            states.append(original["command_setpoint"](*args))
            return states[-1]

        def ramp_power(state, t, config):
            assert t < state.t_settle
            ramp_ts.append(t)
            return original["ramp_power"](state, t, config)

        def ac_to_dc(p_ac, config):
            converted.append(p_ac)
            return original["ac_to_dc"](p_ac, config)

        def gate_current(*args):
            gated.append(args)
            return original["gate_current"](*args)

        for fn in (command_setpoint, ramp_power, ac_to_dc, gate_current):
            monkeypatch.setattr(evplant.engine, fn.__name__, fn)
        config = ScenarioConfig(initial_soc=0.3, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=1200.0), stepped)
        assert traj.n_rows == 1200 and len(gated) == 1200
        assert [s.t_settle for s in states] == [52.0, 4.0, 4.0, 52.0]
        # dt = 1 s: each command's ramp moves for t_settle steps after it
        moving = [*range(52), *range(4), *range(4), *range(52)]
        assert ramp_ts == [float(t) for t in moving]
        # one conversion per command and one per moving step
        assert len(converted) == len(states) + len(ramp_ts)
        assert traj.p_ac[1150] == pytest.approx(6900.0, rel=1e-3)

    def test_charger_mode_change_while_plugged_starts_a_new_session(self):
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.PLUGGED, 11040.0, 20.0, ChargerMode.THREE_PHASE),
                ProfileRecord(100.0, SegmentKind.PLUGGED, 2900.0, 20.0, ChargerMode.ONE_PHASE),
                ProfileRecord(300.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        seen = []
        default = evplant.engine.make_profile_strategy(profile)

        def spy(obs: StrategyObservation) -> float:
            seen.append((obs.t_s, obs.ac_power_w, obs.setpoints_w[-1]))
            return default(obs)

        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0, control_interval_s=60.0)
        traj = run_scenario(config, profile, spy)
        assert traj.p_ac[99] == pytest.approx(11040.0, rel=1e-3)
        # the one-phase session polls at once, from 0 W, and ramps up again
        assert (100.0, 0.0, 2900.0) in seen
        assert np.all(traj.p_ac[100:300] <= 2900.0 * 1.001)
        assert traj.p_ac[100] == 0.0 and traj.p_ac[299] == pytest.approx(2900.0, rel=1e-3)

    @pytest.mark.parametrize("initial_soc", [0.85, 0.5])
    def test_cell_voltage_converges_as_dt_shrinks(self, initial_soc):
        v_end = {}
        for dt in (1.0, 0.5, 0.25):
            config = ScenarioConfig(dt_s=dt, initial_soc=initial_soc, initial_temp_c=20.0)
            traj = run_scenario(config, charge_profile())
            assert traj.t_s[-1] == 1800.0
            v_end[dt] = traj.v_cell[-1]
        error_1 = abs(v_end[1.0] - v_end[0.25])
        error_half = abs(v_end[0.5] - v_end[0.25])
        assert max(v_end.values()) - min(v_end.values()) <= 0.5e-3
        assert error_half < error_1


@st.composite
def profile_rows(draw):
    """2-4 records' (t_s, kind, value_w, ambient_c, charger_mode); in three
    draws of four the times are sorted, in half of them one number is NaN or
    infinite, and in one of eight a kind or charger mode is a plain string."""
    n = draw(st.integers(2, 4))
    times = draw(st.lists(st.floats(0.0, 120.0), min_size=n, max_size=n, unique=True))
    if draw(st.integers(0, 3)):
        times.sort()
    kinds, powers = st.sampled_from(SegmentKind), st.floats(-60_000.0, 60_000.0)
    modes = st.sampled_from([None, *ChargerMode])
    rows = [[t, draw(kinds), draw(powers), draw(st.floats(-40.0, 60.0)), draw(modes)] for t in times]
    if draw(st.booleans()):
        row, column = draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 2, 3]))
        rows[row][column] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if not draw(st.integers(0, 7)):
        row, column = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, 4]))
        rows[row][column] = rows[row][column].value if rows[row][column] else "one_phase"
    return rows


# (target, step of mixed_profile) per injection. The operating point is hit at
# rest: under current an infinite dt saturates the SOC unseen, which the finite
# ScenarioConfig.dt_s rules out, and no check reads capacity_ah. The heat is hit
# while driving: while charging the heater floor would clamp a -inf, which
# step_ecm's sum of squares returns only with a non-finite v_cell.
INJECTIONS = [
    *((name, 700) for name in POINT_ORDER if name != "capacity_ah"),
    ("current", 300),
    ("current", 1500),
    ("heat", 300),
]


class TestFailureContract:
    """Bad input fails with a ``ValueError`` when the profile is built; a run
    fails only with a ``RuntimeError`` that names its step."""

    @settings(max_examples=150, deadline=None)
    @given(rows=profile_rows(), initial_soc=st.floats(0.0, 1.0))
    # spans within the whole-step slack of 0 and of 1 step: no row, and one
    # row that ends 5e-7 s short of the last record
    @example(rows=[[0.0, SegmentKind.DRIVE, -1000.0, 20.0, None], [1.192092896e-07, SegmentKind.IDLE, 0.0, 20.0, None]],
             initial_soc=0.5)
    @example(rows=[[0.0, SegmentKind.DRIVE, -1000.0, 20.0, None], [1.0000005, SegmentKind.IDLE, 0.0, 20.0, None]],
             initial_soc=0.5)
    def test_bad_input_fails_with_a_message(self, rows, initial_soc):
        try:
            profile = ScenarioProfile([ProfileRecord(*row) for row in rows])
        except ValueError:
            return
        config = ScenarioConfig(initial_soc=initial_soc)
        try:
            traj = run_scenario(config, profile)
        except RuntimeError as exc:
            assert re.match(r"(plant step|strategy) failed at step \d+ \(t=", str(exc))
        else:
            # a run that completes covers its whole profile, to within the
            # slack of whole_steps: a rest that small is rounding, not a tail
            end, slack = profile.records[-1].t_s, _WHOLE_STEPS_TOL * config.dt_s
            assert traj.t_s[-1] == pytest.approx(end, abs=slack) if traj.n_rows else profile.duration_s <= slack

    @pytest.mark.parametrize("table", ["r1", "ocv"])
    def test_zero_table_fails_at_the_first_step(self, data_dir, tmp_path, table):
        # a zero r1 divides in the RC decay, a zero ocv in the drive current
        for path in data_dir.glob("*.csv"):
            shutil.copy(path, tmp_path)
        head, *body = (tmp_path / f"{table}.csv").read_text().split()
        zeroed = [row.split(",")[0] + ",0" * row.count(",") for row in body]
        (tmp_path / f"{table}.csv").write_text("\n".join([head, *zeroed]) + "\n")
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -10000.0, 20.0),
                ProfileRecord(60.0, SegmentKind.IDLE, 0.0, 20.0),
            ]
        )
        message = r"^plant step failed at step 0 \(t=0\.0 s\): ZeroDivisionError: "
        with pytest.raises(RuntimeError, match=message):
            run_scenario(ScenarioConfig(data_dir=tmp_path), profile)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("target, k", INJECTIONS)
    def test_a_non_finite_plant_value_fails_its_step(self, monkeypatch, target, k, bad):
        # the plant layers do not check their values; the engine's one check
        # per step must still name the step a bad value enters
        original = {name: getattr(evplant.engine, name) for name in ("operating_point", "gate_current", "step_ecm")}
        steps = []

        def hit(name):
            return target == name and len(steps) == k + 1

        def operating_point(*args):
            steps.append(None)
            point = original["operating_point"](*args)
            return tuple(bad if hit(name) else value for name, value in zip(POINT_ORDER, point))

        def gate_current(*args):
            gate = original["gate_current"](*args)
            return gate._replace(allowed_current=bad) if hit("current") else gate

        def step_ecm(*args):
            state, v_cell, heat, clipped = original["step_ecm"](*args)
            return state, v_cell, bad if hit("heat") else heat, clipped

        monkeypatch.setattr(evplant.engine, "operating_point", operating_point)
        monkeypatch.setattr(evplant.engine, "gate_current", gate_current)
        monkeypatch.setattr(evplant.engine, "step_ecm", step_ecm)
        message = rf"^plant step failed at step {k} \(t={k}\.0 s\): ValueError: non-finite plant state: soc="
        with pytest.raises(RuntimeError, match=message):
            run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0), mixed_profile())



# (config, profile) per pinned scenario and the digest of its trajectory
PINNED = {
    # drive with the cooling loop running, then idle, CC-CV charge and idle
    "mixed": (
        ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0),
        mixed_profile(),
        "47b439137f7a247772af1e0ee20d62520d9ea818477eb3d54a8babe58356b8f6",
    ),
    # plugged at -10 degC ambient from a -5 degC pack: the heater floor holds it at 0 degC
    "cold_plugged": (
        ScenarioConfig(initial_soc=0.3, initial_temp_c=-5.0),
        charge_profile(duration=1200.0, power=4140.0, ambient=-10.0),
        "372e6efd6eeb87de3a115c0af4ef95107124e49ca1d2cf9e9bfef169191c5ce9",
    ),
    # dt = 60 s with aging and rainflow on every step, as in a lifetime study
    "aging_day": (
        ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.7),
        aging_day_profile(),
        "4bdd4dc0d675d3459ec600d3ce3bf0f74f899b8667955e8a7f14880257bccc73",
    ),
    # the mixed run on the r1_halved_dir tables, whose r1 cells each span two
    # union cells: every union cell holds r1 as a run of its own, which
    # splits the other R/C tables' run in two
    "r1_halved": (
        ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0, aging_data_dir=default_data_dir()),
        mixed_profile(),
        "a3d216edb5e34c5ac27d0948803dd5ff3fa66b32f6f8bea3eb8c00b2c3569ebb",
    ),
    # a drive from a -20 degC pack, below the OCV grid's -5 degC edge, which
    # the R/C grid reaches past: until the pack warms past -5 degC, each union
    # cell holds two runs, the OCV table fixed at its edge and the R/C tables
    "cold_drive": (
        ScenarioConfig(initial_soc=0.8, initial_temp_c=-20.0),
        ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -15000.0, -20.0, None),
                ProfileRecord(1200.0, SegmentKind.IDLE, 0.0, -20.0, None),
            ]
        ),
        "56a827ae6f8d65b2565ad84f17764c4bbb338303f772bc390198271401457686",
    ),
    # dt = 2 s aging every 6 s over 305 s: 152 whole steps, which 3 does not
    # divide, and a 1 s tail; a short drive, a charge that trips soc_high and
    # a warm idle that lifts the pack past t_max_c (temp_envelope)
    "tail_cadence": (
        ScenarioConfig(
            dt_s=2.0,
            aging_interval_s=6.0,
            initial_soc=0.95,
            initial_temp_c=20.0,
            bms=BmsLimits(t_max_c=20.5),
        ),
        ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -3000.0, 20.0, None),
                ProfileRecord(20.0, SegmentKind.PLUGGED, 11040.0, 20.0, None),
                ProfileRecord(200.0, SegmentKind.IDLE, 0.0, 40.0, None),
                ProfileRecord(305.0, SegmentKind.IDLE, 0.0, 40.0, None),
            ]
        ),
        "c22b0223faf991c0df7f914026c03bf5136abd5516aba28a224182b1121d8464",
    ),
}

# Union cells built and box misses (GridLookup._locate calls) per pinned
# run, over all its lookups. A lookup looks a cell up only when its clamped
# point leaves the memo's cell, and builds each cell once, so a memo that
# lets its cell go stale shows here as more misses.
RELOCATIONS = {
    "aging_day": (20, 30),
    "cold_drive": (14, 14),
    "cold_plugged": (4, 4),
    "mixed": (9, 11),
    "r1_halved": (9, 11),
    "tail_cadence": (4, 5),
}


def run_pinned(name: str, r1_halved_dir: Path) -> Trajectory:
    config, profile, _ = PINNED[name]
    if name == "r1_halved":
        config = dataclasses.replace(config, data_dir=r1_halved_dir)
    return run_scenario(config, profile)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectory_matches_pinned_digest(name, r1_halved_dir):
    assert trajectory_digest(run_pinned(name, r1_halved_dir)) == PINNED[name][2]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_run_relocates_its_grid_cells_no_more_often(name, r1_halved_dir, monkeypatch):
    locate, build = GridLookup._locate, GridLookup._build
    misses, built = [], []

    def counting_locate(lookup, s, t):
        misses.append((s, t))
        return locate(lookup, s, t)

    def counting_build(lookup, i, j):
        built.append((lookup, i, j))
        return build(lookup, i, j)

    monkeypatch.setattr(GridLookup, "_locate", counting_locate)
    monkeypatch.setattr(GridLookup, "_build", counting_build)
    run_pinned(name, r1_halved_dir)
    assert len(set(built)) == len(built), "a union cell was built twice"
    assert (len(built), len(misses)) == RELOCATIONS[name]


@st.composite
def recorded_runs(draw):
    """A config and a profile of 1-3 segments, whole steps or with a tail, aging every 1-4 steps."""
    dt = draw(st.sampled_from([1.0, 2.0, 5.0]))
    config = ScenarioConfig(
        dt_s=dt,
        control_interval_s=dt * draw(st.integers(1, 5)),
        aging_interval_s=dt * draw(st.integers(1, 4)),
        initial_soc=draw(st.floats(0.05, 0.95)),
        initial_temp_c=draw(st.floats(0.0, 40.0)),
    )
    n = draw(st.integers(1, 3))
    starts = sorted(draw(st.lists(st.integers(1, 60), min_size=n - 1, max_size=n - 1, unique=True)))
    powers = {SegmentKind.DRIVE: st.floats(-30_000.0, 0.0), SegmentKind.PLUGGED: st.floats(0.0, 11_040.0)}
    records = []
    for start in [0, *starts]:
        kind = draw(st.sampled_from(SegmentKind))
        records.append(ProfileRecord(start * dt, kind, draw(powers.get(kind, st.just(0.0))), 20.0, None))
    end = (starts[-1] if starts else 0) + draw(st.integers(1, 60))
    tail = draw(st.sampled_from([0.0, 0.25, 0.5]))
    records.append(ProfileRecord((end + tail) * dt, SegmentKind.IDLE, 0.0, 20.0, None))
    return config, ScenarioProfile(records)


@settings(max_examples=40, deadline=None)
@given(run=recorded_runs())
def test_recorded_columns_follow_the_plant_state(run):
    # v_pack and p_dc are products of the step's own values, and the aging
    # columns move only where an aging interval closes, or on the last row
    config, profile = run
    traj = run_scenario(config, profile)

    def bits(column):
        return np.ascontiguousarray(column, dtype=np.float64).view(np.int64)

    assert np.array_equal(bits(traj.v_pack), bits(N_SERIES * traj.v_cell))
    assert np.array_equal(bits(traj.p_dc), bits(traj.i_dc * traj.v_pack))
    aging_every = round(config.aging_interval_s / config.dt_s)
    n_whole, _ = whole_steps(profile.duration_s, config.dt_s)
    closes = [(k + 1) % aging_every == 0 and k < n_whole for k in range(traj.n_rows)]
    closes[-1] = True
    for name, start in (("c_norm", 1.0), ("r_norm", 1.0), ("eqfc", 0.0)):
        column = bits(getattr(traj, name))
        moved = column != np.concatenate((bits([start]), column[:-1]))
        assert not np.any(moved & ~np.array(closes)), name


class TestMetrics:
    def test_identical_trajectories_have_zero_error(self):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=600.0))
        metrics = compute_metrics(traj, traj)
        assert metrics.rmse_cell_voltage_mv == 0.0
        assert metrics.max_abs_error_cell_voltage_mv == 0.0
        assert metrics.rmse_pack_temp_k == 0.0

    def test_constant_offset(self):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=600.0))
        shifted = dataclasses.replace(traj, v_cell=traj.v_cell + 0.010)
        metrics = compute_metrics(shifted, traj)
        assert metrics.rmse_cell_voltage_mv == pytest.approx(10.0, rel=1e-9)
        assert metrics.max_abs_error_cell_voltage_mv == pytest.approx(10.0, rel=1e-9)
        assert metrics.rmse_cell_voltage_mv <= metrics.max_abs_error_cell_voltage_mv

    def test_no_overlap_is_an_error(self):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=120.0))
        late = dataclasses.replace(traj, t_s=traj.t_s + 1e6)
        with pytest.raises(ValueError, match="overlap"):
            compute_metrics(traj, late)
        for sim, ref in ((Trajectory.empty(), traj), (traj, Trajectory.empty())):
            with pytest.raises(ValueError, match="^cannot compute metrics on an empty trajectory$"):
                compute_metrics(sim, ref)

    @pytest.mark.parametrize("name", ["simulation", "reference"])
    @pytest.mark.parametrize(
        "t_s, message",
        [
            ([1.0, 3.0, 2.0, 4.0], "row 3 has t_s = 2.0 after 3.0"),
            ([1.0, 2.0, 2.0, 4.0], "row 3 has t_s = 2.0 after 2.0"),
            ([1.0, 2.0, math.nan, 4.0], "row 3 has t_s = nan after 2.0"),
        ],
    )
    def test_times_must_increase(self, name, t_s, message):
        # two swapped reference rows gave an RMSE of 212.1 mV in place of 380.8 mV, without a word
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=4.0))
        bad = dataclasses.replace(traj, t_s=np.array(t_s))
        sim, ref = (bad, traj) if name == "simulation" else (traj, bad)
        full = f"{name} trajectory: t_s must increase, but {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(full)}$"):
            compute_metrics(sim, ref)

    def test_integrals(self):
        t = np.arange(1.0, 101.0)
        const = Trajectory(
            t_s=t,
            soc=np.full(100, 0.5),
            v_cell=np.full(100, 3.7),
            v_pack=np.full(100, 344.1),
            i_dc=np.full(100, 10.0),
            t_pack=np.full(100, 25.0),
            p_ac=np.zeros(100),
            p_dc=np.zeros(100),
            c_norm=np.ones(100),
            r_norm=np.ones(100),
            eqfc=np.zeros(100),
            flags=["idle"] * 100,
        )
        metrics = compute_metrics(const, const)
        # rows hold each step's constant current, stamped at the step's end
        assert metrics.charge_ah == pytest.approx(10.0 * 100.0 / 3600.0, rel=1e-12)
        assert metrics.energy_kwh == pytest.approx(10.0 * 344.1 * 100.0 / 3.6e6, rel=1e-12)
        assert metrics.duration_min == pytest.approx(99.0 / 60.0, rel=1e-12)

    def test_integrals_on_a_non_uniform_grid(self, tmp_path):
        # each row covers the time since the previous row; the first row
        # takes the second row's width: 10 A for 1 + 1 + 2 + 4 s
        n = 4
        traj = Trajectory(
            t_s=np.array([1.0, 2.0, 4.0, 8.0]),
            soc=np.full(n, 0.5),
            v_cell=np.full(n, 3.7),
            v_pack=np.full(n, 344.1),
            i_dc=np.full(n, 10.0),
            t_pack=np.full(n, 25.0),
            p_ac=np.zeros(n),
            p_dc=np.full(n, 3441.0),
            c_norm=np.ones(n),
            r_norm=np.ones(n),
            eqfc=np.zeros(n),
            flags=["plugged"] * n,
        )
        metrics = compute_metrics(traj, traj)
        assert metrics.charge_ah == pytest.approx(80.0 / 3600.0, rel=1e-12)
        assert metrics.energy_kwh == pytest.approx(80.0 * 344.1 / 3.6e6, rel=1e-12)
        _, summary = emit_report(traj, None, tmp_path)
        assert f"charge_ah = {80.0 / 3600.0!r}" in summary.read_text().splitlines()
        assert f"dc_energy_kwh = {8.0 * 3441.0 / 3.6e6!r}" in summary.read_text().splitlines()


def _rowwise_csv(trajectory: Trajectory) -> bytes:
    """trajectory.csv as the row-by-row writer before the per-value one wrote it."""
    float_columns = [getattr(trajectory, name) for name in FLOAT_COLUMNS]
    lines = [TRAJECTORY_HEADER]
    for start in range(0, trajectory.n_rows, 1024):
        stop = start + 1024
        block = np.column_stack([c[start:stop] for c in float_columns]).tolist()
        flags = trajectory.flags[start:stop]
        lines += (",".join(map(repr, row)) + "," + f for row, f in zip(block, flags))
    return ("\n".join(lines) + "\n").encode()


# a subnormal, the smallest subnormal and values near the float64 limits
EDGE_FLOATS = [0.0, -0.0, 1e-310, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]


@st.composite
def report_trajectory(draw):
    """A trajectory over a few write blocks whose columns repeat a few values.

    One column holds -0.0 next to 0.0, one is int-typed and one is a
    strided view.
    """
    n = draw(st.integers(0, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = st.floats() | st.sampled_from(EDGE_FLOATS)
    columns = {}
    for name in FLOAT_COLUMNS:
        pool = np.array(draw(st.lists(value, min_size=1, max_size=6)))
        columns[name] = pool[rng.integers(0, len(pool), n)]
    columns["p_ac"][n // 2 : n // 2 + 2] = [-0.0, 0.0][: n - n // 2]
    ints = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4)), dtype=np.int64)
    columns["eqfc"] = ints[rng.integers(0, len(ints), n)]
    strided = np.empty(2 * n)
    strided[::2] = columns["v_pack"]
    columns["v_pack"] = strided[::2]
    flags = draw(st.lists(st.text("abc|_ ", max_size=8), min_size=1, max_size=4))
    return Trajectory(**columns, flags=[flags[i] for i in rng.integers(0, len(flags), n)])


class TestReports:
    @settings(max_examples=40, deadline=None)
    @given(traj=report_trajectory())
    def test_writer_matches_the_row_by_row_writer(self, traj, tmp_path_factory):
        # the writer itself: emit_report refuses the unordered and NaN times drawn here
        path = tmp_path_factory.mktemp("out") / "trajectory.csv"
        evplant.engine._write_trajectory(traj, path)
        assert path.read_bytes() == _rowwise_csv(traj)

    @pytest.mark.parametrize(
        "i_dc, charge_ah",
        [
            pytest.param([math.inf, 1.0, -math.inf], math.nan, id="inf-minus-inf"),
            pytest.param([1e308, 1e308, 1e308], math.inf, id="overflow"),
        ],
    )
    def test_summary_sums_of_non_finite_currents(self, tmp_path, i_dc, charge_ah):
        # warnings fail the test run, so a stray NumPy RuntimeWarning fails this too
        n = len(i_dc)
        traj = Trajectory(*(np.ones(n) for _ in FLOAT_COLUMNS), flags=["drive"] * n)
        traj.t_s = np.arange(1.0, n + 1.0)
        traj.i_dc = np.array(i_dc)
        _, summary = emit_report(traj, None, tmp_path)
        assert f"charge_ah = {charge_ah!r}" in summary.read_text().splitlines()
        metrics = compute_metrics(traj, traj)
        assert repr(metrics.charge_ah) == repr(charge_ah)

    def test_scenario_report_matches_the_row_by_row_writer(self, tmp_path):
        traj = run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0), mixed_profile())
        path = emit_report(traj, None, tmp_path)[0]
        assert path.read_bytes() == _rowwise_csv(traj)

    def test_emit_and_read_roundtrip(self, tmp_path):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, mixed_profile())
        paths = emit_report(traj, None, tmp_path / "out")
        assert [p.name for p in paths] == ["trajectory.csv", "summary.txt"]
        back = read_trajectory(paths[0])
        assert back.n_rows == traj.n_rows
        np.testing.assert_array_equal(back.t_s, traj.t_s)
        np.testing.assert_array_equal(back.v_cell, traj.v_cell)
        np.testing.assert_array_equal(back.eqfc, traj.eqfc)
        assert back.flags == traj.flags

    def test_summary_contents(self, tmp_path):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=600.0))
        _, summary = emit_report(traj, compute_metrics(traj, traj), tmp_path / "out")
        text = summary.read_text()
        for key in ("charge_ah", "ac_energy_kwh", "eol_status", "rmse_cell_voltage_mv"):
            assert key in text
        assert "eol_status = ok" in text

    def test_report_refuses_times_out_of_order(self, tmp_path):
        # in this order the step sums would weigh one row by a negative width
        n = 4
        traj = Trajectory(*(np.ones(n) for _ in FLOAT_COLUMNS), flags=["plugged"] * n)
        traj.t_s = np.array([1.0, 3.0, 2.0, 4.0])
        traj.i_dc = np.full(n, 10.0)
        message = "trajectory: t_s must increase, but row 3 has t_s = 2.0 after 3.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_report(traj, None, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_one_row_report_has_no_step_width(self, tmp_path):
        # a row's width is the time since the row before it, and the one row has none
        traj = Trajectory.from_rows([(1.0, 0.5, 3.7, 344.1, 10.0, 25.0, 4000.0, 3441.0, 1.0, 1.0, 0.0)], ["plugged"])
        lines = emit_report(traj, None, tmp_path / "out")[1].read_text().splitlines()
        for key in ("charge_ah", "ac_energy_kwh", "dc_energy_kwh"):
            assert f"{key} = 0.0" in lines

    def test_empty_trajectory_report(self, tmp_path):
        paths = emit_report(Trajectory.empty(), None, tmp_path / "out")
        assert paths[0].read_text().count("\n") == 1  # header only


def fixture_run() -> Trajectory:
    config = ScenarioConfig(initial_soc=0.85, initial_temp_c=20.0)
    return run_scenario(config, charge_profile(duration=1800.0), make_constant_strategy(11040.0))


class TestRegressionFixture:
    def test_replay_matches_pinned_fixture(self):
        reference = read_trajectory(REGRESSION_DIR / "trajectory.csv")
        metrics = compute_metrics(fixture_run(), reference)
        assert metrics.rmse_cell_voltage_mv == 0.0
        assert metrics.rmse_pack_temp_k == 0.0

    def test_replay_stays_near_the_seed_fixture(self):
        # the seed fixture was written with an explicit-Euler thermal step;
        # the exact step moves the pack temperature, and through it the cell
        # parameters, by less than these bounds
        seed = read_trajectory(REGRESSION_DIR / "seed_trajectory.csv")
        traj = fixture_run()
        assert traj.flags == seed.flags
        assert np.max(np.abs(traj.v_cell - seed.v_cell)) <= 0.1e-3
        assert np.max(np.abs(traj.t_pack - seed.t_pack)) <= 0.01

    def test_documented_accuracy_band_brackets_a_constant_offset(self):
        # the fixture metadata records the accuracy class the plant model
        # targets; a 25 mV synthetic offset lands inside that band
        meta = dict(
            line.split(" = ")
            for line in (REGRESSION_DIR / "metadata.txt").read_text().splitlines()
            if " = " in line and not line.startswith("#")
        )
        low = float(meta["rmse_band_cell_mv_low"])
        high = float(meta["rmse_band_cell_mv_high"])
        assert (low, high) == (18.49, 67.17)
        reference = read_trajectory(REGRESSION_DIR / "trajectory.csv")
        shifted = dataclasses.replace(reference, v_cell=reference.v_cell + 0.025)
        metrics = compute_metrics(shifted, reference)
        assert low <= metrics.rmse_cell_voltage_mv <= high
