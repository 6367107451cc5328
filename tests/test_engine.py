"""Engine coupling: determinism, energy bookkeeping, metrics, reports."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import re
import shutil
import struct
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import evplant.aging
import evplant.charger
import evplant.engine
import evplant.params
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


def parked_day_profile(ambient=15.0):
    """One day parked: 24 h idle."""
    return ScenarioProfile(
        [ProfileRecord(0.0, SegmentKind.IDLE, 0.0, ambient), ProfileRecord(86400.0, SegmentKind.IDLE, 0.0, ambient)]
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


def profiled_step_calls(config: ScenarioConfig, profile: ScenarioProfile) -> tuple[int, int, Counter]:
    """A run's rows, its Python-level calls and its builtin (C) calls by name, from its first step_thermal on.

    Every step calls step_thermal, and no set-up does; an idle step at rest
    calls no operating_point, so a run that starts at rest calls none at first.
    """
    first_step = evplant.engine.step_thermal.__code__
    started = [False]
    calls = [0]
    builtins = Counter()

    def count(frame, event, arg):
        if event == "call":
            started[0] = started[0] or frame.f_code is first_step
            calls[0] += started[0]
        elif event == "c_call" and started[0]:
            builtins[getattr(arg, "__qualname__", repr(arg))] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        traj = run_scenario(config, profile)
    finally:
        sys.setprofile(previous)
    return traj.n_rows, calls[0], builtins


def stepped_strategy(*targets: tuple[float, float]):
    """Request each (end time, watts) target until its end time."""

    def strategy(obs: StrategyObservation) -> float:
        return next(w for t_end, w in targets if obs.t_s < t_end)

    return strategy


@st.composite
def profile_polls(draw):
    """1-5 record times, their powers (signed zeros and negatives included) and a poll time."""
    times = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5, unique=True)))
    powers = st.floats(-60_000.0, 60_000.0) | st.sampled_from([0.0, -0.0])
    values = draw(st.lists(powers, min_size=len(times), max_size=len(times)))
    return times, values, draw(st.sampled_from(times) | st.floats(-2e6, 2e6) | st.just(times[0] - 1.0))


# (config, profile, strategy, session start times) whose polls read the AC power
POLLED_CASES = {
    # up from 0 W, down, a 0 W set-point, then up from 0 W again
    "commands": (
        ScenarioConfig(initial_soc=0.3, initial_temp_c=20.0),
        charge_profile(duration=3600.0),
        stepped_strategy((900.0, 11040.0), (1800.0, 4140.0), (2700.0, 0.0), (math.inf, 6900.0)),
        {0.0},
    ),
    # a CV taper, then the soc_high trip holds the pack plugged at 0 A
    "cv_to_soc_high": (
        ScenarioConfig(initial_soc=0.9, initial_temp_c=20.0),
        charge_profile(duration=1200.0),
        strategy_max_power,
        {0.0},
    ),
    # the one-phase record starts a new session while plugged
    "mode_change": (
        ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0),
        ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.PLUGGED, 11040.0, 20.0, ChargerMode.THREE_PHASE),
                ProfileRecord(1800.0, SegmentKind.PLUGGED, 2900.0, 20.0, ChargerMode.ONE_PHASE),
                ProfileRecord(3600.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        ),
        strategy_max_power,
        {0.0, 1800.0},
    ),
}


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

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_run_memory_is_under_twice_what_it_returns(self, n, traced_peak):
        # each step stores its values in place in a preallocated table, so the
        # peak is the trajectory and its derived columns' temporaries, 1.6-1.7
        # times what the run keeps; float objects per value made it 3.7-3.9
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -15000.0, 20.0, None),
                ProfileRecord(n / 4.0, SegmentKind.PLUGGED, 11040.0, 20.0, None),
                ProfileRecord(float(n), SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0, aging_interval_s=1.0)
        traj, peak, kept = traced_peak(lambda: run_scenario(config, profile))
        assert traj.n_rows == n
        assert peak < 2 * kept, (peak, kept)

    def test_rows_with_equal_flags_share_one_string(self, traced_peak):
        # plugged above soc_max in 40 degC air: every step's gate trips, and
        # the pack leaves a 25 degC envelope after 880 steps. A new
        # string per marked or out-of-envelope row kept 183 B per row and
        # peaked at 205 B; one per distinct value keeps 100 B and peaks at 134 B
        n = 4096
        profile = charge_profile(duration=float(n), ambient=40.0)
        config = ScenarioConfig(initial_soc=0.96, initial_temp_c=20.0, bms=BmsLimits(t_max_c=25.0))
        run_scenario(config, profile)
        traj, peak, kept = traced_peak(lambda: run_scenario(config, profile))
        counts = Counter(traj.flags)
        assert sum(count for flags, count in counts.items() if flags != "plugged") >= 4000, counts
        assert sum(count for flags, count in counts.items() if flags.endswith("|temp_envelope")) >= 3000, counts
        assert len({id(flags) for flags in traj.flags}) == len(counts)
        assert kept < 140 * n, kept
        assert peak < 170 * n, peak

    def test_a_run_leaves_nothing_for_a_full_collection_to_free(self, traced_peak):
        # plugged above soc_max, every step's gate says soc_high. A tuple per
        # marked step went to CPython's tuple free list when the run returned
        # and stayed there until a full collection: 141,896 B freed by
        # gc.collect() here, against 15,488 B with the marks in a uint8 row
        config = ScenarioConfig(initial_soc=0.96, initial_temp_c=20.0)
        run_scenario(config, charge_profile(duration=60.0))

        def run_then_collect():
            traj = run_scenario(config, charge_profile(duration=3000.0))
            held = tracemalloc.get_traced_memory()[0]
            gc.collect()
            return traj, held - tracemalloc.get_traced_memory()[0]

        (traj, freed), _, _ = traced_peak(run_then_collect)
        # more marked steps than the 2,000 tuples the free list holds
        assert sum(flags == "plugged|soc_high" for flags in traj.flags) > 2000
        assert freed < 64 * 1024, freed

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

    @pytest.mark.parametrize("t0, t_end, dt", [(0.0, 2.1, 0.7), (8_640_000.0, 8_640_374.8, 0.2)])
    def test_the_last_row_ends_at_the_profile_end(self, t0, t_end, dt):
        # both spans are whole steps only within the whole-step slack: the
        # step grid ends at 2.0999999999999996 and at 8640374.799999999
        config, profile = grid_run(t0, t_end, dt)
        traj = run_scenario(config, profile)
        n, tail = whole_steps(profile.duration_s, dt)
        grid_end = (t0 + (n - 1) * dt) + dt
        assert (traj.n_rows, tail) == (n, 0.0) and grid_end != t_end
        assert traj.t_s[-1] == t_end
        assert abs(traj.t_s[-1] - grid_end) <= _WHOLE_STEPS_TOL * dt
        assert traj.t_s[-2] == (t0 + (n - 2) * dt) + dt

    def test_strategy_off_draws_nothing(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=120.0), strategy_off)
        assert np.all(traj.i_dc == 0.0)
        assert np.all(traj.p_ac == 0.0)

    def test_plugged_step_looks_up_parameters_once(self, monkeypatch, cold_loaders):
        grids, points = [], []
        interpolate, lookup = ParamGrid.interpolate, GridLookup.at

        def counting_interpolate(grid, soc, temp):
            grids.append(grid.name)
            return interpolate(grid, soc, temp)

        def counting_lookup(grid_lookup, soc, temp):
            if grid_lookup.label == "cell parameters":
                points.append((soc, temp))
            return lookup(grid_lookup, soc, temp)

        monkeypatch.setattr(ParamGrid, "interpolate", counting_interpolate)
        monkeypatch.setattr(GridLookup, "at", counting_lookup)
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=300.0))
        assert traj.n_rows == 300 and traj.p_ac.max() > 0
        assert len(points) == 300
        # the only electrical-table read outside the fused lookup: the initial rest voltage
        assert [name for name in grids if name in PARAM_NAMES] == ["ocv"]


    def test_each_step_calls_the_traced_plant_functions_once(self, monkeypatch):
        # the loop calls each of these names in evplant.engine once per step
        # that is not at rest (gate_current once per driving or plugged
        # step); the mixed profile at dt = 1 s never reaches rest. The
        # benchmark's tracer wraps three of them there and counts their calls
        # as a layer's: step_ecm as ecm (with voltage_prediction_coeffs and
        # rest_voltage), step_thermal as thermal and gate_current as bms. It
        # does not wrap operating_point; that name is pinned because the
        # non-finite injection test replaces it by this name, and step_thermal
        # because the call-budget tests start counting at its first call.
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

    def test_an_idle_step_at_rest_calls_neither_operating_point_nor_step_ecm(self, monkeypatch):
        # parked from a relaxed EcmState(soc), then a drive, then idle again:
        # every step calls step_thermal, and an idle step whose RC voltages
        # are both zero steps on rest_step alone, the rest through
        # operating_point and step_ecm, until the idle cell relaxes again
        calls = Counter()
        rested = []

        def counting(name):
            original = getattr(evplant.engine, name)

            def wrapper(*args):
                calls[name] += 1
                result = original(*args)
                if name == "rest_step":
                    assert args[0][1:] == (0.0, 0.0)
                    # the step's index: each step is a rest step or a full one
                    rested.append(len(rested) + calls["step_ecm"])
                elif name == "step_ecm":
                    # a full step never starts idle at rest: the drive's first step has current
                    assert args[0][1:] != (0.0, 0.0) or args[2] != 0.0
                return result

            return wrapper

        for name in ("operating_point", "step_ecm", "rest_step", "step_thermal"):
            monkeypatch.setattr(evplant.engine, name, counting(name))
        config = ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.6)
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 15.0),
                ProfileRecord(3600.0, SegmentKind.DRIVE, -9000.0, 15.0),
                ProfileRecord(5400.0, SegmentKind.IDLE, 0.0, 15.0),
                ProfileRecord(86400.0, SegmentKind.IDLE, 0.0, 15.0),
            ]
        )
        traj = run_scenario(config, profile)
        assert traj.n_rows == calls["step_thermal"] == 1440
        assert calls["operating_point"] == calls["step_ecm"]
        assert calls["rest_step"] + calls["step_ecm"] == 1440
        # the first hour rests from step 0; the drive (steps 60-89) and the
        # relaxation after it do not, and once relaxed the cell stays at rest
        relaxed = rested[60]
        assert rested == [*range(60), *range(relaxed, 1440)] and relaxed > 90
        # at rest, v_cell is the OCV where the step starts, and SOC and the flags stand still
        ocv = evplant.params.load_parameter_set(default_data_dir()).ocv
        for k in range(relaxed, 1440):
            assert traj.v_cell[k] == ocv.interpolate(traj.soc[k - 1], traj.t_pack[k - 1])
        assert np.all(traj.soc[relaxed:] == traj.soc[relaxed - 1])
        assert set(traj.flags[relaxed:]) == {"idle"}

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

    @pytest.mark.parametrize(
        "profile, bound",
        [
            pytest.param(aging_day_profile(), 8.3, id="aging_day"),
            pytest.param(parked_day_profile(), 5.1, id="parked_day"),
        ],
    )
    def test_step_stays_within_its_python_call_budget(self, profile, bound, cold_loaders):
        # Python-level calls per step of a day of drives, charging and idle,
        # with aging and rainflow on every step: one frame per layer, an
        # observation built straight from a tuple, a charge command with no
        # __post_init__, one straight-line evaluator call per lookup that
        # leaves its memo, no rainflow feed while the SOC stands still, a
        # mark's code found without an Enum __hash__ frame and an idle step
        # at rest with no operating point and no step_ecm, only the OCV
        # lookup and rest_step, make 8.13 on CPython 3.11 with every union
        # cell built in the run (8.67 with every idle step a full step, 8.88
        # with the hash as well). A day parked from a relaxed state, every
        # step at rest, makes 5.04 (6.04 with full steps). Run set-up is not
        # counted: counting starts at the first step_thermal, which every
        # step calls. The loaders start cold, so the count does not depend
        # on what earlier tests built.
        config = ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.7)
        rows, calls, _ = profiled_step_calls(config, profile)
        assert rows == 1440
        assert calls / rows <= bound

    @pytest.mark.parametrize(
        "config, profile, bound",
        [
            pytest.param(
                ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.7),
                aging_day_profile(),
                7.0,
                id="aging_day",
            ),
            pytest.param(ScenarioConfig(), charge_profile(duration=1800.0), 8.0, id="charging"),
            pytest.param(
                ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.7),
                parked_day_profile(),
                4.1,
                id="parked_day",
            ),
        ],
    )
    def test_step_stays_within_its_c_call_budget(self, config, profile, bound, cold_loaders):
        # builtin (C) calls per step, the profiler's c_call events from the
        # first step_thermal on. The step clamps with comparisons, so no
        # min, max or abs is left on its path, a marked step finds its code
        # with one list.index, step_ecm returns its state as a plain tuple,
        # with no tuple.__new__, and an idle step at rest calls no exp. What
        # is left is mostly the three isfinite checks, two exp and one expm1
        # per full step, tuple.__new__ for a passed gate, and bisect_right
        # where a lookup leaves its cell: 6.84 on the aging day, 7.68 while
        # charging and 4.05 on the parked day on CPython 3.11 (7.89, 7.68
        # and 6.05 with every idle step a full step; 8.93 and 8.71 with the
        # state built as an EcmState, 10.10 and 12.86 with the builtin
        # clamps), with the loaders cold. A failure names the builtins that
        # cost the most per step.
        rows, _, builtins = profiled_step_calls(config, profile)
        per_step = sum(builtins.values()) / rows
        top = ", ".join(f"{name} {n / rows:.2f}" for name, n in builtins.most_common(6))
        assert per_step <= bound, f"{per_step:.2f} C calls per step; per step, the most: {top}"

    def test_an_aging_point_feeds_the_rainflow_counter_only_a_soc_that_moved(self, monkeypatch):
        # the counter ignores a sample equal to its last one, so a run feeds
        # it the first aging point's SOC and after that only a SOC that
        # moved: the idle stretches and the evening plugged at soc_high with
        # 0 A feed nothing
        original = evplant.engine.cycle_accumulate
        fed = []

        def cycle_accumulate(state, soc_sample, coeffs):
            fed.append(soc_sample)
            return original(state, soc_sample, coeffs)

        monkeypatch.setattr(evplant.engine, "cycle_accumulate", cycle_accumulate)
        config = ScenarioConfig(dt_s=60.0, control_interval_s=60.0, aging_interval_s=60.0, initial_soc=0.7)
        traj = run_scenario(config, aging_day_profile())
        # an aging point on every step, and no time left to book after the last
        assert traj.n_rows == 1440
        moved = np.flatnonzero(np.diff(traj.soc)) + 1
        assert fed == [traj.soc[0], *traj.soc[moved]]
        assert len(fed) < traj.n_rows / 10

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

    @given(poll=profile_polls())
    @example(poll=([0.0, 10.0, 20.0], [-0.0, -500.0, 0.0], -5.0))
    def test_profile_strategy_requests_the_builtin_clamp(self, poll):
        # the request is max(0.0, value_w) of the last record at or before
        # the poll, and of the first record before it, bit for bit: a zero
        # or negative value_w requests 0.0
        times, values, t = poll
        records = [ProfileRecord(ts, SegmentKind.PLUGGED, w, 20.0) for ts, w in zip(times, values)]
        strategy = evplant.engine.make_profile_strategy(ScenarioProfile(records))
        expected = max(0.0, records[max(bisect_right(times, t) - 1, 0)].value_w)
        obs = StrategyObservation(t, 0.5, 20.0, True, 0.0, (0.0, 11040.0))
        assert struct.pack("<d", strategy(obs)) == struct.pack("<d", expected)

    @settings(max_examples=30, deadline=None)
    @given(
        segments=st.lists(st.tuples(st.sampled_from(SegmentKind), st.integers(1, 15)), min_size=1, max_size=5),
        control_every=st.integers(1, 6),
    )
    @example(segments=[(SegmentKind.DRIVE, 7), (SegmentKind.PLUGGED, 9), (SegmentKind.PLUGGED, 8)], control_every=5)
    def test_polls_fall_on_session_starts_and_the_control_grid(self, segments, control_every):
        # a plugged step polls when it starts a session or when its index k
        # is on the control grid, k % control_every == 0, whatever step the
        # session started on
        records, expected, k, plugged = [], [], 0, False
        for kind, length in segments:
            power = {SegmentKind.PLUGGED: 11040.0, SegmentKind.DRIVE: -5000.0}.get(kind, 0.0)
            records.append(ProfileRecord(float(k), kind, power, 20.0))
            for first in range(k, k + length):
                if kind is SegmentKind.PLUGGED and ((first == k and not plugged) or first % control_every == 0):
                    expected.append(first)
            k += length
            plugged = kind is SegmentKind.PLUGGED
        records.append(ProfileRecord(float(k), SegmentKind.IDLE, 0.0, 20.0))
        polls = []

        def spy(obs: StrategyObservation) -> float:
            polls.append(obs.t_s)
            return 11040.0

        config = ScenarioConfig(control_interval_s=float(control_every), initial_soc=0.5, initial_temp_c=20.0)
        run_scenario(config, ScenarioProfile(records), spy)
        assert polls == [float(k) for k in expected]

    @pytest.mark.parametrize("dt, control", [(1.0, 10.0), (60.0, 60.0)])
    @pytest.mark.parametrize("case", sorted(POLLED_CASES))
    def test_poll_sees_the_last_rows_draw(self, case, dt, control):
        config, profile, strategy, session_starts = POLLED_CASES[case]
        config = dataclasses.replace(config, dt_s=dt, control_interval_s=control)
        polls = []

        def spy(obs: StrategyObservation) -> float:
            polls.append((obs.t_s, obs.ac_power_w))
            return strategy(obs)

        traj = run_scenario(config, profile, spy)
        assert len(polls) > 10
        for t, seen in polls:
            if t in session_starts:
                expected = 0.0
            else:
                # the poll of step k reads row k - 1, the step that ended at t
                expected = traj.p_ac[round(t / dt) - 1]
            assert np.float64(seen).view(np.int64) == np.float64(expected).view(np.int64), t
        # the polls read drawing rows, and partial draws: a ramp, a taper or a 0 W set-point
        highest = max(seen for _, seen in polls)
        assert highest > 0.0 and any(0.0 < seen < 0.99 * highest for _, seen in polls)

    def test_charger_inverse_runs_only_at_a_poll(self, monkeypatch):
        # the AC power of the rows is derived after the loop; in the loop a
        # poll that does not start a session converts the last step's draw
        config, profile, strategy, session_starts = POLLED_CASES["commands"]
        original = evplant.engine.dc_to_ac
        converted, polls = [], []

        def dc_to_ac(p_dc, config):
            converted.append(p_dc)
            return original(p_dc, config)

        def spy(obs: StrategyObservation) -> float:
            polls.append(obs.t_s)
            return strategy(obs)

        monkeypatch.setattr(evplant.engine, "dc_to_ac", dc_to_ac)
        traj = run_scenario(config, profile, spy)
        drawn_before = [t for t in polls if t not in session_starts and traj.p_dc[round(t) - 1] > 0]
        # of 360 polls, the session start at 0 s and the 90 polls from 1810 s
        # to 2700 s, after the 0 W command's 4 s delay, read no draw
        assert len(polls) == 360
        assert len(converted) == len(drawn_before) == 360 - 1 - 90
        assert traj.n_rows == 3600 and np.count_nonzero(traj.p_ac) > 2000

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
    """Bad input fails with a ``ValueError`` when the profile is built, and a
    run too large to hold before its first step; a step fails only with a
    ``RuntimeError`` that names it."""

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

    def test_a_run_too_large_to_hold_fails_with_a_message(self):
        # 1e15 steps, 32 PB of tables: no address space holds them, so the
        # allocation fails at once; it used to escape as a MemoryError
        profile = ScenarioProfile(
            [ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0), ProfileRecord(1e9, SegmentKind.IDLE, 0.0, 20.0)]
        )
        message = "a run of 1000000000000000 steps of dt_s = 1e-06 s is too large to hold in memory"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_scenario(ScenarioConfig(dt_s=1e-6), profile)

    @pytest.mark.parametrize(
        "table, first",
        [
            ("r1", SegmentKind.DRIVE),
            ("ocv", SegmentKind.DRIVE),
            # an idle cell starts at rest, but a zero R or C rules the rest step out
            ("r1", SegmentKind.IDLE),
            ("c2", SegmentKind.IDLE),
        ],
    )
    def test_zero_table_fails_at_the_first_step(self, data_dir, tmp_path, table, first):
        # a zero r1 or c2 divides in the RC decay, a zero ocv in the drive current
        for path in data_dir.glob("*.csv"):
            shutil.copy(path, tmp_path)
        head, *body = (tmp_path / f"{table}.csv").read_text().split()
        zeroed = [row.split(",")[0] + ",0" * row.count(",") for row in body]
        (tmp_path / f"{table}.csv").write_text("\n".join([head, *zeroed]) + "\n")
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, first, -10000.0 if first is SegmentKind.DRIVE else 0.0, 20.0),
                ProfileRecord(60.0, SegmentKind.IDLE, 0.0, 20.0),
            ]
        )
        message = r"^plant step failed at step 0 \(t=0\.0 s\): ZeroDivisionError: float division by zero$"
        with pytest.raises(RuntimeError, match=message):
            run_scenario(ScenarioConfig(data_dir=tmp_path), profile)

    @pytest.mark.parametrize(
        "table, rate, step, message",
        [
            # 1e308 per day: r_norm overflows to inf at the second daily
            # aging point, and r1 * r_norm * 0.0 makes v_cell NaN
            ("calendar_alpha_r", "1e308", 48, "ValueError: non-finite plant state: soc=0.5, v_cell=nan"),
            # 1.0 per day at the pack's temperature: c_norm is 0.0 after the
            # first daily aging point, and the SOC update divides by it
            ("calendar_alpha_c", "1.0", 24, "ZeroDivisionError: float division by zero"),
        ],
    )
    def test_a_parked_run_fails_where_its_aged_cell_breaks_the_step(
        self, data_dir, tmp_path, table, rate, step, message
    ):
        # every step rests, and a rest step must fail wherever the full step would
        for path in data_dir.glob("*.csv"):
            shutil.copy(path, tmp_path)
        head, *body = (tmp_path / f"{table}.csv").read_text().split()
        # the pack stays at 20 degC and reads the first (25 degC) column; the
        # columns after it rise, as alpha_c's must
        rows = [row.split(",")[0] + f",{rate}" + "".join(f",{k}" for k in range(2, row.count(",") + 1)) for row in body]
        (tmp_path / f"{table}.csv").write_text("\n".join([head, *rows]) + "\n")
        config = ScenarioConfig(dt_s=3600.0, control_interval_s=3600.0, aging_interval_s=86400.0, data_dir=tmp_path)
        profile = ScenarioProfile(
            [ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0), ProfileRecord(3 * 86400.0, SegmentKind.IDLE, 0.0, 20.0)]
        )
        expected = rf"^plant step failed at step {step} \(t={step * 3600}\.0 s\): {re.escape(message)}"
        with pytest.raises(RuntimeError, match=expected):
            run_scenario(config, profile)

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
    # from day 1 at t = 86,400.3 s in steps of 0.7 s, which round off the
    # grid (t0 + (k + 1) * dt moves 140 of the 700 end times); a charge from
    # SOC 0.999 clips SOC, then trips soc_high, and the pack cools below
    # t_min_c, so the run shows every kind of flag extra, two at once too
    "off_grid": (
        ScenarioConfig(
            dt_s=0.7,
            control_interval_s=7.0,
            aging_interval_s=7.0,
            initial_soc=0.999,
            initial_temp_c=22.0,
            c_pack_j_per_k=2000.0,
            bms=BmsLimits(soc_max=1.0, v_cell_max=5.0, t_min_c=21.0),
        ),
        ScenarioProfile(
            [
                ProfileRecord(86400.3, SegmentKind.PLUGGED, 11040.0, 20.0, None),
                ProfileRecord(86820.3, SegmentKind.IDLE, 0.0, 20.0, None),
                ProfileRecord(86890.3, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        ),
        "c3c699b55a5c4485b75d7b7100af3ec3ac7641160f031e0aeedd019d57fb419f",
    ),
}

# Union cells built and box misses (GridLookup._locate calls) per pinned
# run, per lookup by its label. A lookup looks a cell up only when its
# clamped point leaves the memo's cell, and builds each cell once, so a memo
# that lets its cell go stale shows here as more misses. Only aging_day has
# idle steps at rest, which read the one-table OCV lookup and not the fused
# one; its fused lookup visits the same cells at the other steps.
CELLS, OCV, CALENDAR, CYCLE = "cell parameters", "open-circuit voltage", "calendar rates", "cycle rates"
RELOCATIONS = {
    "aging_day": {CELLS: (14, 22), OCV: (2, 2), CALENDAR: (5, 7), CYCLE: (1, 1)},
    "cold_drive": {CELLS: (10, 10), CALENDAR: (3, 3), CYCLE: (1, 1)},
    "cold_plugged": {CELLS: (2, 2), CALENDAR: (1, 1), CYCLE: (1, 1)},
    "mixed": {CELLS: (7, 9), CALENDAR: (1, 1), CYCLE: (1, 1)},
    "off_grid": {CELLS: (2, 2), CALENDAR: (1, 1), CYCLE: (1, 1)},
    "r1_halved": {CELLS: (7, 9), CALENDAR: (1, 1), CYCLE: (1, 1)},
    "tail_cadence": {CELLS: (2, 3), CALENDAR: (1, 1), CYCLE: (1, 1)},
}


def run_pinned(name: str, r1_halved_dir: Path) -> Trajectory:
    config, profile, _ = PINNED[name]
    if name == "r1_halved":
        config = dataclasses.replace(config, data_dir=r1_halved_dir)
    return run_scenario(config, profile)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectory_matches_pinned_digest(name, r1_halved_dir):
    assert trajectory_digest(run_pinned(name, r1_halved_dir)) == PINNED[name][2]


def test_the_off_grid_run_shows_every_flag_extra(r1_halved_dir):
    flags = set(run_pinned("off_grid", r1_halved_dir).flags)
    assert {
        "plugged|soc_clip",
        "plugged|soc_high",
        "plugged|soc_high|temp_envelope",
        "plugged|temperature_fault|temp_envelope",
        "idle|temp_envelope",
    } <= flags


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_run_relocates_its_grid_cells_no_more_often(name, r1_halved_dir, monkeypatch, cold_loaders):
    locate, build = GridLookup._locate, GridLookup._build
    misses, built = Counter(), []

    def counting_locate(lookup, s, t):
        misses[lookup.label] += 1
        return locate(lookup, s, t)

    def counting_build(lookup, i, j):
        built.append((lookup, i, j))
        return build(lookup, i, j)

    monkeypatch.setattr(GridLookup, "_locate", counting_locate)
    monkeypatch.setattr(GridLookup, "_build", counting_build)
    run_pinned(name, r1_halved_dir)
    assert len(set(built)) == len(built), "a union cell was built twice"
    n_built = Counter(lookup.label for lookup, _, _ in built)
    assert {label: (n_built[label], misses[label]) for label in n_built | misses} == RELOCATIONS[name]


def test_pinned_runs_compile_one_evaluator_factory_per_layout(r1_halved_dir, monkeypatch, cold_loaders):
    monkeypatch.setattr(evplant.params, "_evaluators", {})
    for name in sorted(PINNED):
        run_pinned(name, r1_halved_dir)
    lookups = [
        getattr(built, name, None) for built in cold_loaders.values() for name in ("lookup", "ocv_lookup", "rates")
    ]
    layouts = [
        tuple(len(run[4]) for run in cell[4]) for lookup in filter(None, lookups) for cell in lookup.cells.values()
    ]
    # 47 union cells of five layouts: the six shipped tables in one run, ocv
    # fixed at its -5 degC edge apart from the R/C run, r1_halved's r1 apart
    # between ocv, r_ser and r2, c1, c2, each aging grid's two tables, and
    # the OCV table alone, which aging_day's idle steps at rest read in two cells
    assert len(layouts) == 47
    assert sorted(evplant.params._evaluators) == sorted(set(layouts)) == [(1,), (1, 5), (2,), (2, 1, 3), (6,)]


def test_runs_alternating_two_data_sets_keep_their_digests(r1_halved_dir):
    # the shipped tables and r1_halved_dir's share every file but r1.csv
    for name in ("mixed", "r1_halved", "mixed", "r1_halved"):
        assert trajectory_digest(run_pinned(name, r1_halved_dir)) == PINNED[name][2], name


def test_a_table_rewritten_between_two_runs_is_read_again(tmp_path, cold_loaders):
    # the rewrite keeps the file's size and time stamp: only its bytes tell
    data = tmp_path / "data"
    shutil.copytree(default_data_dir(), data)
    config, profile, digest = PINNED["mixed"]
    config = dataclasses.replace(config, data_dir=data)
    assert trajectory_digest(run_scenario(config, profile)) == digest
    r1 = data / "r1.csv"
    stat = r1.stat()
    r1.write_text(r1.read_text().replace("0.0020704", "0.0030704"))
    os.utime(r1, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert r1.stat().st_size == stat.st_size
    rewritten = trajectory_digest(run_scenario(config, profile))
    cold_loaders.clear()
    assert rewritten == trajectory_digest(run_scenario(config, profile)) != digest


def test_a_second_run_on_unchanged_files_parses_no_table(monkeypatch, cold_loaders):
    parsed = []
    load_grid, read_csv_rows = evplant.params.load_grid, evplant.charger.read_csv_rows

    def counting_load_grid(path, name, *data):
        parsed.append(name)
        return load_grid(path, name, *data)

    def counting_read_csv_rows(path, *args):
        parsed.append(Path(path).stem)
        return read_csv_rows(path, *args)

    monkeypatch.setattr(evplant.params, "load_grid", counting_load_grid)
    monkeypatch.setattr(evplant.aging, "load_grid", counting_load_grid)
    monkeypatch.setattr(evplant.charger, "read_csv_rows", counting_read_csv_rows)
    config, profile, digest = PINNED["aging_day"]
    assert trajectory_digest(run_scenario(config, profile)) == digest
    assert len(parsed) == 12
    parsed.clear()
    assert trajectory_digest(run_scenario(config, profile)) == digest
    assert parsed == []


def test_runs_on_copies_of_one_data_set_keep_one_set(tmp_path, traced_peak, cold_loaders):
    # the loaders key what they keep on the files' bytes, so runs on five
    # copies keep what runs on one do: one object per loader. The slack,
    # 8 KiB, is under a third of what each further copy would keep with
    # objects of its own (about 27 kB)
    copies = []
    for k in range(5):
        copies.append(tmp_path / f"copy{k}")
        shutil.copytree(default_data_dir(), copies[-1])
    config, profile = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0), charge_profile(duration=60.0)

    def kept_after_runs_on(directories):
        cold_loaders.clear()

        def runs():
            for directory in directories:
                run_scenario(dataclasses.replace(config, data_dir=directory), profile)

        return traced_peak(runs)[2]

    one = kept_after_runs_on(copies[:1] * 5)
    five = kept_after_runs_on(copies)
    assert len(cold_loaders) == 5
    assert five < one + 8 * 1024, (one, five)


@st.composite
def recorded_runs(draw):
    """A config and a profile of 1-3 segments, whole steps or with a tail, aging every 1-4 steps.

    Records start on quarter steps, so some start between two step starts,
    and two in one step leave the first without a step of its own.
    """
    dt = draw(st.sampled_from([1.0, 2.0, 5.0]))
    config = ScenarioConfig(
        dt_s=dt,
        control_interval_s=dt * draw(st.integers(1, 5)),
        aging_interval_s=dt * draw(st.integers(1, 4)),
        initial_soc=draw(st.floats(0.05, 0.95)),
        initial_temp_c=draw(st.floats(0.0, 40.0)),
    )
    n = draw(st.integers(1, 3))
    quarters = st.integers(4, 240).map(lambda q: q / 4)
    starts = sorted(draw(st.lists(quarters, min_size=n - 1, max_size=n - 1, unique=True)))
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
@given(run=recorded_runs(), t_min_c=st.floats(0.0, 30.0), width=st.floats(0.0, 15.0))
def test_recorded_columns_follow_the_plant_state(run, t_min_c, width):
    # v_pack and p_dc are products of the step's own values, the aging
    # columns move only where an aging interval closes, or on the last row,
    # and the flags start with the kind of the segment the step starts in
    # and end in |temp_envelope exactly when t_pack leaves a window that
    # some runs cross
    config, profile = run
    config = dataclasses.replace(config, bms=BmsLimits(t_min_c=t_min_c, t_max_c=t_min_c + width))
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
    t0, dt = profile.records[0].t_s, config.dt_s
    record_times = [record.t_s for record in profile.records]
    for k, flags in enumerate(traj.flags):
        record = profile.records[bisect_right(record_times, t0 + k * dt) - 1]
        assert flags.partition("|")[0] == record.kind.value
        outside = not config.bms.t_min_c <= traj.t_pack[k] <= config.bms.t_max_c
        assert flags.endswith("|temp_envelope") == outside


@settings(max_examples=40, deadline=None)
@given(
    dt=st.sampled_from([0.5, 1.0, 2.5, 60.0]),
    aging_every=st.integers(1, 6),
    n_whole=st.integers(0, 30),
    tail=st.sampled_from([0.0, 0.25, 0.5]),
)
@example(dt=1.0, aging_every=5, n_whole=3, tail=0.0)  # shorter than one interval
@example(dt=1.0, aging_every=3, n_whole=9, tail=0.0)  # a whole multiple of the interval
@example(dt=1.0, aging_every=3, n_whole=9, tail=0.5)  # the same, and a tail
@example(dt=60.0, aging_every=1, n_whole=4, tail=0.25)  # an aging point every step, and a tail
def test_aging_columns_step_where_an_aging_interval_closes(dt, aging_every, n_whole, tail):
    # the aging columns step on the rows of the (k + 1) % aging_every == 0
    # and k < n_whole rule, and on the last row when time is left to book
    # after the last aging point, once each; each calendar step here takes
    # a visible 2**-20 off c_norm, and an idle run feeds no cycle
    assume(n_whole or tail)
    profile = ScenarioProfile(
        [ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0), ProfileRecord((n_whole + tail) * dt, SegmentKind.IDLE, 0.0, 20.0)]
    )
    config = ScenarioConfig(dt_s=dt, control_interval_s=dt, aging_interval_s=aging_every * dt, initial_temp_c=20.0)

    def calendar_step(state, soc, t_pack, dt_days, coeffs):
        state.c_norm -= 2**-20

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evplant.engine, "calendar_step", calendar_step)
        traj = run_scenario(config, profile)
    n_whole, tail_dt = whole_steps(profile.duration_s, dt)
    expected = [k for k in range(traj.n_rows) if (k + 1) % aging_every == 0 and k < n_whole]
    if n_whole % aging_every or tail_dt:
        expected.append(traj.n_rows - 1)
    assert np.flatnonzero(np.diff(traj.c_norm, prepend=1.0)).tolist() == expected
    booked = np.zeros(traj.n_rows)
    booked[expected] = 1.0
    assert traj.c_norm.tolist() == (1.0 - 2**-20 * np.cumsum(booked)).tolist()


def grid_run(t0: float, t_end: float, dt: float) -> tuple[ScenarioConfig, ScenarioProfile]:
    """A drive from ``t0`` to ``t_end`` in steps of ``dt``, polled and aged every step."""
    profile = ScenarioProfile(
        [ProfileRecord(t0, SegmentKind.DRIVE, -3000.0, 20.0), ProfileRecord(t_end, SegmentKind.IDLE, 0.0, 20.0)]
    )
    config = ScenarioConfig(dt_s=dt, control_interval_s=dt, aging_interval_s=dt, initial_temp_c=20.0)
    return config, profile


@settings(max_examples=40, deadline=None)
@given(run=recorded_runs())
@example(run=grid_run(30.5, 130.75, 1.0))  # an off-grid start, and a tail
@example(run=grid_run(8_640_000.0, 8_640_374.8, 0.2))
@example(run=grid_run(0.0, 2.1, 0.7))
def test_row_times_follow_the_step_grid(run):
    # the run lays t_s out from the step grid: row k ends at (t0 + k * dt) + dt,
    # the loop's own float operations on the whole step, and the last row, a
    # tail or not, ends at the profile's end
    config, profile = run
    traj = run_scenario(config, profile)
    t0, dt = profile.records[0].t_s, config.dt_s
    grid = np.array([(t0 + k * dt) + dt for k in range(traj.n_rows - 1)], dtype=np.float64)
    assert np.array_equal(traj.t_s[:-1].view(np.int64), grid.view(np.int64))
    assert traj.t_s[-1] == profile.records[-1].t_s


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

    @pytest.mark.parametrize("name", ["simulation", "reference"])
    @pytest.mark.parametrize("short", ["soc", "v_cell", "flags"])
    def test_columns_must_have_the_rows_of_t_s(self, name, short):
        # a short simulation column failed on a boolean index, a short
        # reference one on "index 3 is out of bounds"
        whole, ragged = ragged_trajectory(None), ragged_trajectory(short)
        sim, ref = (ragged, whole) if name == "simulation" else (whole, ragged)
        message = f"{name} trajectory: {short} has 3 rows, but t_s has 4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    """A trajectory over a few write blocks, each column in one of three shapes.

    A column is drawn from a pool of a few values, so values recur apart;
    or it is runs of pool values with drawn lengths, which may cross a
    block edge; or it holds random bit patterns, so no two neighbours are
    alike. One column holds -0.0 next to 0.0, one is int-typed and one is a
    strided view.
    """
    n = draw(st.integers(0, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(pool: np.ndarray) -> np.ndarray:
        shape = draw(st.sampled_from(["pool", "runs", "distinct"]))
        if shape == "distinct":
            # random bit patterns, NaN payloads and subnormals among them
            return rng.integers(-(2**63), 2**63, n, dtype=np.int64).view(pool.dtype)
        picks = rng.integers(0, len(pool), n + 1)
        if shape == "runs":
            # a run starts on a row with this chance: runs of 2 rows to 2,000 on average
            picks = picks[np.cumsum(rng.random(n) < draw(st.sampled_from([0.5, 0.05, 0.0005])))]
        return pool[picks[:n]]

    value = st.floats() | st.sampled_from(EDGE_FLOATS)
    columns = {name: column(np.array(draw(st.lists(value, min_size=1, max_size=6)))) for name in FLOAT_COLUMNS}
    columns["p_ac"][n // 2 : n // 2 + 2] = [-0.0, 0.0][: n - n // 2]
    ints = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4)), dtype=np.int64)
    columns["eqfc"] = column(ints)
    strided = np.empty(2 * n)
    strided[::2] = columns["v_pack"]
    columns["v_pack"] = strided[::2]
    flags = draw(st.lists(st.text("abc|_ ", max_size=8), min_size=1, max_size=4))
    return Trajectory(**columns, flags=[flags[i] for i in rng.integers(0, len(flags), n)])


# the breaks of str.splitlines that a text-mode file keeps inside a line,
# where the readers once broke it
FORMER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def written_trajectory(draw):
    """A trajectory that emit_report writes: finite floats, times that increase, any flags.

    Zeros of both signs and subnormals are drawn often. A flag holds any
    text but a ``,`` or a line end, which the CSV, without quoting, cannot hold.
    """
    n = draw(st.integers(0, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1e-310, -5e-324])
    times = np.array(sorted(draw(st.lists(finite, min_size=n, max_size=n, unique=True))))
    columns = [np.array(draw(st.lists(finite, min_size=n, max_size=n)), dtype=float) for _ in FLOAT_COLUMNS[1:]]
    flag = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\n\r"), max_size=6)
    flag |= st.text(st.sampled_from("a| \t\x1f" + FORMER_BREAKS), max_size=4)
    return Trajectory(times, *columns, flags=draw(st.lists(flag, min_size=n, max_size=n)))


def flagged_trajectory(flags: list[str]) -> Trajectory:
    """One row of ones per flag, at increasing times."""
    n = len(flags)
    traj = Trajectory(*np.ones((len(FLOAT_COLUMNS), n)), flags=flags)
    traj.t_s = np.arange(1.0, n + 1.0)
    return traj


def block_edge_trajectory() -> Trajectory:
    """One write block and one row more, at increasing times.

    The last row repeats row 0's other values with p_ac's zero sign
    flipped, so those values are formatted in two blocks, and 0.0 and -0.0
    sit in adjacent blocks of one column.
    """
    n = evplant.engine._BLOCK_ROWS + 1
    table = np.random.default_rng(5).standard_normal((n, len(FLOAT_COLUMNS)))
    table[:, 0] = np.arange(1.0, n + 1.0)
    table[0, 1:] = table[-1, 1:]
    table[0, FLOAT_COLUMNS.index("p_ac")] = 0.0
    table[-1, FLOAT_COLUMNS.index("p_ac")] = -0.0
    return Trajectory(*table.T.copy(), flags=["plugged"] * n)


def one_value_trajectory() -> Trajectory:
    """Three write blocks and seven rows, with soc at one value on every row."""
    n = 3 * evplant.engine._BLOCK_ROWS + 7
    traj = Trajectory(*np.random.default_rng(3).standard_normal((len(FLOAT_COLUMNS), n)), flags=["idle"] * n)
    traj.soc = np.full(n, 0.9)
    return traj


def ragged_trajectory(short: str | None) -> Trajectory:
    """Four rows, with the column or ``flags`` named ``short``, if any, one row short."""
    n = 4
    traj = Trajectory(*(np.ones(n) for _ in FLOAT_COLUMNS), flags=["plugged"] * n)
    traj.t_s = np.arange(1.0, n + 1.0)
    if short is not None:
        setattr(traj, short, getattr(traj, short)[:-1])
    return traj


class TestReports:
    @settings(max_examples=40, deadline=None)
    @given(traj=report_trajectory())
    @example(traj=block_edge_trajectory())
    @example(traj=one_value_trajectory())
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

    @settings(max_examples=200, deadline=None)
    @given(traj=written_trajectory())
    @example(traj=flagged_trajectory(["idle\x0c"]))
    @example(traj=flagged_trajectory([f"a{c}b" for c in FORMER_BREAKS]))
    def test_every_written_report_reads_back_bit_for_bit(self, traj, tmp_path_factory):
        back = read_trajectory(emit_report(traj, None, tmp_path_factory.mktemp("out"))[0])
        for name in FLOAT_COLUMNS:
            assert getattr(back, name).tobytes() == getattr(traj, name).tobytes(), name
        assert back.flags == traj.flags

    def test_read_back_over_blocks_is_bit_identical(self, tmp_path):
        traj = block_edge_trajectory()
        back = read_trajectory(emit_report(traj, None, tmp_path)[0])
        for name in FLOAT_COLUMNS:
            np.testing.assert_array_equal(getattr(back, name).view(np.int64), getattr(traj, name).view(np.int64))
        assert back.flags == traj.flags
        # a read-back of several write blocks, whose columns are strided
        # views of one table, writes the report it was read from
        n = 3 * evplant.engine._BLOCK_ROWS + 7
        traj = Trajectory(*np.random.default_rng(13).random((len(FLOAT_COLUMNS), n)), flags=["idle"] * n)
        traj.t_s = np.arange(1.0, n + 1.0)
        first = emit_report(traj, None, tmp_path / "first")
        back = read_trajectory(first[0])
        assert not back.soc.flags.c_contiguous
        again = emit_report(back, None, tmp_path / "again")
        assert [p.read_bytes() for p in again] == [p.read_bytes() for p in first]

    def test_report_memory_does_not_grow_with_the_rows(self, tmp_path, traced_peak):
        # the writer holds one block's strings; it held every distinct value's
        # text for the whole write, here 15.5 MB at 16,384 rows and 4.3 MB at 4,096
        rng = np.random.default_rng(11)
        peaks = []
        for n in (4096, 16384):
            traj = Trajectory(*rng.random((len(FLOAT_COLUMNS), n)), flags=["drive"] * n)
            traj.t_s = np.arange(1.0, n + 1.0)
            _, peak, _ = traced_peak(lambda: emit_report(traj, None, tmp_path / str(n)))
            peaks.append(peak)
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_read_back_memory_is_a_few_times_what_it_returns(self, tmp_path, traced_peak):
        # the reader holds one 64 KiB block of text, then loadtxt's table,
        # whose fields it returns: 165 B per row against 158 B per row kept;
        # it copied each column out of the table, 247 B per row, held the
        # file's text and its lines, 468 B, and 723 B before that
        n = 16384
        traj = Trajectory(*np.random.default_rng(12).random((len(FLOAT_COLUMNS), n)), flags=["drive"] * n)
        traj.t_s = np.arange(1.0, n + 1.0)
        path = emit_report(traj, None, tmp_path)[0]
        back, peak, kept = traced_peak(lambda: read_trajectory(path))
        assert back.n_rows == n
        assert peak < 1.25 * kept, (peak, kept)

    @pytest.mark.parametrize("short", ["soc", "eqfc", "flags"])
    def test_report_refuses_a_ragged_trajectory(self, tmp_path, short):
        # zip stopped at the short column: three rows written, "rows = 4.0" in the summary
        message = f"trajectory: {short} has 3 rows, but t_s has 4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_report(ragged_trajectory(short), None, tmp_path / "out")
        assert not (tmp_path / "out").exists()

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

    def test_report_writes_the_pinned_fixture(self, tmp_path):
        path = emit_report(fixture_run(), None, tmp_path)[0]
        assert path.read_bytes() == (REGRESSION_DIR / "trajectory.csv").read_bytes()

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
