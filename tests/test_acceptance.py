"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from evplant.aging import (
    AgingState,
    calendar_step,
    cycle_accumulate,
    eol_check,
    EolStatus,
    flush_cycles,
)
from evplant.charger import (
    RAMP_UP_DURATION_S,
    ChargerConfig,
    ChargerMode,
    achievable_setpoints,
    command_setpoint,
    quantize_setpoint,
    ramp_power,
)
from evplant.ecm import EcmState, operating_point, rest_voltage, step_ecm
from evplant.engine import SECONDS_PER_DAY, Trajectory, emit_report, make_constant_strategy, run_scenario
from evplant.scenario import ProfileRecord, ScenarioConfig, ScenarioProfile, SegmentKind
from evplant.thermal import ThermalMode, ThermalParams, step_thermal

EXPECTED_TABLE_DIR = Path(__file__).parent / "data"


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def _timed(work, *args):
    """``work(*args)`` and the wall time it took, in s.

    A criterion with a time bound runs its workload once, in a module-scoped
    fixture: its correctness test asserts on the result and its ``timing``
    test on the time, so ``-m 'not timing'`` skips only the bound.
    """
    start = time.perf_counter()
    result = work(*args)
    return result, time.perf_counter() - start


def _load_expected(name: str):
    lines = (EXPECTED_TABLE_DIR / f"{name}_expected.csv").read_text().splitlines()
    temps = [float(x) for x in lines[0].split(",")[1:]]
    socs, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        socs.append(float(cells[0]) / 100.0)
        rows.append([float(x) for x in cells[1:]])
    return socs, temps, rows


def _table_fidelity(pset) -> None:
    """Every table's shape and axes, and 10 random nodes per table, exact."""
    rng = random.Random(2024)
    shapes = {"ocv": (23, 5)}
    for name in ("ocv", "r_ser", "r1", "r2", "c1", "c2"):
        socs, temps, rows = _load_expected(name)
        grid = pset.grid(name)
        n_soc, n_temp = shapes.get(name, (21, 6))
        assert grid.values.shape == (n_soc, n_temp)
        assert list(grid.soc_breakpoints) == pytest.approx(socs, rel=1e-15)
        assert list(grid.temp_breakpoints) == temps
        for _ in range(10):
            i = rng.randrange(n_soc)
            j = rng.randrange(n_temp)
            assert grid.values[i, j] == rows[i][j], (name, i, j)
            assert grid.interpolate(socs[i], temps[j]) == rows[i][j], (name, i, j)


@pytest.fixture(scope="module")
def table_fidelity(pset):
    return _timed(_table_fidelity, pset)


def test_criterion_1_table_fidelity(table_fidelity):
    _report(1, "6 parameters x 10 random nodes exact")


@pytest.mark.timing
def test_criterion_1_table_fidelity_time(table_fidelity):
    _, elapsed = table_fidelity
    assert elapsed < 1.0
    _report(1, f"table fidelity checked in {elapsed * 1e3:.0f} ms")


def _time_constant_ordering(pset) -> int:
    """Assert tau1 < tau2 at every node of the r1 grid; the number of nodes checked."""
    checked = 0
    for soc in pset.r1.soc_breakpoints:
        for temp in pset.r1.temp_breakpoints:
            tau1 = pset.r1.interpolate(soc, temp) * pset.c1.interpolate(soc, temp)
            tau2 = pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)
            assert tau1 < tau2, (soc, temp)
            checked += 1
    return checked


@pytest.fixture(scope="module")
def time_constant_ordering(pset):
    return _timed(_time_constant_ordering, pset)


def test_criterion_2_time_constant_ordering(time_constant_ordering):
    checked, _ = time_constant_ordering
    assert checked == 21 * 6
    _report(2, f"tau1 < tau2 at all {checked} nodes")


@pytest.mark.timing
def test_criterion_2_time_constant_ordering_time(time_constant_ordering):
    _, elapsed = time_constant_ordering
    assert elapsed < 1.0
    _report(2, f"time-constant ordering checked in {elapsed * 1e3:.0f} ms")


def test_criterion_3_rest_voltage(pset):
    state = EcmState(soc=0.50)
    v_cell = rest_voltage(state, pset, 25.0)
    assert v_cell == 3.6936
    point = operating_point(pset, AgingState(), 0.50, 25.0, dt=1.0)
    _, v_step, _, _ = step_ecm(state, point, current=0.0)
    assert v_step == 3.6936
    v_pack = pset.n_series * v_step
    assert v_pack == 93 * 3.6936
    assert v_pack == pytest.approx(343.50, abs=5e-3)
    _report(3, f"rest voltage {v_cell} V/cell, {v_pack:.2f} V pack")


def _calendar_to_eol(cal_coeffs) -> AgingState:
    state = AgingState()
    dt_days = 1.0 / 1440.0  # one-minute aging cadence
    while state.c_norm > 0.8:
        calendar_step(state, 1.0, 40.0, dt_days, cal_coeffs)
    return state


@pytest.fixture(scope="module")
def calendar_eol(cal_coeffs):
    return _timed(_calendar_to_eol, cal_coeffs)


def test_criterion_4_calendar_eol_window(calendar_eol):
    state, _ = calendar_eol
    assert 431.0 <= state.elapsed_days <= 589.0
    assert eol_check(state) is EolStatus.CAPACITY
    _report(4, f"capacity hits 80 % after {state.elapsed_days:.1f} days (window 431..589)")


@pytest.mark.timing
def test_criterion_4_calendar_eol_time(calendar_eol):
    _, elapsed = calendar_eol
    assert elapsed < 5.0
    _report(4, f"calendar aging to end of life in {elapsed:.2f} s")


def _storage(days: float, dt: float, initial_temp_c: float) -> Trajectory:
    """Idle at SOC 1.0 and 40 degC ambient, aging once per step."""
    config = ScenarioConfig(
        dt_s=dt, control_interval_s=dt, aging_interval_s=dt, initial_soc=1.0, initial_temp_c=initial_temp_c
    )
    profile = ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 40.0),
            ProfileRecord(days * SECONDS_PER_DAY, SegmentKind.IDLE, 0.0, 40.0),
        ]
    )
    return run_scenario(config, profile)


def test_criterion_4_through_the_engine():
    # one step per day: the exact thermal step has no stability bound
    traj = _storage(600.0, SECONDS_PER_DAY, 40.0)
    eol = int(np.argmax(traj.c_norm <= 0.8))
    assert traj.c_norm[eol] <= 0.8 < traj.c_norm[eol - 1]
    eol_day = traj.t_s[eol] / SECONDS_PER_DAY
    assert 431.0 <= eol_day <= 589.0
    _report(4, f"run_scenario at dt = 1 day reaches 80 % capacity on day {eol_day:.1f}")


def test_daily_storage_steps_match_one_minute_steps():
    # a 25 degC pack warms to the 40 degC ambient with a time constant of
    # C / G = 51 min, so by the end of each day both runs sit at 40 degC; the
    # daily run ages its first day at the end-of-step 40 degC, not along the
    # warm-up, which costs it 0.1 % of the 30-day fade
    daily = _storage(30.0, SECONDS_PER_DAY, 25.0)
    minutes = _storage(30.0, 60.0, 25.0)
    day_ends = np.isin(minutes.t_s, daily.t_s)
    assert np.max(np.abs(daily.t_pack - minutes.t_pack[day_ends])) <= 1e-9
    fade_daily, fade_minutes = 1.0 - daily.c_norm[-1], 1.0 - minutes.c_norm[-1]
    assert fade_daily == pytest.approx(fade_minutes, rel=2e-3)


def _cycle_to_eol(low: float, high: float, cyc_coeffs) -> AgingState:
    state = AgingState()
    cycle_accumulate(state, low, cyc_coeffs)
    while state.c_norm > 0.8:
        cycle_accumulate(state, high, cyc_coeffs)
        if state.c_norm <= 0.8:
            break
        cycle_accumulate(state, low, cyc_coeffs)
    return state


def _cycles_to_eol(cyc_coeffs) -> tuple[AgingState, AgingState]:
    """End-of-life states of 80 % and 95 % SOC swings."""
    return _cycle_to_eol(0.10, 0.90, cyc_coeffs), _cycle_to_eol(0.025, 0.975, cyc_coeffs)


@pytest.fixture(scope="module")
def cycle_eol(cyc_coeffs):
    return _timed(_cycles_to_eol, cyc_coeffs)


def test_criterion_5_cycle_eol(cycle_eol):
    (state80, state95), _ = cycle_eol
    assert state80.eqfc == pytest.approx(3634.0, rel=0.01)
    assert 2649.0 <= state95.eqfc <= 2849.0
    _report(5, f"EOL at {state80.eqfc:.1f} EQFC (80 % swings) and {state95.eqfc:.1f} EQFC (95 % swings)")


@pytest.mark.timing
def test_criterion_5_cycle_eol_time(cycle_eol):
    _, elapsed = cycle_eol
    assert elapsed < 30.0
    _report(5, f"cycle aging to end of life in {elapsed:.2f} s")


def test_criterion_6_ramp_dynamics():
    config = ChargerConfig()
    rng = random.Random(61)
    grid = [k * 0.1 for k in range(int(RAMP_UP_DURATION_S / 0.1) + 1)]
    for _ in range(100):
        start_w = rng.choice([0.0, rng.uniform(0.0, 10000.0)])
        target = start_w + rng.uniform(10.0, 11040.0 - start_w + 10.0)
        up = command_setpoint(target, start_w)
        assert ramp_power(up, RAMP_UP_DURATION_S, config) == target
        values = [ramp_power(up, t, config) for t in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)  # non-decreasing
        # continuity: no jump beyond the steepest curve segment over 0.1 s
        max_slope = (target - start_w) * (0.8 / 10.0) * (52.0 / 50.0)
        assert np.all(np.abs(diffs) <= max_slope * 0.1 + 1e-9)

        down = command_setpoint(start_w, target)
        assert ramp_power(down, 4.0, config) == start_w
        assert ramp_power(down, 4.0 - 1e-9, config) == target
    _report(6, "100 random set-point changes: up lands at 52 s, down at 4 s")


def test_criterion_7_setpoint_quantization():
    config = ChargerConfig(mode=ChargerMode.THREE_PHASE)
    setpoints = achievable_setpoints(config)
    assert setpoints[1:] == tuple(3 * 230.0 * n for n in range(6, 17))
    assert all(
        b - a == pytest.approx(690.0) for a, b in zip(setpoints[1:], setpoints[2:])
    )
    rng = random.Random(7)
    achievable = set(setpoints)
    for _ in range(1000):
        request = rng.uniform(0.0, 20000.0)
        q = quantize_setpoint(request, config)
        assert q <= request
        assert q in achievable
        assert quantize_setpoint(q, config) == q
    _report(7, "3-phase set {4140..11040 W, 690 W steps}; 1000 requests quantized")


def _full_charge_ratio(power_w: float, mode: ChargerMode) -> float:
    config = ScenarioConfig(initial_soc=0.032, initial_temp_c=20.0, charger_mode=mode)
    duration = 60000.0 if power_w < 3000.0 else 12000.0
    profile = ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.PLUGGED, power_w, 20.0, None),
            ProfileRecord(duration, SegmentKind.IDLE, 0.0, 20.0, None),
        ]
    )
    traj = run_scenario(config, profile, make_constant_strategy(power_w))
    assert traj.soc[-1] == pytest.approx(config.bms.soc_max, abs=1e-3)  # full charge
    return float(np.sum(traj.p_dc) / np.sum(traj.p_ac))


def test_criterion_8_charger_efficiency_endpoints():
    ratio_low = _full_charge_ratio(1800.0, ChargerMode.ONE_PHASE)
    assert ratio_low == pytest.approx(0.73, abs=0.02)
    ratio_high = _full_charge_ratio(11040.0, ChargerMode.THREE_PHASE)
    assert ratio_high == pytest.approx(0.92, abs=0.02)
    _report(
        8,
        f"full-charge DC/AC energy ratio {ratio_low:.4f} at 1.8 kW, "
        f"{ratio_high:.4f} at 11 kW",
    )


DISCHARGE_CONFIG = ScenarioConfig(initial_soc=0.953, initial_temp_c=25.0)


def _full_discharge() -> Trajectory:
    """About 1C of drive from SOC 0.953 at 25 degC, until the window stops it."""
    profile = ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.DRIVE, -17600.0, 25.0, None),  # ~1C
            ProfileRecord(4200.0, SegmentKind.IDLE, 0.0, 25.0, None),
        ]
    )
    return run_scenario(DISCHARGE_CONFIG, profile)


@pytest.fixture(scope="module")
def full_discharge():
    return _timed(_full_discharge)


def test_criterion_9_full_discharge_plausibility(full_discharge):
    traj, _ = full_discharge
    ah = float(np.sum(traj.i_dc) / 3600.0)
    kwh = float(np.sum(traj.i_dc * traj.v_pack) / 3.6e6)
    assert traj.soc[-1] == pytest.approx(DISCHARGE_CONFIG.bms.soc_min, abs=1e-3)
    assert abs(ah) == pytest.approx(47.9, abs=0.5)
    assert 15.5 <= abs(kwh) <= 17.5
    _report(9, f"window discharge {ah:.2f} Ah, {kwh:.2f} kWh")


@pytest.mark.timing
def test_criterion_9_full_discharge_time(full_discharge):
    _, elapsed = full_discharge
    assert elapsed < 2.0
    _report(9, f"window discharge simulated in {elapsed:.2f} s")


def test_criterion_10_thermal_oracle():
    params = ThermalParams.for_mode(ThermalMode.EV_OPERATION)
    t_ambient, q_gen = 20.0, 500.0
    asymptote = q_gen / params.alpha_sum
    assert asymptote == pytest.approx(89.6, abs=0.05)

    t_pack = t_ambient
    coarse = []
    for _ in range(3600):
        t_pack = step_thermal(t_pack, q_gen, t_ambient, 1.0, params, cooling_active=False)
        coarse.append(t_pack)
    assert max(coarse) - t_ambient < asymptote

    # independent fine-step Euler oracle at 1 ms
    temp = t_ambient
    k_sum, c_pack, h = params.alpha_sum, params.c_pack, 1e-3
    fine = []
    for second in range(3600):
        for _ in range(1000):
            temp += h * (q_gen - k_sum * (temp - t_ambient)) / c_pack
        fine.append(temp)
    worst = max(abs(a - b) for a, b in zip(coarse, fine))
    assert worst < 0.01
    _report(
        10,
        f"1 h heat-up stays under the {asymptote:.1f} K asymptote; "
        f"dt=1 s vs 1 ms oracle worst gap {worst * 1e3:.2f} mK",
    )


def test_criterion_11_property_bundle(tmp_path, cal_coeffs, cyc_coeffs):
    # paper-scale RMSE reproduction is impossible without the vehicle traces;
    # the substitute properties below pin the engine down instead

    # determinism: byte-identical reruns
    config = ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0)
    profile = ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.DRIVE, -12000.0, 22.0, None),
            ProfileRecord(300.0, SegmentKind.PLUGGED, 11040.0, 22.0, None),
            ProfileRecord(1500.0, SegmentKind.IDLE, 0.0, 22.0, None),
        ]
    )
    emit_report(run_scenario(config, profile), None, tmp_path / "a")
    emit_report(run_scenario(config, profile), None, tmp_path / "b")
    bytes_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    assert bytes_a == (tmp_path / "b" / "trajectory.csv").read_bytes()

    # charge conservation: SOC tracks the current integral to < 1e-9 per step
    traj = run_scenario(config, profile)
    increments = traj.i_dc * config.dt_s / (3600.0 * 52.0 * traj.c_norm)
    reconstructed = config.initial_soc + np.cumsum(increments)
    assert np.max(np.abs(traj.soc - reconstructed)) < traj.n_rows * 1e-9

    # superposition: calendar-only plus cycle-only equals the combined run
    rng = random.Random(13)
    socs = [rng.random() for _ in range(800)]
    combined, cal_only, cyc_only = AgingState(), AgingState(), AgingState()
    for soc in socs:
        cycle_accumulate(combined, soc, cyc_coeffs)
        calendar_step(combined, soc, 40.0, 1e-3, cal_coeffs)
        calendar_step(cal_only, soc, 40.0, 1e-3, cal_coeffs)
        cycle_accumulate(cyc_only, soc, cyc_coeffs)
    flush_cycles(combined, cyc_coeffs)
    flush_cycles(cyc_only, cyc_coeffs)
    loss_sum = (1.0 - cal_only.c_norm) + (1.0 - cyc_only.c_norm)
    assert (1.0 - combined.c_norm) == pytest.approx(loss_sum, rel=1e-9)

    _report(
        11,
        "determinism byte-identical, charge conservation < 1e-9/step, "
        "aging superposition exact (RMSE vs vehicle data not reproducible: "
        "raw traces unpublished)",
    )
