"""Cell electrical model: exact-hold RC update, heat, SOC saturation."""

from __future__ import annotations

import math
import random

import pytest

from evplant.aging import AgingState
from evplant.ecm import (
    POINT_ORDER,
    EcmState,
    operating_point,
    rest_voltage,
    step_ecm,
    voltage_prediction_coeffs,
)


@pytest.fixture
def fresh():
    return AgingState()


def step(state, pset, aging, current, temp, dt):
    return step_ecm(state, operating_point(pset, aging, state.soc, temp, dt), current)


def tau2_at(pset, soc, temp):
    return pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)


class TestStep:
    def test_zero_current_rest(self, pset, fresh):
        state = EcmState(soc=0.5)
        new, v_cell, heat, _ = step(state, pset, fresh, current=0.0, temp=25.0, dt=1.0)
        assert v_cell == 3.6936
        assert heat == 0.0
        assert new.soc == 0.5

    def test_instantaneous_ohmic_drop(self, pset, fresh):
        # for dt -> 0+ only the series resistance contributes
        state = EcmState(soc=0.5)
        _, v_cell, _, _ = step(state, pset, fresh, current=52.0, temp=25.0, dt=1e-6)
        ir = 52.0 * 7.186e-4
        assert ir == pytest.approx(0.03737, abs=1e-5)
        assert v_cell - 3.6936 == pytest.approx(ir, abs=2e-4)

    def test_overpotential_decays_by_e_over_one_time_constant(self, pset, fresh):
        dt = tau2_at(pset, 0.5, 25.0)
        assert dt == pytest.approx(15.37, abs=5e-3)
        state = EcmState(soc=0.5, u1=0.01, u2=0.05)
        new, *_ = step(state, pset, fresh, current=0.0, temp=25.0, dt=dt)
        assert new.u2 == pytest.approx(0.05 * math.exp(-1.0), rel=1e-12)
        assert new.u2 == pytest.approx(0.01839, abs=1e-5)
        # the fast branch has all but vanished after ~1000 of its time constants
        assert abs(new.u1) < 1e-9

    def test_zero_current_fixed_point(self, pset, fresh):
        state = EcmState(soc=0.5, u1=0.02, u2=-0.03)
        prev_u1, prev_u2 = state.u1, state.u2
        for _ in range(200):
            state, *_ = step(state, pset, fresh, current=0.0, temp=25.0, dt=5.0)
            assert abs(state.u1) <= abs(prev_u1)
            assert abs(state.u2) <= abs(prev_u2)
            assert state.soc == 0.5
            prev_u1, prev_u2 = state.u1, state.u2
        assert abs(state.u1) < 1e-12
        assert abs(state.u2) < 1e-12

    def test_charge_conservation(self, pset, fresh):
        rng = random.Random(42)
        state = EcmState(soc=0.5)
        dt = 1.0
        charge_as = 0.0
        start = state.soc
        for _ in range(600):
            current = rng.uniform(-40.0, 40.0)
            state, *_ = step(state, pset, fresh, current, 25.0, dt)
            charge_as += current * dt
        expected = start + charge_as / (3600.0 * pset.nominal_capacity_ah)
        assert abs(state.soc - expected) < 600 * 1e-9

    def test_half_steps_match_full_step_at_rest(self, pset, fresh):
        state = EcmState(soc=0.5, u1=0.01, u2=0.04)
        one, *_ = step(state, pset, fresh, 0.0, 25.0, dt=10.0)
        half = EcmState(soc=0.5, u1=0.01, u2=0.04)
        for _ in range(2):
            half, *_ = step(half, pset, fresh, 0.0, 25.0, dt=5.0)
        assert half.u1 == pytest.approx(one.u1, rel=1e-12)
        assert half.u2 == pytest.approx(one.u2, rel=1e-12)

    def test_soc_saturation_sets_flag(self, pset, fresh):
        state = EcmState(soc=0.9999)
        new, _, _, clipped = step(state, pset, fresh, current=104.0, temp=25.0, dt=60.0)
        assert clipped
        assert new.soc == 1.0
        low, _, _, clipped = step(EcmState(soc=0.0001), pset, fresh, -104.0, 25.0, 60.0)
        assert clipped
        assert low.soc == 0.0

    def test_non_finite_input_is_hard_error(self, pset, fresh):
        # the parameter lookup rejects a NaN coordinate; any other non-finite
        # input is caught by the engine's one check per step (test_engine)
        with pytest.raises(ValueError):
            step(EcmState(soc=float("nan")), pset, fresh, 0.0, 25.0, 1.0)

    def test_heat_power_nonnegative(self, pset, fresh):
        rng = random.Random(7)
        state = EcmState(soc=0.6)
        for _ in range(300):
            state, _, heat, _ = step(state, pset, fresh, rng.uniform(-60, 60), 5.0, 1.0)
            assert heat >= 0.0

    def test_aged_resistance_scales_ohmic_drop(self, pset):
        aged = AgingState(c_norm=1.0, r_norm=1.5)
        fresh = AgingState()
        _, v_aged, _, _ = step(EcmState(soc=0.5), pset, aged, 52.0, 25.0, 1e-6)
        _, v_fresh, _, _ = step(EcmState(soc=0.5), pset, fresh, 52.0, 25.0, 1e-6)
        # the instantaneous RC charging term ~ I*dt/C is resistance-free, so
        # only the series-resistance part of the drop scales with r_norm
        extra = v_aged - v_fresh
        assert extra == pytest.approx(0.5 * 52.0 * 7.186e-4, rel=1e-3)

    def test_aged_capacity_scales_soc_rate(self, pset):
        aged = AgingState(c_norm=0.8, r_norm=1.0)
        new, *_ = step(EcmState(soc=0.5), pset, aged, 52.0, 25.0, 36.0)
        dsoc = new.soc - 0.5
        assert dsoc == pytest.approx(52.0 * 36.0 / (3600.0 * 52.0 * 0.8), rel=1e-12)


class TestRestVoltage:
    def test_full_cell(self, pset):
        assert rest_voltage(EcmState(soc=1.0), pset, 25.0) == 4.1835

    def test_empty_cell(self, pset):
        assert rest_voltage(EcmState(soc=0.0), pset, 25.0) == 3.3287

    def test_overpotentials_add(self, pset):
        v = rest_voltage(EcmState(soc=0.5, u1=0.01, u2=0.01), pset, 25.0)
        assert v == pytest.approx(3.6936 + 0.02, rel=1e-12)


class TestPrediction:
    def test_operating_point_follows_the_documented_order(self, pset):
        aged = AgingState(c_norm=0.8, r_norm=1.5)
        point = operating_point(pset, aged, 0.5, 25.0, 2.0)
        ocv, r_ser, r1, c1, r2, c2 = pset.lookup(0.5, 25.0)
        r1, r2 = r1 * 1.5, r2 * 1.5
        assert dict(zip(POINT_ORDER, point, strict=True)) == {
            "ocv": ocv,
            "r_ser": r_ser * 1.5,
            "r1": r1,
            "r2": r2,
            "k1": math.exp(-2.0 / (r1 * c1)),
            "k2": math.exp(-2.0 / (r2 * c2)),
            "dt": 2.0,
            "capacity_ah": pset.nominal_capacity_ah * 0.8,
        }

    def test_prediction_matches_step(self, pset, fresh):
        state = EcmState(soc=0.7, u1=0.005, u2=0.02)
        for current in (0.0, 12.0, 29.0):
            a, b = voltage_prediction_coeffs(state, operating_point(pset, fresh, state.soc, 25.0, 1.0))
            _, v_cell, _, _ = step(state, pset, fresh, current, 25.0, 1.0)
            assert a + b * current == pytest.approx(v_cell, abs=1e-12)


def test_fine_step_euler_oracle_agrees_within_1mv(pset):
    """Independent forward-Euler oracle at 1 ms over a 60 s pulse profile."""
    fresh = AgingState()
    profile = [(26.0 if t < 20 else (0.0 if t < 40 else -26.0)) for t in range(60)]

    state = EcmState(soc=0.5)
    coarse = []
    for current in profile:
        state, v_cell, _, _ = step(state, pset, fresh, current, 25.0, 1.0)
        coarse.append(v_cell)

    # oracle: naive Euler integration of du/dt = (R*i - u)/tau at 1 ms
    soc, u1, u2 = 0.5, 0.0, 0.0
    h = 1e-3
    fine = []
    for second, current in enumerate(profile):
        for _ in range(1000):
            r_ser = pset.r_ser.interpolate(soc, 25.0)
            r1 = pset.r1.interpolate(soc, 25.0)
            r2 = pset.r2.interpolate(soc, 25.0)
            tau1 = r1 * pset.c1.interpolate(soc, 25.0)
            tau2 = r2 * pset.c2.interpolate(soc, 25.0)
            u1 += h * (r1 * current - u1) / tau1
            u2 += h * (r2 * current - u2) / tau2
            soc += current * h / (3600.0 * pset.nominal_capacity_ah)
        fine.append(pset.ocv.interpolate(soc, 25.0) + current * r_ser + u1 + u2)

    worst = max(abs(a - b) for a, b in zip(coarse, fine))
    assert worst < 1e-3, f"worst deviation {worst * 1e3:.3f} mV"
