"""Cell electrical model: exact-hold RC update, heat, SOC saturation."""

from __future__ import annotations

import math
import random
import struct
import sys

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from evplant.aging import AgingState
from evplant.ecm import (
    POINT_ORDER,
    SECONDS_PER_HOUR,
    EcmState,
    operating_point,
    rest_step,
    rest_voltage,
    step_ecm,
    voltage_prediction_coeffs,
)


@pytest.fixture
def fresh():
    return AgingState()


def step(state, pset, aging, current, temp, dt):
    # step_ecm returns the new state as a plain tuple; named again, the cases read its fields
    new, v_cell, heat, clipped = step_ecm(state, operating_point(pset, aging, state[0], temp, dt), current)
    return EcmState(*new), v_cell, heat, clipped


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

    @given(
        soc=st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0]),
        current=st.floats() | st.sampled_from([0.0, -0.0]),
        dt=st.sampled_from([0.5, 1.0, 60.0, 3600.0]),
        capacity_ah=st.floats(0.5, 60.0),
    )
    @example(soc=0.0, current=-1.0, dt=1.0, capacity_ah=52.0)
    @example(soc=1.0, current=1.0, dt=1.0, capacity_ah=52.0)
    @example(soc=-0.0, current=-0.0, dt=1.0, capacity_ah=52.0)
    def test_soc_clip_is_the_builtin_min_and_max(self, soc, current, dt, capacity_ah):
        point = (3.7, 1e-3, 5e-4, 8e-4, math.exp(-dt / 30.0), math.exp(-dt / 900.0), dt, capacity_ah)
        expected = soc + current * dt / (SECONDS_PER_HOUR * capacity_ah)
        clipped = expected < 0.0 or expected > 1.0
        if clipped:
            expected = min(max(expected, 0.0), 1.0)
        new, _, _, new_clipped = step_ecm(EcmState(soc, 0.01, -0.02), point, current)
        assert new_clipped is clipped
        assert struct.pack("<d", new[0]) == struct.pack("<d", expected)

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


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


finite = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


class TestPlainState:
    """step_ecm returns a plain (soc, u1, u2) tuple, and a state reads the same bits in either form."""

    @given(
        state=st.tuples(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 1.0]), finite, finite),
        point=st.tuples(
            st.floats(2.5, 4.5),
            *[st.floats(1e-5, 1e-2)] * 3,
            *[st.floats(0.0, 1.0, exclude_max=True) | st.just(-0.0)] * 2,
            st.sampled_from([0.5, 1.0, 60.0, 3600.0]),
            st.floats(0.5, 60.0),
        ),
        current=finite,
    )
    @example(state=(-0.0, -0.0, -0.0), point=(3.7, 1e-3, 5e-4, 8e-4, -0.0, -0.0, 1.0, 52.0), current=-0.0)
    def test_a_step_returns_a_plain_tuple_with_the_same_bits_from_either_form(self, state, point, current):
        new, v_cell, heat, clipped = step_ecm(state, point, current)
        named, v_named, heat_named, clipped_named = step_ecm(EcmState(*state), point, current)
        assert type(new) is tuple and len(new) == 3 and all(type(x) is float for x in new)
        assert type(named) is tuple
        assert bits(*new, v_cell, heat) == bits(*named, v_named, heat_named)
        assert clipped is clipped_named
        assert bits(*EcmState(*new)) == bits(*new) and EcmState(*new) == new
        for plain in (state, new):
            coeffs = voltage_prediction_coeffs(plain, point)
            assert bits(*coeffs) == bits(*voltage_prediction_coeffs(EcmState(*plain), point))

    @given(state=st.tuples(st.floats(0.0, 1.0) | st.just(-0.0), finite, finite), temp=st.floats(-20.0, 50.0))
    def test_rest_voltage_reads_the_same_bits_from_either_form(self, pset, state, temp):
        assert bits(rest_voltage(state, pset, temp)) == bits(rest_voltage(EcmState(*state), pset, temp))


# positive, finite resistances and capacitances, from the smallest normal float up
positive = st.floats(sys.float_info.min, 1e6) | st.sampled_from([sys.float_info.min, 1e-3, 1e300])


@st.composite
def rest_cases(draw):
    """A state at rest, the point of a step from it and that point's ``c_eff_ah``.

    The SOC runs past both ends of [0, 1], ``dt`` takes tail sizes, the RC
    time constants make ``k`` anything from 0.0 (underflow) to 1.0, and
    ``c_eff_ah`` is positive, zero or negative.
    """
    soc = draw(st.floats(-0.5, 1.5) | st.sampled_from([0.0, -0.0, 1.0]))
    u1, u2 = draw(st.tuples(*[st.sampled_from([0.0, -0.0])] * 2))
    r_ser, r1, r2, c1, c2 = draw(st.tuples(*[positive] * 5))
    dt = draw(st.sampled_from([1.0, 60.0, 3600.0, 0.3, 1e-7, 59.999999]) | st.floats(1e-9, 1e5))
    c_eff_ah = draw(st.floats(0.5, 60.0) | st.floats(-60.0, -1e-3) | st.sampled_from([0.0, -0.0, 52.0]))
    ocv = draw(st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0, 3.7]))
    # an r * c at 0.0 divides in operating_point; rest_r_norm_max rules it out
    assume(r1 * c1 > 0.0 and r2 * c2 > 0.0)
    k1, k2 = math.exp(-dt / (r1 * c1)), math.exp(-dt / (r2 * c2))
    return (soc, u1, u2), (ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah)


class TestRestStep:
    """rest_step is step_ecm at zero current from a state at rest, bit for bit."""

    @given(case=rest_cases())
    @example(case=((-0.0, -0.0, -0.0), (-0.0, 1e-3, 5e-4, 8e-4, 0.0, 1.0, 1.0, 52.0)))
    @example(case=((1.0, 0.0, -0.0), (3.7, 1e-3, 5e-4, 8e-4, 0.5, 0.9, 60.0, -52.0)))
    @example(case=((0.5, 0.0, 0.0), (3.7, 1e-3, 5e-4, 8e-4, 0.5, 0.9, 60.0, 0.0)))
    @example(case=((1.2, -0.0, 0.0), (3.7, 1e-3, 5e-4, 8e-4, 0.5, 0.9, 0.3, 52.0)))
    def test_rest_step_is_step_ecm_at_zero_current(self, case):
        state, point = case
        ocv, dt, c_eff_ah = point[0], point[6], point[7]
        if c_eff_ah == 0.0:
            with pytest.raises(ZeroDivisionError):
                step_ecm(state, point, 0.0)
            with pytest.raises(ZeroDivisionError):
                rest_step(state, ocv, dt, c_eff_ah)
            return
        new, v_cell, heat, clipped = step_ecm(state, point, 0.0)
        rested, v_rest, heat_rest, clipped_rest = rest_step(state, ocv, dt, c_eff_ah)
        assert type(rested) is tuple
        assert bits(*rested, v_rest, heat_rest) == bits(*new, v_cell, heat)
        assert clipped_rest is clipped

    def test_rest_step_reads_a_named_state(self):
        assert rest_step(EcmState(0.25, -0.0, 0.0), 3.5, 60.0, 52.0) == ((0.25, 0.0, 0.0), 3.5, 0.0, False)


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
        ocv, r_ser, r1, r2, c1, c2 = pset.lookup(0.5, 25.0)
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
