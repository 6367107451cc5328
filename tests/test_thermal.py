"""Lumped pack thermal model: convection, liquid cooling, heater floor."""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evplant.thermal import (
    _ALPHAS,
    C_COOLANT,
    FLOW_RATE_REF_TEMP,
    FLOW_RATE_SLOPE,
    RHO_COOLANT,
    ThermalMode,
    ThermalParams,
    step_thermal,
)


@pytest.fixture
def ev_params():
    return ThermalParams.for_mode(ThermalMode.EV_OPERATION)


@pytest.fixture
def lab_params():
    return ThermalParams.for_mode(ThermalMode.LAB_PACK_TEST)


def cooling_conductance(t_pack: float) -> float:
    """The cooling loop's conductance (W/K): rho * c * flow, the flow linear in |t_pack|."""
    return RHO_COOLANT * C_COOLANT * abs(t_pack / FLOW_RATE_REF_TEMP * FLOW_RATE_SLOPE)


class TestConvection:
    def test_ev_operation_coefficients(self, ev_params):
        assert ev_params.alpha_sum == pytest.approx(5.579, rel=1e-12)
        assert ev_params.alpha_sum * 10.0 == pytest.approx(55.79, rel=1e-12)

    def test_lab_coefficients(self, lab_params):
        assert lab_params.alpha_sum == pytest.approx(4.234, rel=1e-12)
        assert lab_params.alpha_sum * 10.0 == pytest.approx(42.34, rel=1e-12)

    def test_heat_capacity_default(self, ev_params, lab_params):
        assert ev_params.c_pack == 17120.0
        assert lab_params.c_pack == 17120.0


class TestCoolantLoop:
    def test_flow_rate_at_reference(self):
        assert 45.0 / FLOW_RATE_REF_TEMP * FLOW_RATE_SLOPE == pytest.approx(1.513e-5, rel=1e-12)

    def test_loop_conductance_example(self):
        # 30 degC pack over 20 degC coolant: the paper's 361.7 W
        assert cooling_conductance(30.0) == pytest.approx(1080.0 * 3320.0 * (30.0 / 45.0 * 1.513e-5), rel=1e-12)
        assert cooling_conductance(30.0) * (30.0 - 20.0) == pytest.approx(361.7, abs=0.1)

    def test_loop_conductance_at_reference(self):
        assert cooling_conductance(45.0) == pytest.approx(54.25, abs=0.01)


class TestStep:
    def test_equilibrium_is_fixed_point(self, ev_params):
        assert step_thermal(22.0, 0.0, 22.0, 60.0, ev_params, cooling_active=True) == 22.0

    def test_heating_rate(self, ev_params):
        new = step_thermal(20.0, 500.0, 20.0, 60.0, ev_params)
        assert new - 20.0 == pytest.approx(500.0 / 5.579 * -math.expm1(-5.579 * 60.0 / 17120.0), rel=1e-12)
        assert new - 20.0 == pytest.approx(1.735, abs=1e-3)

    def test_heater_floor_while_charging(self, ev_params):
        assert step_thermal(-5.0, 0.0, -10.0, 60.0, ev_params, charging=True) == 0.0

    def test_no_heater_floor_while_driving(self, ev_params):
        assert step_thermal(-5.0, 0.0, -10.0, 60.0, ev_params, charging=False) < -5.0

    def test_dissipative_approach_to_ambient(self, ev_params):
        prev = 40.0
        for _ in range(500):
            t_pack = step_thermal(prev, 0.0, 20.0, 100.0, ev_params, cooling_active=True)
            if prev - 20.0 > 1e-9:
                assert t_pack < prev
            assert t_pack > 20.0 - 1e-12
            prev = t_pack

    def test_one_long_step_equals_many_short_ones(self, ev_params):
        # uncooled, the node is linear with constant coefficients, so the exact
        # update composes, as test_ecm's half steps do for the RC branches
        one = step_thermal(30.0, 500.0, 20.0, 3600.0, ev_params)
        many = 30.0
        for _ in range(3600):
            many = step_thermal(many, 500.0, 20.0, 1.0, ev_params)
        assert abs(one - many) < 1e-9
        # far beyond the old explicit-Euler bound of C / G = 3069 s, a step
        # lands on the fixed point instead of overshooting it
        assert step_thermal(30.0, 500.0, 20.0, 1e7, ev_params) == pytest.approx(20.0 + 500.0 / 5.579, abs=1e-9)

    def test_cooling_shortens_settling(self, ev_params):
        cooled = step_thermal(45.0, 0.0, 20.0, 60.0, ev_params, cooling_active=True)
        convection_only = step_thermal(45.0, 0.0, 20.0, 60.0, ev_params, cooling_active=False)
        assert cooled < convection_only

    @pytest.mark.parametrize("dt", [1.0, 60.0])
    def test_cooled_step_follows_the_cooling_law(self, ev_params, dt):
        # the law written out, operand for operand: the step must give it bit for bit
        sweep = [k * 0.37 for k in range(-200, 220)] + [0.0, -0.0, 45.0, -45.0, 1e-300, -1e300]
        for t_pack in sweep:
            conductance = ev_params.alpha_sum + cooling_conductance(t_pack)
            approach = -math.expm1(-conductance * dt / ev_params.c_pack)
            expected = t_pack + (20.0 + 800.0 / conductance - t_pack) * approach
            cooled = step_thermal(t_pack, 800.0, 20.0, dt, ev_params, cooling_active=True)
            assert cooled.hex() == expected.hex(), t_pack

    @given(
        t_pack=st.floats(-60.0, 80.0) | st.sampled_from([0.0, -0.0]),
        q_gen=st.floats(0.0, 5000.0),
        t_ambient=st.floats(-40.0, 50.0),
        dt=st.sampled_from([0.5, 1.0, 60.0, 3600.0]),
        charging=st.booleans(),
    )
    @example(t_pack=-0.0, q_gen=0.0, t_ambient=-10.0, dt=1.0, charging=False)
    @example(t_pack=-12.5, q_gen=100.0, t_ambient=-20.0, dt=60.0, charging=False)
    def test_cooled_step_is_the_builtin_abs_law(self, t_pack, q_gen, t_ambient, dt, charging):
        # the cooling flow's magnitude, taken with abs, at negative, zero and positive pack temperatures
        params = ThermalParams.for_mode(ThermalMode.EV_OPERATION)
        conductance = params.alpha_sum + cooling_conductance(t_pack)
        approach = -math.expm1(-conductance * dt / params.c_pack)
        expected = t_pack + (t_ambient + q_gen / conductance - t_pack) * approach
        if charging and expected < 0.0:
            expected = 0.0
        cooled = step_thermal(t_pack, q_gen, t_ambient, dt, params, cooling_active=True, charging=charging)
        assert struct.pack("<d", cooled) == struct.pack("<d", expected)


def test_mode_coefficients_differ():
    # the paper's directional coefficients; the model uses their sum
    assert _ALPHAS[ThermalMode.EV_OPERATION] == (0.726, 3.470, 1.383)
    assert _ALPHAS[ThermalMode.LAB_PACK_TEST] == (0.472, 2.863, 0.899)
    ev = ThermalParams.for_mode(ThermalMode.EV_OPERATION)
    lab = ThermalParams.for_mode(ThermalMode.LAB_PACK_TEST)
    # summed left to right, the float every pinned run was recorded with
    assert ev.alpha_sum.hex() == (0.726 + 3.470 + 1.383).hex()
    assert lab.alpha_sum.hex() == (0.472 + 2.863 + 0.899).hex()
    assert ThermalParams() == ev


def test_params_hold_the_capacity_and_one_conductance():
    assert [f.name for f in fields(ThermalParams)] == ["c_pack", "alpha_sum"]


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ThermalParams(c_pack=-1.0)


# a huge int is beyond the float range: it must not overflow in the check
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge_int"), pytest.param(-(10**400), id="-huge_int")]
)
@pytest.mark.parametrize("name", [f.name for f in fields(ThermalParams)])
def test_non_finite_params_rejected(name, value):
    # a NaN passes a "<= 0" check and would only fail at the first step
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
        ThermalParams(**{name: value})
