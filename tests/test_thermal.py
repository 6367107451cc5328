"""Lumped pack thermal model: convection, liquid cooling, heater floor."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from evplant.thermal import (
    ThermalMode,
    ThermalParams,
    convection_power,
    coolant_flow_rate,
    cooling_power,
    step_thermal,
)


@pytest.fixture
def ev_params():
    return ThermalParams.for_mode(ThermalMode.EV_OPERATION)


@pytest.fixture
def lab_params():
    return ThermalParams.for_mode(ThermalMode.LAB_PACK_TEST)


class TestConvection:
    def test_zero_delta(self, ev_params):
        assert convection_power(20.0, 20.0, ev_params) == 0.0

    def test_ev_operation_coefficients(self, ev_params):
        assert ev_params.alpha_sum == pytest.approx(5.579, rel=1e-12)
        assert convection_power(30.0, 20.0, ev_params) == pytest.approx(55.79, rel=1e-12)

    def test_lab_coefficients(self, lab_params):
        assert lab_params.alpha_sum == pytest.approx(4.234, rel=1e-12)
        assert convection_power(30.0, 20.0, lab_params) == pytest.approx(42.34, rel=1e-12)

    def test_heat_capacity_default(self, ev_params, lab_params):
        assert ev_params.c_pack == 17120.0
        assert lab_params.c_pack == 17120.0


class TestCoolantLoop:
    def test_flow_rate_at_reference(self):
        assert coolant_flow_rate(45.0) == pytest.approx(1.513e-5, rel=1e-12)

    def test_flow_rate_zero(self):
        assert coolant_flow_rate(0.0) == 0.0

    def test_flow_rate_absolute_value(self):
        assert coolant_flow_rate(-10.0) == pytest.approx(10.0 / 45.0 * 1.513e-5, rel=1e-12)

    def test_cooling_power_example(self, ev_params):
        expected = 10.0 * 1080.0 * 3320.0 * (30.0 / 45.0 * 1.513e-5)
        assert cooling_power(30.0, 20.0, ev_params) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(361.7, abs=0.1)

    def test_cooling_power_zero_delta(self, ev_params):
        assert cooling_power(25.0, 25.0, ev_params) == 0.0

    def test_cooling_power_sign_flips_when_ambient_warmer(self, ev_params):
        # formula as printed: warm ambient would push heat into the pack,
        # which is why the engine gates the loop on positive delta-T
        assert cooling_power(20.0, 30.0, ev_params) < 0.0


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


def test_mode_coefficients_differ():
    ev = ThermalParams.for_mode(ThermalMode.EV_OPERATION)
    lab = ThermalParams.for_mode(ThermalMode.LAB_PACK_TEST)
    assert (ev.alpha_x, ev.alpha_y, ev.alpha_z) == (0.726, 3.470, 1.383)
    assert (lab.alpha_x, lab.alpha_y, lab.alpha_z) == (0.472, 2.863, 0.899)


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
