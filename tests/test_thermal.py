"""Lumped pack thermal model: convection, liquid cooling, heater floor."""

from __future__ import annotations

import pytest

from evplant.thermal import (
    ThermalMode,
    ThermalParams,
    convection_power,
    coolant_flow_rate,
    cooling_power,
    stable_dt_limit,
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
        assert new - 20.0 == pytest.approx(500.0 * 60.0 / 17120.0, rel=1e-12)
        assert new - 20.0 == pytest.approx(1.752, abs=1e-3)

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

    def test_stability_bound_enforced(self, ev_params):
        bound = stable_dt_limit(30.0, ev_params, cooling_active=False)
        assert bound == pytest.approx(17120.0 / 5.579, rel=1e-12)
        dt = bound * 1.01
        with pytest.raises(ValueError) as info:
            step_thermal(30.0, 0.0, 20.0, dt, ev_params)
        assert str(info.value) == f"dt={dt} s exceeds the explicit-Euler stability bound {bound:.1f} s"

    def test_cooling_shortens_settling(self, ev_params):
        cooled = step_thermal(45.0, 0.0, 20.0, 60.0, ev_params, cooling_active=True)
        convection_only = step_thermal(45.0, 0.0, 20.0, 60.0, ev_params, cooling_active=False)
        assert cooled < convection_only

    def test_non_finite_rejected(self, ev_params):
        with pytest.raises(ValueError):
            step_thermal(float("nan"), 0.0, 20.0, 1.0, ev_params)
        with pytest.raises(ValueError):
            step_thermal(20.0, float("inf"), 20.0, 1.0, ev_params)


def test_mode_coefficients_differ():
    ev = ThermalParams.for_mode(ThermalMode.EV_OPERATION)
    lab = ThermalParams.for_mode(ThermalMode.LAB_PACK_TEST)
    assert (ev.alpha_x, ev.alpha_y, ev.alpha_z) == (0.726, 3.470, 1.383)
    assert (lab.alpha_x, lab.alpha_y, lab.alpha_z) == (0.472, 2.863, 0.899)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ThermalParams(c_pack=-1.0)
