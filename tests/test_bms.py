"""BMS gating and usable-capacity accounting."""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evplant.aging import AgingState
from evplant.bms import BmsLimits, GateReason, gate_current, usable_capacity
from evplant.engine import run_scenario
from evplant.scenario import ProfileRecord, ScenarioConfig, ScenarioProfile, SegmentKind


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def limits():
    return BmsLimits()


class TestGate:
    def test_charge_blocked_at_soc_max(self, limits):
        result = gate_current(30.0, 0.953, 3.9, 25.0, limits)
        assert result.allowed_current == 0.0
        assert result.reason is GateReason.SOC_HIGH

    def test_discharge_allowed_inside_envelope(self, limits):
        result = gate_current(-30.0, 0.50, 3.7, 25.0, limits)
        assert result.allowed_current == -30.0
        assert result.reason is GateReason.OK

    def test_temperature_fault_blocks_everything(self, limits):
        for current in (50.0, -50.0):
            result = gate_current(current, 0.5, 3.7, 60.0, limits)
            assert result.allowed_current == 0.0
            assert result.reason is GateReason.TEMPERATURE_FAULT
        result = gate_current(10.0, 0.5, 3.7, -30.0, limits)
        assert result.reason is GateReason.TEMPERATURE_FAULT

    def test_envelope_bounds_are_inclusive(self, limits):
        assert gate_current(10.0, 0.5, 3.7, 55.0, limits).reason is GateReason.OK
        assert gate_current(10.0, 0.5, 3.7, -25.0, limits).reason is GateReason.OK

    def test_discharge_blocked_at_soc_min(self, limits):
        result = gate_current(-20.0, 0.032, 3.4, 25.0, limits)
        assert result.allowed_current == 0.0
        assert result.reason is GateReason.SOC_LOW

    def test_voltage_cutoffs(self, limits):
        assert gate_current(20.0, 0.9, 4.2, 25.0, limits).reason is GateReason.VOLTAGE_HIGH
        assert gate_current(-20.0, 0.1, 3.0, 25.0, limits).reason is GateReason.VOLTAGE_LOW

    def test_current_magnitude_clamped_to_2c(self, limits):
        up = gate_current(150.0, 0.5, 3.7, 25.0, limits)
        assert up.allowed_current == 104.0
        assert up.reason is GateReason.CURRENT_LIMITED
        down = gate_current(-150.0, 0.5, 3.7, 25.0, limits)
        assert down.allowed_current == -104.0

    def test_cold_charge_request_passes(self, limits):
        # the gate leaves heating to the thermal model's heater floor
        assert gate_current(10.0, 0.5, 3.6, -5.0, limits).allowed_current == 10.0

    @given(
        requested=FINITE,
        soc=FINITE,
        v_cell=FINITE,
        t_pack=FINITE,
        windows=st.tuples(*[st.tuples(FINITE, FINITE).map(sorted)] * 3),
        max_current_a=FINITE,
    )
    def test_gate_never_flips_sign(self, requested, soc, v_cell, t_pack, windows, max_current_a):
        bounds = [bound for window in windows for bound in window]
        if max_current_a < 0:
            with pytest.raises(ValueError, match="^max_current_a must not be negative"):
                BmsLimits(*bounds, max_current_a)
            return
        limits = BmsLimits(*bounds, max_current_a)
        allowed = gate_current(requested, soc, v_cell, t_pack, limits).allowed_current
        assert allowed == 0.0 or (allowed > 0.0) == (requested > 0.0)
        assert abs(allowed) <= abs(requested)
        assert abs(allowed) <= limits.max_current_a

    def test_zero_request_passes(self, limits):
        assert gate_current(0.0, 0.5, 3.7, 25.0, limits).allowed_current == 0.0

    @given(
        requested=st.floats() | st.sampled_from([0.0, -0.0]),
        max_current_a=st.floats(0.0, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
    )
    @example(requested=-0.0, max_current_a=0.0)
    @example(requested=0.0, max_current_a=-0.0)
    @example(requested=104.0, max_current_a=104.0)
    @example(requested=-104.0, max_current_a=104.0)
    def test_current_cap_is_the_builtin_abs(self, requested, max_current_a):
        # inside the envelope, the gate is the cap: the magnitude against the
        # limit with abs, and the limit with the request's sign
        limits = BmsLimits(max_current_a=max_current_a)
        if abs(requested) > max_current_a:
            expected = (max_current_a if requested > 0 else -max_current_a, GateReason.CURRENT_LIMITED)
        else:
            expected = (requested, GateReason.OK)
        allowed, reason = gate_current(requested, 0.5, 3.7, 25.0, limits)
        assert reason is expected[1]
        assert struct.pack("<d", allowed) == struct.pack("<d", expected[0])


class TestUsableCapacity:
    def test_fresh_cell(self, limits, pset):
        ah = usable_capacity(limits, pset, AgingState())
        assert ah == pytest.approx(0.921 * 52.0, rel=1e-12)
        assert ah == pytest.approx(47.89, abs=5e-3)

    def test_scales_with_capacity_fade(self, limits, pset):
        ah = usable_capacity(limits, pset, AgingState(c_norm=0.8))
        assert ah == pytest.approx(0.921 * 52.0 * 0.8, rel=1e-12)
        assert ah == pytest.approx(38.31, abs=5e-3)

    def test_collapsed_window_gives_zero(self, pset):
        degenerate = BmsLimits(soc_min=0.5, soc_max=0.5)
        assert usable_capacity(degenerate, pset, AgingState()) == 0.0

    def test_inverted_window_rejected(self):
        for low, high in (("soc_min", "soc_max"), ("v_cell_min", "v_cell_max"), ("t_min_c", "t_max_c")):
            with pytest.raises(ValueError, match=f"^{low} must not exceed {high}$"):
                BmsLimits(**{low: 0.9, high: 0.1})
            BmsLimits(**{low: 0.5, high: 0.5})  # equal bounds are a degenerate window

    def test_max_reachable_dod(self, limits):
        assert limits.soc_max - limits.soc_min == pytest.approx(0.921, rel=1e-12)


class TestLimitValidation:
    # a huge int is beyond the float range: it must not overflow in the check
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge_int"), pytest.param(-(10**400), id="-huge_int")]
    )
    @pytest.mark.parametrize("name", [f.name for f in fields(BmsLimits)])
    def test_non_finite_limit_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
            BmsLimits(**{name: value})

    def test_negative_current_cap_rejected(self):
        # a negative cap would turn a clamped charge request into a discharge
        with pytest.raises(ValueError, match=r"^max_current_a must not be negative, got -5\.0$"):
            BmsLimits(max_current_a=-5.0)
        assert BmsLimits(max_current_a=0.0).max_current_a == 0.0

    def test_drive_stops_at_the_window_instead_of_a_nan_limit(self):
        # a NaN soc_min would compare false and let the drive empty the cell
        with pytest.raises(ValueError, match="^soc_min must be a finite number"):
            BmsLimits(soc_min=math.nan)
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -20000.0, 20.0, None),
                ProfileRecord(1200.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        traj = run_scenario(ScenarioConfig(initial_soc=0.1, initial_temp_c=20.0), profile)
        assert any("soc_low" in f for f in traj.flags)
        assert not any("soc_clip" in f for f in traj.flags)
        assert traj.soc.min() > 0.03

    @pytest.mark.parametrize(
        "kind, value_w, soc, limits",
        [
            # a window reaching SOC 1 lets the last charging step overshoot it
            pytest.param(SegmentKind.PLUGGED, 11040.0, 0.999, BmsLimits(soc_max=1.0), id="plugged"),
            # a window reaching SOC 0 lets the last drive step undershoot it
            pytest.param(
                SegmentKind.DRIVE, -20000.0, 0.002, BmsLimits(soc_min=0.0, v_cell_min=2.5), id="drive"
            ),
        ],
    )
    def test_a_window_at_the_soc_bound_is_clipped_and_flagged_once(self, kind, value_w, soc, limits):
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, kind, value_w, 20.0, None),
                ProfileRecord(600.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        traj = run_scenario(ScenarioConfig(initial_soc=soc, initial_temp_c=20.0, bms=limits), profile)
        assert sum("soc_clip" in f for f in traj.flags) == 1
        assert traj.flags.count(f"{kind.value}|soc_clip") == 1
        assert 0.0 <= traj.soc.min() and traj.soc.max() <= 1.0
