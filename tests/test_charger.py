"""Charger model: set-point quantization, ramps, efficiency, CV limiting."""

from __future__ import annotations

import dataclasses
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evplant.charger import (
    RAMP_DOWN_DELAY_S,
    RAMP_UP_DURATION_S,
    ChargerConfig,
    ChargerMode,
    PiecewiseLinear,
    ac_to_dc,
    achievable_setpoints,
    cc_cv_limit,
    command_setpoint,
    dc_to_ac,
    dc_to_ac_array,
    load_curve,
    quantize_setpoint,
    ramp_power,
)
from evplant.scenario import ScenarioConfig


CONFIGS = {
    "shipped": ChargerConfig(),
    # eta is 0.9 from 2000 W to 3000 W
    "flat": ChargerConfig(
        efficiency=PiecewiseLinear([(1000.0, 0.8), (2000.0, 0.9), (3000.0, 0.9), (4000.0, 0.95)])
    ),
}


def scanned_dc_to_ac(p_dc: float, config: ChargerConfig) -> float:
    """The reference inverse: a scan of the efficiency segments in order."""
    if p_dc == 0.0:
        return 0.0
    pts = config.efficiency.points
    if p_dc <= pts[0][0] * pts[0][1]:
        return p_dc / pts[0][1]
    if p_dc >= pts[-1][0] * pts[-1][1]:
        return p_dc / pts[-1][1]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        g0, g1 = x0 * y0, x1 * y1
        if g0 <= p_dc <= g1:
            slope = (y1 - y0) / (x1 - x0)
            if slope == 0.0:
                return p_dc / y0
            b = y0 - slope * x0
            return (-b + math.sqrt(b * b + 4.0 * slope * p_dc)) / (2.0 * slope)
    raise AssertionError("dc power not bracketed")


# every float a clamp can meet: signed zeros, infinities and the generated rest
ANY_FLOAT = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, math.inf, -math.inf])


def outcome(call, *args):
    """``call(*args)`` as its float's bit pattern, so -0.0 and 0.0 differ, or the type of what it raised."""
    try:
        return struct.pack("<d", call(*args))
    except ArithmeticError as exc:
        return type(exc)


def builtin_cv_limit(p_dc_request, pack_voltage, v_max_pack, v_pred_offset, v_pred_slope):
    """cc_cv_limit with the builtin clamp: the form the step's comparisons replace."""
    if p_dc_request <= 0:
        return 0.0
    return max(0.0, min(p_dc_request / pack_voltage, (v_max_pack - v_pred_offset) / v_pred_slope))


def assert_same_floats(actual: np.ndarray, expected: list[float]) -> None:
    """Element by element the same float64 bit patterns."""
    assert actual.dtype == np.float64
    assert actual.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


@pytest.fixture(scope="module")
def three_phase():
    return ChargerConfig(mode=ChargerMode.THREE_PHASE)


@pytest.fixture(scope="module")
def one_phase():
    return ChargerConfig(mode=ChargerMode.ONE_PHASE)


class TestQuantization:
    def test_three_phase_setpoint_set(self, three_phase):
        setpoints = achievable_setpoints(three_phase)
        assert setpoints[0] == 0.0
        assert setpoints[1:] == tuple(3 * 230.0 * n for n in range(6, 17))
        steps = [b - a for a, b in zip(setpoints[1:], setpoints[2:])]
        assert all(s == pytest.approx(690.0) for s in steps)
        assert setpoints[1] == 4140.0
        assert setpoints[-1] == 11040.0

    def test_examples(self, three_phase, one_phase):
        assert quantize_setpoint(5000.0, three_phase) == 4830.0  # 7 A
        assert quantize_setpoint(11040.0, three_phase) == 11040.0  # 16 A
        assert quantize_setpoint(3000.0, three_phase) == 0.0  # below 6 A
        assert quantize_setpoint(2000.0, one_phase) == 1800.0
        assert quantize_setpoint(500.0, one_phase) == 0.0
        assert quantize_setpoint(99999.0, one_phase) == 2900.0

    def test_idempotent_and_never_exceeds(self, three_phase):
        rng = random.Random(99)
        achievable = set(achievable_setpoints(three_phase))
        for _ in range(300):
            request = rng.uniform(0.0, 15000.0)
            q = quantize_setpoint(request, three_phase)
            assert q <= request
            assert q in achievable
            assert quantize_setpoint(q, three_phase) == q

    def test_negative_request_rejected(self, three_phase):
        with pytest.raises(ValueError):
            quantize_setpoint(-1.0, three_phase)


class TestCommand:
    def test_directions(self):
        up = command_setpoint(4140.0, 0.0)
        assert up.p_at_command == 0.0
        assert up == (4140.0, 0.0, RAMP_UP_DURATION_S)
        assert command_setpoint(0.0, 4140.0) == (0.0, 4140.0, RAMP_DOWN_DELAY_S)

    @pytest.mark.parametrize(
        "target, at_command, dead_time, settle",
        [
            (11040.0, 4140.0, 2.0, RAMP_UP_DURATION_S),  # up
            (6900.0, 0.0, 2.0, RAMP_UP_DURATION_S),  # up from 0 W through the dead time
            (6900.0, 0.0, 0.0, RAMP_UP_DURATION_S),  # up from 0 W, no dead time
            (4140.0, 11040.0, 2.0, RAMP_DOWN_DELAY_S),  # down
            (0.0, 2761.3, 2.0, RAMP_DOWN_DELAY_S),  # down to off
            (4140.0, 4140.0, 2.0, 0.0),  # equal
            (0.0, 0.0, 2.0, 0.0),  # equal, off
        ],
    )
    def test_settle_time_is_the_first_time_at_the_target(self, target, at_command, dead_time, settle):
        config = ChargerConfig(dead_time_s=dead_time)
        state = command_setpoint(target, at_command)
        assert state.t_settle == settle
        # the ramp is sampled every 1/64 s, and at its settle time exactly
        grid = sorted({k / 64.0 for k in range(64 * 60 + 1)} | {settle})
        first = next(t for t in grid if ramp_power(state, t, config) == target)
        assert first == settle
        assert all(ramp_power(state, t, config) == target for t in grid if t >= settle)


class TestRamp:
    def test_up_reaches_target_at_52s(self, three_phase):
        state = command_setpoint(11040.0, 4140.0)
        assert ramp_power(state, RAMP_UP_DURATION_S, three_phase) == 11040.0
        assert ramp_power(state, 100.0, three_phase) == 11040.0

    def test_up_starts_from_previous_power(self, three_phase):
        state = command_setpoint(11040.0, 4140.0)
        assert ramp_power(state, 0.0, three_phase) == 4140.0

    def test_up_from_zero_has_dead_time_but_still_lands_at_52s(self, three_phase):
        state = command_setpoint(6900.0, 0.0)
        assert ramp_power(state, 0.0, three_phase) == 0.0
        assert ramp_power(state, three_phase.dead_time_s * 0.99, three_phase) == 0.0
        assert ramp_power(state, RAMP_UP_DURATION_S, three_phase) == 6900.0
        mid = ramp_power(state, 10.0, three_phase)
        assert 0.0 < mid < 6900.0

    @given(
        target=st.floats(0.0, 22080.0, exclude_min=True),
        dead_time=st.floats(0.0, RAMP_UP_DURATION_S, exclude_max=True) | st.sampled_from([0.0, 3.0]),
        t=st.floats(0.0, RAMP_UP_DURATION_S, exclude_max=True) | st.sampled_from([0.0, -0.0, 3.0]),
    )
    def test_dead_time_clamp_is_the_builtin_max(self, target, dead_time, t):
        # up from 0 W, the ramp runs on max(0.0, t - dead_time) stretched to end at 52 s
        config = dataclasses.replace(CONFIGS["shipped"], dead_time_s=dead_time)
        state = command_setpoint(target, 0.0)
        t_eff = t
        if dead_time > 0.0:
            t_eff = max(0.0, t - dead_time) * RAMP_UP_DURATION_S / (RAMP_UP_DURATION_S - dead_time)
        expected = 0.0 + (target - 0.0) * config.ramp(t_eff)
        assert struct.pack("<d", ramp_power(state, t, config)) == struct.pack("<d", expected)

    def test_up_monotone_and_continuous(self, three_phase):
        rng = random.Random(5)
        for _ in range(50):
            start = rng.uniform(0.0, 9000.0)
            target = start + rng.uniform(100.0, 5000.0)
            state = command_setpoint(target, start)
            grid = [k * 0.25 for k in range(int(RAMP_UP_DURATION_S / 0.25) + 1)]
            values = [ramp_power(state, t, three_phase) for t in grid]
            assert values[0] == pytest.approx(start if start > 0 else 0.0)
            assert values[-1] == target
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert all(d >= -1e-9 for d in diffs)
            # piecewise-linear shape: no jump larger than the steepest segment
            max_slope = 0.8 / 10.0 * (target - start) * (52.0 / 50.0)
            assert all(abs(d) <= max_slope * 0.25 + 1e-9 for d in diffs)

    def test_down_holds_then_steps(self, three_phase):
        state = command_setpoint(4140.0, 11040.0)
        assert ramp_power(state, 0.0, three_phase) == 11040.0
        assert ramp_power(state, RAMP_DOWN_DELAY_S - 1e-9, three_phase) == 11040.0
        assert ramp_power(state, RAMP_DOWN_DELAY_S, three_phase) == 4140.0

    def test_no_direction_returns_target(self, three_phase):
        state = command_setpoint(4140.0, 4140.0)
        assert ramp_power(state, 1.0, three_phase) == 4140.0


class TestEfficiency:
    def test_anchor_points(self, three_phase):
        assert ac_to_dc(1800.0, three_phase) == pytest.approx(1314.0, rel=1e-12)
        assert ac_to_dc(11040.0, three_phase) == pytest.approx(10156.8, rel=1e-12)
        assert ac_to_dc(0.0, three_phase) == 0.0

    def test_clamped_below_first_anchor(self, three_phase):
        assert ac_to_dc(900.0, three_phase) == pytest.approx(900.0 * 0.73, rel=1e-12)

    def test_monotone_nondecreasing_efficiency(self, three_phase):
        grid = [100.0 * k for k in range(1, 140)]
        etas = [ac_to_dc(p, three_phase) / p for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))

    def test_inverse_roundtrip(self, three_phase):
        rng = random.Random(21)
        for _ in range(200):
            p_ac = rng.uniform(0.0, 13000.0)
            p_dc = ac_to_dc(p_ac, three_phase)
            assert dc_to_ac(p_dc, three_phase) == pytest.approx(p_ac, rel=1e-9, abs=1e-9)

    def test_flat_segment_is_inverted(self):
        flat = CONFIGS["flat"]
        for p_ac in (2200.0, 2500.0, 2900.0):
            assert dc_to_ac(ac_to_dc(p_ac, flat), flat) == pytest.approx(p_ac, rel=1e-12)

    @pytest.mark.parametrize("curve", sorted(CONFIGS))
    def test_bisected_inverse_equals_the_segment_scan(self, curve):
        config = CONFIGS[curve]
        for product in config.dc_anchors:
            for p_dc in (math.nextafter(product, 0.0), product, math.nextafter(product, math.inf)):
                assert dc_to_ac(p_dc, config) == scanned_dc_to_ac(p_dc, config)

    @settings(max_examples=300, deadline=None)
    @given(curve=st.sampled_from(sorted(CONFIGS)), fraction=st.floats(0.0, 1.2, exclude_min=True))
    def test_bisected_inverse_equals_the_segment_scan_anywhere(self, curve, fraction):
        config = CONFIGS[curve]
        p_dc = fraction * config.dc_anchors[-1]
        assert dc_to_ac(p_dc, config) == scanned_dc_to_ac(p_dc, config)

    @pytest.mark.parametrize("curve", sorted(CONFIGS))
    def test_array_inverse_equals_dc_to_ac_at_the_anchors_and_past_them(self, curve):
        config = CONFIGS[curve]
        points = [p for a in config.dc_anchors for p in (math.nextafter(a, 0.0), a, math.nextafter(a, math.inf))]
        points += [1.0, 0.5 * config.dc_anchors[0], 2.0 * config.dc_anchors[-1], 1e9]
        assert_same_floats(dc_to_ac_array(np.array(points), config), [dc_to_ac(p, config) for p in points])

    @settings(max_examples=200, deadline=None)
    @given(
        curve=st.sampled_from(sorted(CONFIGS)),
        fractions=st.lists(st.floats(0.0, 1.2, exclude_min=True), min_size=1, max_size=20),
    )
    def test_array_inverse_equals_dc_to_ac_anywhere(self, curve, fractions):
        config = CONFIGS[curve]
        points = [fraction * config.dc_anchors[-1] for fraction in fractions]
        assert_same_floats(dc_to_ac_array(np.array(points), config), [dc_to_ac(p, config) for p in points])

    @pytest.mark.parametrize("mode", ["one_phase", "three_phase"])
    def test_zero_dc_power_needs_no_ac(self, mode, request):
        assert dc_to_ac(0.0, request.getfixturevalue(mode)) == 0.0

    @pytest.mark.parametrize("convert", [ac_to_dc, dc_to_ac])
    def test_negative_power_rejected(self, three_phase, convert):
        with pytest.raises(ValueError, match="power must be >= 0, got -1.0"):
            convert(-1.0, three_phase)

    def test_bad_efficiency_curve_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ChargerConfig(efficiency=PiecewiseLinear([(1000.0, 0.9), (2000.0, 0.8)]))
        with pytest.raises(ValueError, match="0, 1"):
            ChargerConfig(efficiency=PiecewiseLinear([(1000.0, 0.9), (2000.0, 1.2)]))


class TestCvLimit:
    def test_constant_power_phase_is_division(self):
        i = cc_cv_limit(10157.0, 350.0, 390.6, v_pred_offset=344.0, v_pred_slope=0.41)
        assert i == pytest.approx(10157.0 / 350.0, rel=1e-12)
        assert i == pytest.approx(29.02, abs=5e-3)

    def test_voltage_ceiling_caps_current(self):
        # predicted v = 389.0 + 0.4*i; ceiling 390.6 -> i_cv = 4.0
        i = cc_cv_limit(20000.0, 388.0, 390.6, v_pred_offset=389.0, v_pred_slope=0.4)
        assert i == pytest.approx(4.0, rel=1e-12)

    def test_never_negative(self):
        i = cc_cv_limit(5000.0, 391.0, 390.6, v_pred_offset=391.0, v_pred_slope=0.4)
        assert i == 0.0

    def test_zero_request(self):
        assert cc_cv_limit(0.0, 350.0, 390.6, 344.0, 0.4) == 0.0

    def test_invalid_pack_voltage(self):
        with pytest.raises(ValueError):
            cc_cv_limit(100.0, 0.0, 390.6, 344.0, 0.4)

    @given(
        p_dc=ANY_FLOAT,
        pack_voltage=st.floats(0.0, exclude_min=True) | st.just(math.inf),
        v_max=ANY_FLOAT,
        offset=ANY_FLOAT,
        slope=ANY_FLOAT,
    )
    @example(p_dc=1000.0, pack_voltage=350.0, v_max=390.0, offset=390.0, slope=0.4)  # i_cv = 0.0
    @example(p_dc=1000.0, pack_voltage=350.0, v_max=390.0, offset=390.0, slope=-0.4)  # i_cv = -0.0
    @example(p_dc=1000.0, pack_voltage=350.0, v_max=math.inf, offset=math.inf, slope=0.4)  # i_cv = nan
    @example(p_dc=math.inf, pack_voltage=math.inf, v_max=390.0, offset=380.0, slope=0.4)  # i_cc = nan
    @example(p_dc=1000.0, pack_voltage=350.0, v_max=390.0, offset=380.0, slope=0.0)  # i_cv divides by 0
    def test_clamp_is_the_builtin_min_and_max(self, p_dc, pack_voltage, v_max, offset, slope):
        args = (p_dc, pack_voltage, v_max, offset, slope)
        assert outcome(cc_cv_limit, *args) == outcome(builtin_cv_limit, *args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cfg: ac_to_dc(math.nan, cfg), "AC power must be >= 0, got nan"),
        (lambda cfg: dc_to_ac(math.nan, cfg), "DC power must be >= 0, got nan"),
        (lambda cfg: cc_cv_limit(1000.0, math.nan, 390.0, 380.0, 0.1), "pack voltage must be positive, got nan"),
    ],
    ids=["ac_to_dc", "dc_to_ac", "cc_cv_limit"],
)
def test_a_nan_power_or_pack_voltage_is_refused(three_phase, call, message):
    # a NaN fails every comparison, so each guard asks for the valid range
    # and refuses what is not in it
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(three_phase)


class TestConfigValidation:
    def test_ramp_must_span_zero_to_one(self):
        with pytest.raises(ValueError, match="ramp curve"):
            ChargerConfig(ramp=PiecewiseLinear([(0.0, 0.0), (52.0, 0.9)]))
        with pytest.raises(ValueError, match="ramp curve"):
            ChargerConfig(ramp=PiecewiseLinear([(0.0, 0.1), (52.0, 1.0)]))

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(0.0, 0.0)], "need at least two anchor points"),
            ([(0.0, 0.0), (0.0, 1.0)], "anchor abscissae must be strictly increasing"),
            ([(0.0, 0.0), (math.nan, 0.5), (52.0, 1.0)], "non-finite anchor point"),
            ([(0.0, 0.0), (26.0, math.inf), (52.0, 1.0)], "non-finite anchor point"),
        ],
    )
    def test_bad_anchor_points_rejected(self, tmp_path, points, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PiecewiseLinear(points)
        path = tmp_path / "curve.csv"
        path.write_text("t_s,fraction\n" + "".join(f"{x},{y}\n" for x, y in points))
        with pytest.raises(ValueError) as info:
            load_curve(path)
        assert str(info.value) == f"{path}: {message}"

    def test_curve_width_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t_s,fraction,extra\n0,0,0\n52,1,0\n")
        with pytest.raises(ValueError) as info:
            load_curve(path)
        assert str(info.value) == f"{path} row 1: expected 2 cells, got 3"

    @pytest.mark.parametrize("volts", [0.0, -230.0, math.nan, math.inf])
    def test_grid_voltage_must_be_positive(self, volts):
        with pytest.raises(ValueError, match="^grid_voltage must be a positive finite number, got "):
            ChargerConfig(grid_voltage=volts)

    def test_dead_time_bounds(self):
        with pytest.raises(ValueError, match=r"^dead_time_s must lie in \[0, 52\) s, got 52\.0$"):
            ChargerConfig(dead_time_s=52.0)

    @pytest.mark.parametrize("dead_time", [-1.0, 52.0, 60.0])
    def test_dead_time_message_is_the_scenario_config_message(self, dead_time):
        with pytest.raises(ValueError) as charger:
            ChargerConfig(dead_time_s=dead_time)
        with pytest.raises(ValueError) as scenario:
            ScenarioConfig(dead_time_s=dead_time)
        assert str(charger.value) == str(scenario.value) == f"dead_time_s must lie in [0, 52) s, got {dead_time!r}"

    def test_string_abscissae_are_checked_as_numbers(self):
        # "10" < "9" as text, 10 > 9 as numbers
        with pytest.raises(ValueError, match="^anchor abscissae must be strictly increasing$"):
            PiecewiseLinear([("10", 0), ("9", 1)])
        curve = PiecewiseLinear([("9", "0"), ("10", "1")])
        assert curve(9.5) == 0.5
        assert curve.points == ((9.0, 0.0), (10.0, 1.0))
