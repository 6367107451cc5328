"""Calendar/cycle aging accumulators and end-of-life detection."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from evplant.aging import (
    AgingState,
    CalendarCoeffGrid,
    CycleCoeffGrid,
    EolStatus,
    calendar_step,
    cycle_accumulate,
    eol_check,
    flush_cycles,
)
from evplant.params import ParamGrid


def make_grid(name, socs, temps, values):
    return ParamGrid(name, tuple(socs), tuple(temps), np.array(values, dtype=float))


@pytest.fixture
def zero_calendar():
    zero = [[0.0, 1e-12], [0.0, 1e-12]]
    return CalendarCoeffGrid(
        alpha_c=make_grid("calendar_alpha_c", (0.0, 1.0), (0.0, 60.0), zero),
        alpha_r=make_grid("calendar_alpha_r", (0.0, 1.0), (0.0, 60.0), zero),
    )


class TestCalendar:
    def test_zero_rate_region_changes_nothing(self, zero_calendar):
        state = AgingState()
        calendar_step(state, 0.5, 0.0, 100.0, zero_calendar)
        assert state.c_norm == 1.0
        assert state.r_norm == 1.0
        assert state.elapsed_days == 100.0

    def test_default_rate_at_full_soc_40c(self, cal_coeffs):
        assert cal_coeffs.alpha_c.interpolate(1.0, 40.0) == pytest.approx(3.96e-4, rel=1e-9)

    def test_eol_crossing_day_within_reported_window(self, cal_coeffs):
        alpha = cal_coeffs.alpha_c.interpolate(1.0, 40.0)
        crossing_day = 0.2 / alpha
        assert 431.0 <= crossing_day <= 589.0

    def test_linearity_in_time(self, cal_coeffs):
        a = AgingState()
        calendar_step(a, 0.66, 40.0, 0.5, cal_coeffs)
        calendar_step(a, 0.66, 40.0, 0.5, cal_coeffs)
        b = AgingState()
        calendar_step(b, 0.66, 40.0, 1.0, cal_coeffs)
        assert a.c_norm == pytest.approx(b.c_norm, rel=1e-14)
        assert a.r_norm == pytest.approx(b.r_norm, rel=1e-14)
        assert a.elapsed_days == b.elapsed_days

    def test_soc_rate_ordering_at_40c(self, cal_coeffs):
        a100 = cal_coeffs.alpha_c.interpolate(1.00, 40.0)
        a90 = cal_coeffs.alpha_c.interpolate(0.90, 40.0)
        a75 = cal_coeffs.alpha_c.interpolate(0.75, 40.0)
        assert a100 > a90 > a75
        # the published rate ratios the defaults are anchored to
        assert a100 / a90 == pytest.approx(2.12, rel=1e-6)
        assert a90 / a75 == pytest.approx(2.50, rel=1e-6)

    def test_temperature_rate_ordering_at_66pct(self, cal_coeffs):
        a60 = cal_coeffs.alpha_c.interpolate(0.66, 60.0)
        a40 = cal_coeffs.alpha_c.interpolate(0.66, 40.0)
        a25 = cal_coeffs.alpha_c.interpolate(0.66, 25.0)
        assert a60 / a40 == pytest.approx(5.7, rel=1e-6)
        assert a40 / a25 == pytest.approx(5.8, rel=1e-6)

    def test_hot_storage_hits_resistance_limit_first(self, cal_coeffs):
        state = AgingState()
        days = 0.0
        while eol_check(state) is EolStatus.OK:
            calendar_step(state, 0.66, 60.0, 1.0, cal_coeffs)
            days += 1.0
        assert eol_check(state) is EolStatus.RESISTANCE
        assert 200.0 <= days <= 300.0

    def test_negative_dt_rejected(self, cal_coeffs):
        with pytest.raises(ValueError):
            calendar_step(AgingState(), 0.5, 25.0, -1.0, cal_coeffs)

    @pytest.mark.parametrize("dt_days", [math.nan, -math.nan], ids=["nan", "negative_nan"])
    def test_nan_dt_rejected(self, cal_coeffs, dt_days):
        # a NaN passed `dt_days < 0` and turned c_norm into NaN
        state = AgingState()
        with pytest.raises(ValueError, match="^dt_days must be >= 0, got nan$"):
            calendar_step(state, 0.5, 25.0, dt_days, cal_coeffs)
        assert (state.c_norm, state.r_norm, state.elapsed_days) == (1.0, 1.0, 0.0)


class TestCycle:
    def test_constant_soc_accumulates_nothing(self, cyc_coeffs):
        state = AgingState()
        for _ in range(100):
            cycle_accumulate(state, 0.5, cyc_coeffs)
        flush_cycles(state, cyc_coeffs)
        assert state.eqfc == 0.0
        assert state.c_norm == 1.0

    def test_beta_anchors(self, cyc_coeffs):
        assert cyc_coeffs.beta_c.interpolate(0.80, 0.5) == pytest.approx(0.2 / 3634, rel=1e-6)
        assert cyc_coeffs.beta_c.interpolate(0.95, 0.5) == pytest.approx(0.2 / 2749, rel=1e-6)

    def test_one_triangle_period_books_depth_eqfc(self, cyc_coeffs):
        state = AgingState()
        for soc in (0.1, 0.9, 0.1, 0.9):  # one full period plus re-ascent to close it
            cycle_accumulate(state, soc, cyc_coeffs)
        flush_cycles(state, cyc_coeffs)
        # start half, one period, and the final flank: 2.5 half cycles of 0.8
        assert state.eqfc == pytest.approx(0.5 * 0.8 * 3, rel=1e-12)
        beta = cyc_coeffs.beta_c.interpolate(0.8, 0.5)
        assert 1.0 - state.c_norm == pytest.approx(state.eqfc * beta, rel=1e-12)

    def test_fade_scales_with_eqfc_times_beta(self, cyc_coeffs):
        state = AgingState()
        for _ in range(500):
            cycle_accumulate(state, 0.2, cyc_coeffs)
            cycle_accumulate(state, 0.8, cyc_coeffs)
        beta = cyc_coeffs.beta_c.interpolate(0.6, 0.5)
        assert 1.0 - state.c_norm == pytest.approx(state.eqfc * beta, rel=1e-9)

    def test_monotone_under_random_profile(self, cal_coeffs, cyc_coeffs):
        rng = random.Random(11)
        state = AgingState()
        prev_c, prev_r = state.c_norm, state.r_norm
        for _ in range(2000):
            cycle_accumulate(state, rng.random(), cyc_coeffs)
            calendar_step(state, rng.random(), rng.uniform(0, 60), 1e-3, cal_coeffs)
            assert state.c_norm <= prev_c
            assert state.r_norm >= prev_r
            prev_c, prev_r = state.c_norm, state.r_norm


def test_superposition_of_calendar_and_cycle(cal_coeffs, cyc_coeffs):
    rng = random.Random(3)
    socs = [rng.random() for _ in range(1500)]
    temps = [rng.uniform(10, 50) for _ in range(1500)]

    combined = AgingState()
    for soc, temp in zip(socs, temps):
        cycle_accumulate(combined, soc, cyc_coeffs)
        calendar_step(combined, soc, temp, 1e-3, cal_coeffs)
    flush_cycles(combined, cyc_coeffs)

    cal_only = AgingState()
    for soc, temp in zip(socs, temps):
        calendar_step(cal_only, soc, temp, 1e-3, cal_coeffs)
    cyc_only = AgingState()
    for soc in socs:
        cycle_accumulate(cyc_only, soc, cyc_coeffs)
    flush_cycles(cyc_only, cyc_coeffs)

    loss_combined = 1.0 - combined.c_norm
    loss_sum = (1.0 - cal_only.c_norm) + (1.0 - cyc_only.c_norm)
    assert loss_combined == pytest.approx(loss_sum, rel=1e-9, abs=1e-15)
    growth_combined = combined.r_norm - 1.0
    growth_sum = (cal_only.r_norm - 1.0) + (cyc_only.r_norm - 1.0)
    assert growth_combined == pytest.approx(growth_sum, rel=1e-9, abs=1e-15)


class TestEolCheck:
    def test_ok(self):
        assert eol_check(AgingState(c_norm=0.85, r_norm=1.5)) is EolStatus.OK

    def test_capacity_threshold_inclusive(self):
        assert eol_check(AgingState(c_norm=0.80, r_norm=1.2)) is EolStatus.CAPACITY

    def test_resistance_threshold_inclusive(self):
        assert eol_check(AgingState(c_norm=0.9, r_norm=2.0)) is EolStatus.RESISTANCE

    def test_both(self):
        assert eol_check(AgingState(c_norm=0.79, r_norm=2.1)) is EolStatus.BOTH


class TestCoefficientInvariants:
    def test_negative_calendar_rate_rejected(self):
        vals = [[1e-5, -1e-5], [1e-5, 2e-5]]
        with pytest.raises(ValueError, match=">= 0"):
            CalendarCoeffGrid(
                alpha_c=make_grid("calendar_alpha_c", (0.0, 1.0), (0.0, 60.0), vals),
                alpha_r=make_grid("calendar_alpha_r", (0.0, 1.0), (0.0, 60.0), [[0, 0], [0, 0]]),
            )

    def test_negative_cycle_rate_rejected(self):
        ok = [[1e-5, 1e-5], [2e-5, 2e-5]]
        with pytest.raises(ValueError, match="^cycle_beta_r: cycle rates must be >= 0$"):
            CycleCoeffGrid(
                beta_c=make_grid("cycle_beta_c", (0.1, 0.9), (0.25, 0.75), ok),
                beta_r=make_grid("cycle_beta_r", (0.1, 0.9), (0.25, 0.75), [[0, -1e-5], [0, 0]]),
            )

    def test_non_increasing_temperature_trend_rejected(self):
        flat = [[1e-5, 1e-5], [1e-5, 1e-5]]
        with pytest.raises(ValueError, match="increase with temperature"):
            CalendarCoeffGrid(
                alpha_c=make_grid("calendar_alpha_c", (0.0, 1.0), (0.0, 60.0), flat),
                alpha_r=make_grid("calendar_alpha_r", (0.0, 1.0), (0.0, 60.0), flat),
            )

    def test_decreasing_dod_trend_rejected(self):
        vals = [[3e-5, 3e-5], [2e-5, 2e-5]]
        ok = [[1e-5, 1e-5], [2e-5, 2e-5]]
        with pytest.raises(ValueError, match="decrease with cycle depth"):
            CycleCoeffGrid(
                beta_c=make_grid("cycle_beta_c", (0.1, 0.9), (0.25, 0.75), vals),
                beta_r=make_grid("cycle_beta_r", (0.1, 0.9), (0.25, 0.75), ok),
            )
