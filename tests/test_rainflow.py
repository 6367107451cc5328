"""Streaming rainflow counter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evplant.rainflow import RainflowCounter


def feed_all(counter, samples):
    out = []
    for x in samples:
        out.extend(counter.feed(x))
    return out


def triangle_samples(low, high, periods, points_per_flank=4):
    """low -> high -> low ... sampled along the flanks, starting at low."""
    up = [low + (high - low) * k / points_per_flank for k in range(1, points_per_flank + 1)]
    down = [high - (high - low) * k / points_per_flank for k in range(1, points_per_flank + 1)]
    samples = [low]
    for _ in range(periods):
        samples.extend(up)
        samples.extend(down)
    return samples


def test_constant_signal_counts_nothing():
    c = RainflowCounter()
    assert feed_all(c, [0.5] * 20) == []
    assert c.flush() == []


def test_monotone_ramp_flushes_one_half_cycle():
    c = RainflowCounter()
    assert feed_all(c, [0.0, 0.2, 0.4, 0.8, 1.0]) == []
    halves = c.flush()
    assert len(halves) == 1
    assert halves[0].depth == pytest.approx(1.0)
    assert halves[0].mean == pytest.approx(0.5)


def test_triangle_steady_state_one_half_per_reversal():
    c = RainflowCounter()
    halves = feed_all(c, triangle_samples(0.1, 0.9, periods=10))
    # first two reversals build the stack, every reversal after closes one half
    assert len(halves) == 2 * 10 - 2
    for h in halves:
        assert h.depth == pytest.approx(0.8, rel=1e-12)
        assert h.mean == pytest.approx(0.5, rel=1e-12)


def test_triangle_eqfc_per_period_equals_depth():
    depth = 0.6
    c1 = RainflowCounter()
    n1 = sum(0.5 * h.depth for h in feed_all(c1, triangle_samples(0.2, 0.8, periods=6)))
    c2 = RainflowCounter()
    n2 = sum(0.5 * h.depth for h in feed_all(c2, triangle_samples(0.2, 0.8, periods=7)))
    assert n2 - n1 == pytest.approx(depth, rel=1e-12)


def test_classic_sequence_matches_three_point_counting():
    # reversal series 0, 10, 2, 8, 0: one full interior cycle of range 6
    # plus two half cycles of range 10 once the series is closed out
    c = RainflowCounter()
    live = feed_all(c, [0.0, 10.0, 2.0, 8.0, 0.0])
    assert live == []  # nothing decidable until the series ends
    halves = c.flush()
    depths = sorted(round(h.depth, 9) for h in halves)
    assert depths == [6.0, 6.0, 10.0, 10.0]
    full = [h for h in halves if h.depth == 6.0]
    assert all(h.mean == pytest.approx(5.0) for h in full)


def test_interior_closure_emits_while_streaming():
    # after the dip 2 -> 8 is enclosed by a larger swing, it closes mid-stream
    c = RainflowCounter()
    out = feed_all(c, [0.0, 10.0, 2.0, 8.0, 0.0, 12.0])
    depths = sorted(round(h.depth, 9) for h in out)
    assert depths == [6.0, 6.0, 10.0]


def test_flush_resets_for_next_series():
    c = RainflowCounter()
    feed_all(c, triangle_samples(0.1, 0.9, periods=3))
    c.flush()
    halves = feed_all(c, triangle_samples(0.1, 0.9, periods=3)[1:])
    for h in halves:
        assert h.depth == pytest.approx(0.8, rel=1e-12)


# a few fixed levels beside any float, so a series also returns to a value it held before
LEVELS = st.one_of(st.sampled_from((0.0, -0.0, 0.1, 0.5, 0.9)), st.floats(-1.0, 1.0))


@example(samples=[0.1, 0.5, 0.9, 0.5, 0.1, 0.9], repeats=[1, 1, 1, 0, 1, 0])
@given(
    samples=st.lists(LEVELS, max_size=40),
    repeats=st.lists(st.integers(0, 3), min_size=40, max_size=40),
)
def test_repeated_samples_do_not_break_reversal_detection(samples, repeats):
    # a sample equal to the last one closes nothing and changes nothing,
    # which is what lets the engine skip a SOC that has not moved
    repeated = [x for x, extra in zip(samples, repeats) for _ in range(1 + extra)]
    plain, stuttering = RainflowCounter(), RainflowCounter()
    assert feed_all(stuttering, repeated) == feed_all(plain, samples)
    assert stuttering.flush() == plain.flush()


@given(st.lists(st.floats(-1e300, 1e300), max_size=60))
def test_half_cycle_depths_sum_to_total_travel(samples):
    # ASTM E1049-85: the half cycles decompose the series' travel exactly
    c = RainflowCounter()
    depth = sum(h.depth for h in feed_all(c, samples) + c.flush())
    assert depth == pytest.approx(float(np.sum(np.abs(np.diff(samples)))))
