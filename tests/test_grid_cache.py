"""The memo and the cached cell of a grid group never change a lookup result.

A random walk with jumps of (soc, temp) runs through fused lookups, calendar
rates and cycle rates (at depth soc and mean SOC temp / 100), and every
result is compared bit for bit to the cache-free ``ParamGrid.interpolate``.
The points include exact breakpoints, exact repeats, tables with 2-point
axes, moves out of the grid hull on each side, and moves beyond every hull
that change the query but not its clamped point, which the memo is keyed
on. A ``GridLookup`` over any order of tables on different grids returns
their values in that order.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from evplant.aging import CalendarCoeffGrid, CycleCoeffGrid, load_calendar_coeffs, load_cycle_coeffs
from evplant.params import (
    PARAM_NAMES,
    CellParameterSet,
    GridLookup,
    ParamGrid,
    default_data_dir,
    load_parameter_set,
)

SHIPPED = load_parameter_set(default_data_dir())
SHIPPED_CAL = load_calendar_coeffs(default_data_dir())
SHIPPED_CYC = load_cycle_coeffs(default_data_dir())


def _grid(name, socs, temps, seed, rising_axis=1):
    values = np.random.default_rng(seed).uniform(0.5, 2.0, (len(socs), len(temps)))
    return ParamGrid(name, socs, temps, np.sort(values, axis=rising_axis))


# small tables on 2-point axes, three electrical grids and two calendar grids
SMALL = {
    "ocv": _grid("ocv", (0.0, 1.0), (0.0, 40.0), 1),
    "r1": _grid("r1", (0.0, 0.3, 1.0), (0.0, 40.0), 2),
    **{
        name: _grid(name, (0.0, 1.0), (-10.0, 0.0, 25.0), seed)
        for seed, name in enumerate(("r_ser", "r2", "c1", "c2"), start=3)
    },
}
SMALL_CAL = CalendarCoeffGrid(
    alpha_c=_grid("calendar_alpha_c", (0.0, 1.0), (25.0, 60.0), 7),
    alpha_r=_grid("calendar_alpha_r", (0.0, 0.5, 1.0), (25.0, 40.0, 60.0), 8),
)
SMALL_CYC = CycleCoeffGrid(
    beta_c=_grid("cycle_beta_c", (0.0, 1.0), (0.0, 0.4, 1.0), 9, rising_axis=0),
    beta_r=_grid("cycle_beta_r", (0.0, 0.5, 1.0), (0.0, 1.0), 10, rising_axis=0),
)

ALL_GRIDS = [SHIPPED.grid(n) for n in PARAM_NAMES] + list(SMALL.values()) + [
    SHIPPED_CAL.alpha_c,
    SHIPPED_CAL.alpha_r,
    SMALL_CAL.alpha_c,
    SMALL_CAL.alpha_r,
]
CYCLE_GRIDS = [SHIPPED_CYC.beta_c, SHIPPED_CYC.beta_r, SMALL_CYC.beta_c, SMALL_CYC.beta_r]
SOC_NODES = sorted({b for g in ALL_GRIDS + CYCLE_GRIDS for b in g.soc_breakpoints})
TEMP_NODES = sorted(
    {b for g in ALL_GRIDS for b in g.temp_breakpoints} | {b * 100.0 for g in CYCLE_GRIDS for b in g.temp_breakpoints}
)
SOCS = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(SOC_NODES))
TEMPS = st.one_of(st.floats(-40.0, 70.0), st.sampled_from(TEMP_NODES))
# how far a move beyond every grid's hull lands from the outermost breakpoint
BEYOND = st.floats(0.0, 50.0, exclude_min=True)


def _bits(values) -> bytes:
    """The float64 bit patterns of ``values``, so ``-0.0`` and ``0.0`` differ."""
    return struct.pack(f"{len(values)}d", *values)


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


class CachedLookups(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # new sets, so every run starts with empty caches
        self.psets = [
            CellParameterSet(**{n: SHIPPED.grid(n) for n in PARAM_NAMES}),
            CellParameterSet(**SMALL),
        ]
        self.cals = [
            CalendarCoeffGrid(alpha_c=SHIPPED_CAL.alpha_c, alpha_r=SHIPPED_CAL.alpha_r),
            CalendarCoeffGrid(alpha_c=SMALL_CAL.alpha_c, alpha_r=SMALL_CAL.alpha_r),
        ]
        self.cycles = [
            CycleCoeffGrid(beta_c=SHIPPED_CYC.beta_c, beta_r=SHIPPED_CYC.beta_r),
            CycleCoeffGrid(beta_c=SMALL_CYC.beta_c, beta_r=SMALL_CYC.beta_r),
        ]
        self.soc, self.temp = 0.5, 20.0

    @rule(d_soc=st.floats(-0.03, 0.03), d_temp=st.floats(-3.0, 3.0))
    def walk(self, d_soc, d_temp):
        self.soc += d_soc
        self.temp += d_temp

    @rule(soc=SOCS, temp=TEMPS)
    def jump(self, soc, temp):
        self.soc, self.temp = soc, temp

    @rule(soc=SOCS)
    def jump_soc(self, soc):
        self.soc = soc

    @rule(temp=TEMPS)
    def jump_temp(self, temp):
        self.temp = temp

    @rule()
    def repeat(self):
        pass

    @rule(below=st.booleans(), beyond=BEYOND)
    def leave_hull_on_soc(self, below, beyond):
        self.soc = SOC_NODES[0] - beyond if below else SOC_NODES[-1] + beyond

    @rule(below=st.booleans(), beyond=BEYOND)
    def leave_hull_on_temp(self, below, beyond):
        self.temp = TEMP_NODES[0] - beyond if below else TEMP_NODES[-1] + beyond

    # Beyond every hull on an axis, a new raw coordinate on the same side
    # clamps to the same point: the memo must hit, and still be right.
    @precondition(lambda self: not SOC_NODES[0] <= self.soc <= SOC_NODES[-1])
    @rule(beyond=BEYOND)
    def slide_soc_beyond_the_hull(self, beyond):
        self.soc = SOC_NODES[0] - beyond if self.soc < SOC_NODES[0] else SOC_NODES[-1] + beyond

    @precondition(lambda self: not TEMP_NODES[0] <= self.temp <= TEMP_NODES[-1])
    @rule(beyond=BEYOND)
    def slide_temp_beyond_the_hull(self, beyond):
        self.temp = TEMP_NODES[0] - beyond if self.temp < TEMP_NODES[0] else TEMP_NODES[-1] + beyond

    @invariant()
    def equals_interpolate_in_the_bisected_cell(self):
        soc, temp = self.soc, self.temp
        for pset in self.psets:
            expected = tuple(pset.grid(n).interpolate(soc, temp) for n in PARAM_NAMES)
            assert _bits(pset.lookup(soc, temp)) == _bits(expected), (soc, temp)
        for cal in self.cals:
            expected = (cal.alpha_c.interpolate(soc, temp), cal.alpha_r.interpolate(soc, temp))
            assert _bits(cal.rates(soc, temp)) == _bits(expected), (soc, temp)
        mean = temp / 100.0
        for cyc in self.cycles:
            expected = (cyc.beta_c.interpolate(soc, mean), cyc.beta_r.interpolate(soc, mean))
            assert _bits(cyc.rates(soc, mean)) == _bits(expected), (soc, mean)
        # The memo holds the clamped point. On a cell's upper edge both
        # neighbours give the same value, so only the cached cell shows
        # whether the box is half-open like the bisect.
        queried = [(owner.lookup, temp) for owner in self.psets]
        queried += [(owner.rates, temp) for owner in self.cals]
        queried += [(owner.rates, mean) for owner in self.cycles]
        for lookup, t in queried:
            for group in lookup.groups:
                s_min, s_max, t_min, t_max = group.hull
                memo_s, memo_t, _, cell = group.memo
                assert (memo_s, memo_t) == (_clamp(soc, s_min, s_max), _clamp(t, t_min, t_max)), (soc, t)
                s_in, s_out, t_in, t_out = cell[:4]
                assert s_in <= soc < s_out and t_in <= t < t_out, (soc, t)


CachedLookups.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestCachedLookups = CachedLookups.TestCase


MIXED_GRIDS = ALL_GRIDS + CYCLE_GRIDS


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(MIXED_GRIDS),
    n=st.integers(1, len(MIXED_GRIDS)),
    points=st.lists(st.tuples(SOCS, TEMPS), min_size=1, max_size=8),
)
def test_lookup_keeps_the_order_of_its_tables(order, n, points):
    grids = order[:n]
    lookup = GridLookup("mixed tables", grids)
    axes = [(g.s_axis, g.t_axis) for g in lookup.groups]
    assert sum(len(g.rows) for g in lookup.groups) == len(grids)
    assert all(a != b for a, b in zip(axes, axes[1:])), "runs of one grid share a group"
    for soc, temp in points + points[:1]:
        assert _bits(lookup(soc, temp)) == _bits([g.interpolate(soc, temp) for g in grids]), (soc, temp)
