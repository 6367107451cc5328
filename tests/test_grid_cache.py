"""The memo of a lookup never changes a lookup result.

A random walk with jumps of (soc, temp) runs through fused lookups, calendar
rates, cycle rates (at depth soc and mean SOC temp / 100) and lookups of
table pairs, and every result is compared bit for bit to the cache-free
``ParamGrid.interpolate``. The points include exact breakpoints and their
float neighbours, exact repeats, tables with 2-point axes, moves out of the
grid hull on each side, and moves beyond every hull that change the query
but not its clamped point, which the memo is keyed on. The pairs share
breakpoints where their grids overlap and differ outside it, as the shipped
``ocv`` and R/C grids do, so the walk crosses between one merged cell for
all tables and one cell per grid. A ``GridLookup`` over any order of tables
on different grids returns their values in that order.
"""

from __future__ import annotations

import math
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

# Pairs of tables whose grids share some cells. OVERLAP: equal breakpoints
# where both grids reach, one hull wider on low SOC and one on high temp.
# ULP_WIDTH: one breakpoint a float apart, so two cells differ in width by
# one ulp. ROUNDED_EDGE: the first cell of the second grid ends one float
# past the first grid's hull, 2**-53 above 0.25, but both widths round to
# 1.0, so between them one hull clamps and the other does not.
PAIRS = {
    "overlap": (
        _grid("overlap_a", (0.0, 0.5, 1.0), (0.0, 20.0, 40.0), 11),
        _grid("overlap_b", (-0.5, 0.0, 0.5, 1.0), (0.0, 20.0, 40.0, 60.0), 12),
    ),
    "ulp_width": (
        _grid("ulp_width_a", (0.0, 1.0), (0.0, 20.0, 40.0), 13),
        _grid("ulp_width_b", (0.0, 1.0), (0.0, math.nextafter(20.0, math.inf), 40.0), 14),
    ),
    "rounded_edge": (
        _grid("rounded_edge_a", (-0.75, 0.25), (0.0, 40.0), 15),
        _grid("rounded_edge_b", (-0.75, 0.25 + 2.0**-53, 1.25), (0.0, 40.0), 16),
    ),
}
PAIR_GRIDS = [grid for pair in PAIRS.values() for grid in pair]

ALL_GRIDS = [SHIPPED.grid(n) for n in PARAM_NAMES] + list(SMALL.values()) + PAIR_GRIDS + [
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
SOCS = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from(SOC_NODES),
    st.builds(math.nextafter, st.sampled_from(SOC_NODES), st.sampled_from((-math.inf, math.inf))),
)
TEMPS = st.one_of(
    st.floats(-40.0, 70.0),
    st.sampled_from(TEMP_NODES),
    st.builds(math.nextafter, st.sampled_from(TEMP_NODES), st.sampled_from((-math.inf, math.inf))),
)
# the floats just inside and outside each grid's hull, where a wider grid's cell goes on
SOC_EDGES, TEMP_EDGES = (
    sorted({math.nextafter(axis[k], way) for axis in axes for k in (0, -1) for way in (-math.inf, math.inf)})
    for axes in (
        [g.soc_breakpoints for g in ALL_GRIDS + CYCLE_GRIDS],
        [g.temp_breakpoints for g in ALL_GRIDS] + [tuple(b * 100.0 for b in g.temp_breakpoints) for g in CYCLE_GRIDS],
    )
)
# how far a move beyond every grid's hull lands from the outermost breakpoint
BEYOND = st.floats(0.0, 50.0, exclude_min=True)


def _bits(values) -> bytes:
    """The float64 bit patterns of ``values``, so ``-0.0`` and ``0.0`` differ."""
    return struct.pack(f"{len(values)}d", *values)


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def _check_memo(lookup: GridLookup, soc: float, temp: float) -> None:
    """The memo of ``lookup`` after a call at (soc, temp) holds what its docstring says."""
    s, t, _, merged, cells = lookup.memo
    s_min, s_max, t_min, t_max = lookup.hull
    assert (s, t) == (_clamp(soc, s_min, s_max), _clamp(temp, t_min, t_max))
    points = []
    for group, cell in zip(lookup.groups, cells):
        s_min, s_max, t_min, t_max = group.hull
        g_s, g_t = _clamp(soc, s_min, s_max), _clamp(temp, t_min, t_max)
        points.append((g_s, g_t))
        # On a cell's upper edge both neighbours give the same value, so only
        # the cached cell shows whether the box is half-open like the bisect.
        assert cell[0] <= g_s < cell[1] and cell[2] <= g_t < cell[3]
        assert cell == group._locate(g_s, g_t)
    if merged[5]:  # a merged cell holds every table's corners, the empty one none
        assert merged[0] <= s < merged[1] and merged[2] <= t < merged[3]
        # merged only where every group's clamped point and cell geometry coincide
        assert all(point == (s, t) for point in points)
        assert all(_bits(cell[4]) == _bits(merged[4]) for cell in cells)
        assert merged[5] == tuple(corner for cell in cells for corner in cell[5])


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
        self.pairs = {name: GridLookup(name, pair) for name, pair in PAIRS.items()}
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

    @rule(soc=st.sampled_from(SOC_EDGES))
    def jump_soc_next_to_a_hull_edge(self, soc):
        self.soc = soc

    @rule(temp=st.sampled_from(TEMP_EDGES))
    def jump_temp_next_to_a_hull_edge(self, temp):
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
        for name, lookup in self.pairs.items():
            expected = tuple(grid.interpolate(soc, temp) for grid in PAIRS[name])
            assert _bits(lookup(soc, temp)) == _bits(expected), (name, soc, temp)
        queried = [(owner.lookup, temp) for owner in self.psets]
        queried += [(owner.rates, temp) for owner in self.cals]
        queried += [(owner.rates, mean) for owner in self.cycles]
        queried += [(lookup, temp) for lookup in self.pairs.values()]
        for lookup, t in queried:
            _check_memo(lookup, soc, t)


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
