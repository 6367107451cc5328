"""The memo of a lookup never changes a lookup result.

A random walk with jumps of (soc, temp) runs through fused lookups, calendar
rates, cycle rates (at depth soc and mean SOC temp / 100) and lookups of
table pairs, and every result is compared bit for bit to the cache-free
``ParamGrid.interpolate``. The points include exact breakpoints and their
float neighbours, exact repeats, tables with 2-point axes, moves out of the
grid hull on each side, and moves beyond every hull that change the query
but not its clamped point, which the memo is keyed on. The pairs share
breakpoints where their grids overlap and differ outside it, as the shipped
``ocv`` and R/C grids do, so the walk crosses between union cells with one
run of tables and cells with one run per grid, some fixed at a hull edge.
Generated tables on breakpoint sets that overlap in part, with hulls that
differ on every side, walk the same way. A ``GridLookup`` over any order of
tables on different grids returns their values in that order.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from evplant import params
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
    s, t, values, cell = lookup.memo
    s_min, s_max, t_min, t_max = lookup.hull
    assert (s, t) == (_clamp(soc, s_min, s_max), _clamp(temp, t_min, t_max))
    # On a cell's upper edge both neighbours give the same value, so only
    # the cell's box shows whether it is half-open like the bisect.
    assert cell[0] <= s < cell[1] and cell[2] <= t < cell[3]
    assert lookup._locate(s, t) is cell
    assert sum(len(run[4]) for run in cell[4]) == len(lookup.grids)
    assert _bits(values) == _bits([grid.interpolate(soc, temp) for grid in lookup.grids])


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
    for soc, temp in points + points[:1]:
        assert _bits(lookup(soc, temp)) == _bits([g.interpolate(soc, temp) for g in grids]), (soc, temp)
    for cell in lookup.cells.values():
        geometries = [_bits(run[:4]) for run in cell[4]]
        assert all(a != b for a, b in zip(geometries, geometries[1:])), "tables of one geometry share a run"


@st.composite
def overlapping_axes(draw, n_tables: int, ulp: bool) -> list[tuple[float, ...]]:
    """One breakpoint axis per table, drawn from a shared pool, with hulls that differ on both sides.

    Table k's lower edge is the pool's ``lows[k]``-th breakpoint and its
    upper edge the ``highs[k]``-th from the top, so no two tables share an
    edge. Its inner breakpoints are a random subset of the pool points
    inside every hull, so the tables share some and differ in others. With
    ``ulp``, table 0 holds one of those points and table 1 its float
    neighbour, a cell one ulp wide on the union grid.
    """
    steps = draw(st.lists(st.integers(-200, 200), min_size=2 * n_tables + 1, max_size=12, unique=True))
    pool = [step / 4.0 for step in sorted(steps)]
    lows, highs = draw(st.permutations(range(n_tables))), draw(st.permutations(range(n_tables)))
    inner = pool[n_tables:-n_tables]
    axes = [
        {pool[lows[k]], pool[-1 - highs[k]], *draw(st.lists(st.sampled_from(inner), unique=True))}
        for k in range(n_tables)
    ]
    if ulp:
        point = draw(st.sampled_from(inner))
        axes[0].add(point)
        axes[1].add(math.nextafter(point, math.inf))
    return [tuple(sorted(axis)) for axis in axes]


def _coordinates(axis: tuple[float, ...]):
    """Floats around the axis's hull, its breakpoints and their float neighbours."""
    return st.one_of(
        st.floats(axis[0] - 5.0, axis[-1] + 5.0),
        st.sampled_from(axis),
        st.builds(math.nextafter, st.sampled_from(axis), st.sampled_from((-math.inf, math.inf))),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_tables=st.integers(2, 3), ulp=st.sampled_from(("none", "soc", "temp")))
def test_lookup_on_generated_grids_equals_interpolate(data, n_tables, ulp):
    s_axes = data.draw(overlapping_axes(n_tables, ulp == "soc"))
    t_axes = data.draw(overlapping_axes(n_tables, ulp == "temp"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grids = [
        ParamGrid(f"generated_{k}", s, t, rng.uniform(-2.0, 2.0, (len(s), len(t))))
        for k, (s, t) in enumerate(zip(s_axes, t_axes))
    ]
    lookup = GridLookup("generated tables", grids)
    step = st.one_of(
        st.tuples(st.just("jump"), st.tuples(_coordinates(lookup.s_axis), _coordinates(lookup.t_axis))),
        st.tuples(st.just("move"), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))),
    )
    soc, temp = lookup.s_axis[0], lookup.t_axis[0]
    for kind, (x, y) in data.draw(st.lists(step, min_size=1, max_size=40)):
        soc, temp = (soc + x, temp + y) if kind == "move" else (x, y)
        expected = [grid.interpolate(soc, temp) for grid in grids]
        assert _bits(lookup(soc, temp)) == _bits(expected), (soc, temp)
        _check_memo(lookup, soc, temp)


@pytest.mark.parametrize("order", [1, -1], ids=["negative-first", "positive-first"])
def test_cell_origins_of_opposite_zero_sign_start_two_runs(order):
    # with the runs keyed on ==, both tables took the first one's origin
    # and one of them read 0.0 where interpolate gives -0.0
    values = [[1.0, 1.0], [-0.0, -0.0], [-0.0, -0.0]]
    grids = [
        ParamGrid("negative_zero", (-1.0, -0.0, 1.0), (0.0, 1.0), values),
        ParamGrid("positive_zero", (-1.0, 0.0, 1.0), (0.0, 1.0), values),
    ][::order]
    lookup = GridLookup("signed zeros", grids)
    expected = [grid.interpolate(-0.0, 0.0) for grid in grids]
    assert _bits(lookup(-0.0, 0.0)) == _bits(expected)
    assert _bits(expected) != _bits(expected[::-1]), "the two tables no longer differ in sign"
    (cell,) = lookup.cells.values()
    assert len(cell[4]) == 2


@pytest.mark.parametrize("order", [1, -1], ids=["negative-first", "positive-first"])
def test_a_repeat_with_a_zero_of_the_other_sign_is_not_an_exact_repeat(order):
    # with the repeat check on ==, the query at -0.0 returned the values at 0.0
    values = [[1.0, 1.0], [-0.0, -0.0], [-0.0, -0.0]]
    grids = [
        ParamGrid("negative_zero", (-1.0, -0.0, 1.0), (0.0, 1.0), values),
        ParamGrid("positive_zero", (-1.0, 0.0, 1.0), (0.0, 1.0), values),
    ][::order]
    lookup = GridLookup("signed zeros", grids)
    for soc in (0.0, -0.0, 0.0):
        expected = [grid.interpolate(soc, 0.0) for grid in grids]
        assert _bits(lookup(soc, 0.0)) == _bits(expected), soc
    assert _bits(expected) != _bits([grid.interpolate(-0.0, 0.0) for grid in grids]), "the signs no longer matter"


@pytest.mark.parametrize("order", [1, -1], ids=["negative-first", "positive-first"])
def test_a_zero_hull_edge_clamps_as_interpolate_does(order):
    # a hull edge with the sign of the table listing it first would read
    # -0.0 in the other table, where interpolate clamps onto its own edge
    values = [[-0.0, -0.0], [1.0, 1.0]]
    grids = [
        ParamGrid("negative_edge", (-0.0, 2.0), (0.0, 1.0), values),
        ParamGrid("positive_edge", (0.0, 1.0), (0.0, 1.0), values),
    ][::order]
    lookup = GridLookup("signed zero edges", grids)
    expected = [grid.interpolate(-1.0, 0.0) for grid in grids]
    assert _bits(expected) == _bits([0.0, 0.0])
    assert _bits(lookup(-1.0, 0.0)) == _bits(expected)


@st.composite
def signed_zero_axis(draw) -> tuple[float, ...]:
    """A breakpoint axis that holds a zero of either sign: its lower edge, its upper edge or inside."""
    below = draw(st.lists(st.sampled_from((-2.0, -1.0, -0.5)), max_size=2, unique=True))
    above = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=0 if below else 1, max_size=2, unique=True))
    return (*sorted(below), draw(st.sampled_from((0.0, -0.0))), *sorted(above))


SIGNED_ZEROS = st.sampled_from((-0.0, 0.0, -1.0, 1.0, 0.25))
COORDINATES_NEAR_ZERO = st.one_of(st.sampled_from((-0.0, 0.0, -5.0, 5.0)), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_tables=st.integers(2, 3))
def test_lookup_on_signed_zero_axes_equals_interpolate(data, n_tables):
    # a fresh lookup per query, so the memo's exact-repeat check, which
    # compares with ==, plays no part
    grids = []
    for k in range(n_tables):
        s, t = data.draw(signed_zero_axis()), data.draw(signed_zero_axis())
        row = st.lists(SIGNED_ZEROS, min_size=len(t), max_size=len(t))
        values = data.draw(st.lists(row, min_size=len(s), max_size=len(s)))
        grids.append(ParamGrid(f"signed_zero_{k}", s, t, values))
    queries = st.lists(st.tuples(COORDINATES_NEAR_ZERO, COORDINATES_NEAR_ZERO), min_size=1, max_size=10)
    for soc, temp in data.draw(queries):
        expected = [grid.interpolate(soc, temp) for grid in grids]
        assert _bits(GridLookup("signed zeros", grids)(soc, temp)) == _bits(expected), (soc, temp)


def test_lookups_of_one_layout_share_one_evaluator_factory(monkeypatch):
    # two lookups of two tables on one grid, one table a copy of the other
    # with its signs flipped: -0.0 where the other holds 0.0
    monkeypatch.setattr(params, "_evaluators", {})
    values = np.array([[0.0, 1.5, -2.0], [0.25, 0.0, 3.0], [-1.0, 0.5, 0.0]])
    axes = ((-1.0, 0.0, 1.0), (-0.0, 10.0, 20.0))
    lookups = [
        GridLookup(f"sign {sign}", [ParamGrid("a", *axes, sign * values), ParamGrid("b", *axes, sign * values.T)])
        for sign in (1.0, -1.0)
    ]
    returned = []
    for soc, temp in [(-2.0, -5.0), (0.0, 10.0), (-0.0, 10.0), (0.5, 15.0), (1.0, 20.0), (-0.5, 30.0)]:
        for lookup in lookups:
            expected = [grid.interpolate(soc, temp) for grid in lookup.grids]
            returned += lookup(soc, temp)
            assert _bits(returned[-2:]) == _bits(expected), (lookup.label, soc, temp)
    assert _bits([-0.0]) in {_bits([v]) for v in returned}, "no lookup returned -0.0"
    assert list(params._evaluators) == [(2,)]
    # one closure per cell, all over the code of the one factory
    evaluators = [cell[5] for lookup in lookups for cell in lookup.cells.values()]
    assert len(evaluators) == 6 and len({evaluate.__code__ for evaluate in evaluators}) == 1
