"""The cached cell of a grid group never changes a lookup result.

A random walk with jumps of (soc, temp) runs through fused lookups and
calendar rates, and every result is compared with ``==`` to a cache-free
bilinear evaluation. The points include exact breakpoints, points outside
the grid hull, exact repeats and tables with 2-point axes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from evplant.aging import CalendarCoeffGrid, load_calendar_coeffs
from evplant.params import (
    LOOKUP_ORDER,
    CellParameterSet,
    ParamGrid,
    _bilinear_cell,
    default_data_dir,
    load_parameter_set,
)

SHIPPED = load_parameter_set(default_data_dir())
SHIPPED_CAL = load_calendar_coeffs(default_data_dir())


def _grid(name, socs, temps, seed):
    values = np.random.default_rng(seed).uniform(0.5, 2.0, (len(socs), len(temps)))
    return ParamGrid(name, socs, temps, np.sort(values, axis=1))  # rising with temperature


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

ALL_GRIDS = [SHIPPED.grid(n) for n in LOOKUP_ORDER] + list(SMALL.values()) + [
    SHIPPED_CAL.alpha_c,
    SHIPPED_CAL.alpha_r,
    SMALL_CAL.alpha_c,
    SMALL_CAL.alpha_r,
]
SOC_NODES = sorted({b for g in ALL_GRIDS for b in g.soc_breakpoints})
TEMP_NODES = sorted({b for g in ALL_GRIDS for b in g.temp_breakpoints})
SOCS = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(SOC_NODES))
TEMPS = st.one_of(st.floats(-40.0, 70.0), st.sampled_from(TEMP_NODES))


def fresh(grid: ParamGrid, soc: float, temp: float) -> float:
    """Cache-free bilinear value of one grid."""
    i, j, w00, w10, w01, w11 = _bilinear_cell(grid.soc_breakpoints, grid.temp_breakpoints, soc, temp)
    lo, hi = grid.rows[i], grid.rows[i + 1]
    return w00 * lo[j] + w10 * hi[j] + w01 * lo[j + 1] + w11 * hi[j + 1]


class CachedLookups(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # new sets, so every run starts with empty caches
        self.psets = [
            CellParameterSet(**{n: SHIPPED.grid(n) for n in LOOKUP_ORDER}),
            CellParameterSet(**SMALL),
        ]
        self.cals = [
            CalendarCoeffGrid(alpha_c=SHIPPED_CAL.alpha_c, alpha_r=SHIPPED_CAL.alpha_r),
            CalendarCoeffGrid(alpha_c=SMALL_CAL.alpha_c, alpha_r=SMALL_CAL.alpha_r),
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

    @invariant()
    def equals_fresh_evaluation_in_the_bisected_cell(self):
        soc, temp = self.soc, self.temp
        for pset in self.psets:
            expected = tuple(fresh(pset.grid(n), soc, temp) for n in LOOKUP_ORDER)
            assert pset.lookup(soc, temp) == expected, (soc, temp)
        for cal in self.cals:
            expected = (fresh(cal.alpha_c, soc, temp), fresh(cal.alpha_r, soc, temp))
            assert cal.rates(soc, temp) == expected, (soc, temp)
        # On a cell's upper edge both neighbours give the same value, so only
        # the cached cell shows whether the box is half-open like the bisect.
        for owner in self.psets + self.cals:
            for group in owner._groups:
                s_in, s_out, t_in, t_out = group._cache[3][:4]
                assert s_in <= soc < s_out and t_in <= temp < t_out, (soc, temp)


CachedLookups.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestCachedLookups = CachedLookups.TestCase
