"""Capacity fade and resistance growth from superposed calendar and cycle aging.

Calendar aging is linear in time with rates from a (SOC, temperature)
coefficient table; cycle aging is linear in equivalent full cycles with rates
from a (cycle depth, mean SOC) table, fed by a streaming rainflow count of the
SOC trace. Both contributions accumulate independently on the same state, so
calendar-only plus cycle-only runs sum exactly to a combined run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .params import GridLookup, ParamGrid, load_grid, load_grids
from .rainflow import HalfCycle, RainflowCounter

# end-of-life thresholds
EOL_CAPACITY_FRACTION = 0.8  # of initial capacity
EOL_RESISTANCE_FACTOR = 2.0  # of initial inner resistance

CALENDAR_FILES = ("calendar_alpha_c", "calendar_alpha_r")
CYCLE_FILES = ("cycle_beta_c", "cycle_beta_r")


class EolStatus(Enum):
    OK = "ok"
    CAPACITY = "capacity_eol"
    RESISTANCE = "resistance_eol"
    BOTH = "both_eol"


@dataclass(frozen=True, eq=False)
class CalendarCoeffGrid:
    """Calendar fade/growth rates in 1/day over (storage SOC, temperature).

    Frozen, since a loaded grid is shared.
    """

    alpha_c: ParamGrid
    alpha_r: ParamGrid
    # rates.at(soc, temp): (alpha_c, alpha_r) at one storage point
    rates: GridLookup = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for grid in (self.alpha_c, self.alpha_r):
            if np.any(grid.values < 0):
                raise ValueError(f"{grid.name}: calendar rates must be >= 0")
        # hotter storage must age faster at any fixed SOC
        diffs = np.diff(self.alpha_c.values, axis=1)
        if np.any(diffs <= 0):
            raise ValueError("calendar_alpha_c: rate must increase with temperature")
        object.__setattr__(self, "rates", GridLookup("calendar rates", (self.alpha_c, self.alpha_r)))


@dataclass(frozen=True, eq=False)
class CycleCoeffGrid:
    """Cycle fade/growth per equivalent full cycle over (depth, mean SOC).

    Frozen, since a loaded grid is shared.
    """

    beta_c: ParamGrid
    beta_r: ParamGrid
    # rates.at(depth, mean_soc): (beta_c, beta_r) of one half cycle
    rates: GridLookup = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for grid in (self.beta_c, self.beta_r):
            if np.any(grid.values < 0):
                raise ValueError(f"{grid.name}: cycle rates must be >= 0")
        if np.any(np.diff(self.beta_c.values, axis=0) < 0):
            raise ValueError("cycle_beta_c: rate must not decrease with cycle depth")
        object.__setattr__(self, "rates", GridLookup("cycle rates", (self.beta_c, self.beta_r)))


def _load_fraction_grid(path: Path, name: str, data: bytes | None) -> ParamGrid:
    """Like the electrical loader, but the column axis is also percent."""
    grid = load_grid(path, name, data)
    return replace(grid, temp_breakpoints=tuple(t / 100.0 for t in grid.temp_breakpoints))


def load_calendar_coeffs(directory: str | Path) -> CalendarCoeffGrid:
    """Load calendar_alpha_c.csv / calendar_alpha_r.csv from ``directory``.

    While both files hold the same bytes, the grid built from them is
    returned again, and a table the grid refuses is named by its file (see
    :func:`~evplant.params.load_grids`).
    """
    return load_grids("calendar rates", CalendarCoeffGrid, directory, CALENDAR_FILES)


def load_cycle_coeffs(directory: str | Path) -> CycleCoeffGrid:
    """Load cycle_beta_c.csv / cycle_beta_r.csv from ``directory``.

    Rows are cycle depth in percent, columns mean SOC in percent; both axes
    are converted to fractions. While both files hold the same bytes, the
    grid built from them is returned again, and a table the grid refuses is
    named by its file (see :func:`~evplant.params.load_grids`).
    """
    return load_grids("cycle rates", CycleCoeffGrid, directory, CYCLE_FILES, _load_fraction_grid)


@dataclass
class AgingState:
    """Normalized capacity/resistance plus the cycle-counting bookkeeping.

    ``c_norm`` only ever decreases and ``r_norm`` only ever increases. The
    update operations mutate the state in place and return it.
    """

    c_norm: float = 1.0
    r_norm: float = 1.0
    elapsed_days: float = 0.0
    eqfc: float = 0.0
    counter: RainflowCounter = field(default_factory=RainflowCounter, repr=False)


def calendar_step(
    state: AgingState,
    soc: float,
    temp: float,
    dt_days: float,
    coeffs: CalendarCoeffGrid,
) -> AgingState:
    """Accrue storage aging for ``dt_days`` at the given operating point."""
    if not dt_days >= 0:
        raise ValueError(f"dt_days must be >= 0, got {dt_days}")
    alpha_c, alpha_r = coeffs.rates.at(soc, temp)
    state.c_norm -= alpha_c * dt_days
    state.r_norm += alpha_r * dt_days
    state.elapsed_days += dt_days
    return state


def _apply_half_cycle(state: AgingState, half: HalfCycle, coeffs: CycleCoeffGrid) -> None:
    weight = 0.5 * half.depth  # equivalent full cycles of this half cycle
    state.eqfc += weight
    beta_c, beta_r = coeffs.rates.at(half.depth, half.mean)
    state.c_norm -= weight * beta_c
    state.r_norm += weight * beta_r


def cycle_accumulate(state: AgingState, soc_sample: float, coeffs: CycleCoeffGrid) -> AgingState:
    """Feed one SOC sample to the rainflow counter and book closed half cycles."""
    for half in state.counter.feed(soc_sample):
        _apply_half_cycle(state, half, coeffs)
    return state


def flush_cycles(state: AgingState, coeffs: CycleCoeffGrid) -> AgingState:
    """Book the residual unclosed half cycles; call once at simulation end."""
    for half in state.counter.flush():
        _apply_half_cycle(state, half, coeffs)
    return state


def eol_check(state: AgingState) -> EolStatus:
    cap = state.c_norm <= EOL_CAPACITY_FRACTION
    res = state.r_norm >= EOL_RESISTANCE_FACTOR
    if cap and res:
        return EolStatus.BOTH
    if cap:
        return EolStatus.CAPACITY
    if res:
        return EolStatus.RESISTANCE
    return EolStatus.OK
