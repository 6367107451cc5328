"""SOC- and temperature-dependent cell parameter tables: loading, lookup, validation.

One comma-separated matrix file per electrical parameter (ocv, r_ser, r1, r2,
c1, c2): first row holds the temperature breakpoints in deg C, first column the
SOC breakpoints in percent, the body the values in SI units (V, Ohm, F).

Tables that share a breakpoint grid are looked up together by one
:class:`_GridGroup`, which caches the last query, its values and its grid
cell: an exact repeat returns the stored values, and a query in the same
cell skips the clamp-and-bisect. Steps move SOC and temperature by far less
than a cell, so nearly every lookup reuses the cell. The cache gives the same
floats as a fresh lookup and is checked against each query before use, so
loaded sets stay immutable in effect and safe to share across concurrent
simulation runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

# Pack constants of the modeled vehicle (Smart e.d. 3rd gen., 93s1p traction battery)
NOMINAL_CAPACITY_AH = 52.0  # 0.5C discharge rating
V_CELL_MIN = 3.0  # V
V_CELL_MAX = 4.2  # V
N_SERIES = 93

# fixed file names expected inside a parameter data directory
PARAM_NAMES = ("ocv", "r_ser", "r1", "r2", "c1", "c2")

# grid value below this ratio to its neighbors' median is reported as suspicious
_OUTLIER_RATIO = 0.1

# OCV columns may only decrease by this much along SOC before being reported
_OCV_MONOTONE_TOL_V = 1e-3


class ParameterDataError(ValueError):
    """A parameter data file is missing or malformed."""


def default_data_dir() -> Path:
    """Directory with the parameter tables shipped inside the package."""
    return Path(__file__).parent / "data"


def _bilinear_cell(
    s_axis: tuple[float, ...], t_axis: tuple[float, ...], soc: float, temp: float
) -> tuple[int, int, float, float, float, float]:
    """Cell (i, j) and corner weights (w00, w10, w01, w11) of a clamped bilinear lookup."""
    s = min(max(soc, s_axis[0]), s_axis[-1])
    t = min(max(temp, t_axis[0]), t_axis[-1])
    i = min(max(bisect_right(s_axis, s) - 1, 0), len(s_axis) - 2)
    j = min(max(bisect_right(t_axis, t) - 1, 0), len(t_axis) - 2)
    fs = (s - s_axis[i]) / (s_axis[i + 1] - s_axis[i])
    ft = (t - t_axis[j]) / (t_axis[j + 1] - t_axis[j])
    return i, j, (1.0 - fs) * (1.0 - ft), fs * (1.0 - ft), (1.0 - fs) * ft, fs * ft


class _GridGroup:
    """Tables sharing one (SOC, temperature) breakpoint grid, looked up together.

    ``rows`` holds one value matrix per member table. :meth:`values` caches
    the last query, its values and the cell it fell in, as one tuple: an
    exact repeat returns the stored values, and a query inside the same cell
    reuses the cell's corner values and skips the bisect. A cell's box is
    half-open like the bisect (``lo <= x < hi``) and open-ended on the hull's
    outer sides, where the query is clamped onto the hull as in
    :func:`_bilinear_cell`. The weights and the term order are those of
    :func:`_bilinear_cell`, and the cache is read once and checked against
    the query before use, so it never changes a result and the group may be
    shared between threads.
    """

    __slots__ = ("s_axis", "t_axis", "rows", "_cache")

    def __init__(self, s_axis: tuple[float, ...], t_axis: tuple[float, ...], rows) -> None:
        self.s_axis = s_axis
        self.t_axis = t_axis
        self.rows = tuple(rows)
        # (soc, temp, values, cell) of the last query; cell as built by _cell
        self._cache: tuple[float, float, tuple[float, ...], tuple] | None = None

    def _cell(self, i: int, j: int) -> tuple:
        """Cell (i, j) as the flat tuple :meth:`values` unpacks (a plain tuple imports faster).

        Its fields: the box (s_in, s_out, t_in, t_out), which holds a query
        with ``s_in <= soc < s_out and t_in <= temp < t_out``; the hull
        (s_min, s_max, t_min, t_max) for the clamp on the outer cells; the
        cell origin and width per axis (s_lo, ds, t_lo, dt); and ``corners``,
        (v00, v10, v01, v11) per member.
        """
        s_axis, t_axis, inf = self.s_axis, self.t_axis, math.inf
        return (
            -inf if i == 0 else s_axis[i],
            inf if i == len(s_axis) - 2 else s_axis[i + 1],
            -inf if j == 0 else t_axis[j],
            inf if j == len(t_axis) - 2 else t_axis[j + 1],
            s_axis[0],
            s_axis[-1],
            t_axis[0],
            t_axis[-1],
            s_axis[i],
            s_axis[i + 1] - s_axis[i],
            t_axis[j],
            t_axis[j + 1] - t_axis[j],
            tuple((r[i][j], r[i + 1][j], r[i][j + 1], r[i + 1][j + 1]) for r in self.rows),
        )

    def values(self, soc: float, temp: float) -> tuple[float, ...]:
        """Each member's bilinear value at (soc, temp), which must not be NaN."""
        cache = self._cache
        cell = None
        if cache is not None:
            if cache[0] == soc and cache[1] == temp:
                return cache[2]
            s_in, s_out, t_in, t_out, s_min, s_max, t_min, t_max, s_lo, ds, t_lo, dt, corners = cache[3]
            if s_in <= soc < s_out and t_in <= temp < t_out:
                cell = cache[3]
                s = soc
                if s < s_min:
                    s = s_min
                elif s > s_max:
                    s = s_max
                t = temp
                if t < t_min:
                    t = t_min
                elif t > t_max:
                    t = t_max
                fs = (s - s_lo) / ds
                ft = (t - t_lo) / dt
                w00, w10, w01, w11 = (1.0 - fs) * (1.0 - ft), fs * (1.0 - ft), (1.0 - fs) * ft, fs * ft
        if cell is None:
            i, j, w00, w10, w01, w11 = _bilinear_cell(self.s_axis, self.t_axis, soc, temp)
            cell = self._cell(i, j)
            corners = cell[12]
        values = tuple([w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11 for v00, v10, v01, v11 in corners])
        self._cache = (soc, temp, values, cell)
        return values


_Reader = Callable[[float, float], tuple[float, ...]]


def _group_grids(grids) -> tuple[tuple[_GridGroup, ...], _Reader]:
    """Group two or more ``grids`` by breakpoint grid.

    Returns one :class:`_GridGroup` per distinct grid and ``read(soc, temp)``,
    which gives every grid's value as one tuple in the order of ``grids``.
    """
    members: dict = {}
    for idx, grid in enumerate(grids):
        members.setdefault((grid.soc_breakpoints, grid.temp_breakpoints), []).append((idx, grid.rows))
    groups = tuple(_GridGroup(s, t, (rows for _, rows in m)) for (s, t), m in members.items())
    if len(groups) == 1:
        return groups, groups[0].values
    position = [idx for m in members.values() for idx, _ in m]
    pick = itemgetter(*sorted(range(len(position)), key=position.__getitem__))

    def read(soc: float, temp: float) -> tuple[float, ...]:
        values: tuple[float, ...] = ()
        for group in groups:
            values += group.values(soc, temp)
        return pick(values)

    return groups, read


@dataclass(eq=False)
class ParamGrid:
    """2-D lookup table of one cell parameter over (SOC, temperature).

    SOC breakpoints are stored as fractions (table rows in percent are
    converted on load); temperatures in deg C; values in SI units. Lookups
    read ``rows``, the same values as tuples of Python floats, through a
    one-member :class:`_GridGroup`; its cache of the last query and cell is
    checked against every query and never changes a result. Immutable after
    construction.
    """

    name: str
    soc_breakpoints: tuple[float, ...]
    temp_breakpoints: tuple[float, ...]
    values: np.ndarray  # shape (n_soc, n_temp)
    rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False)
    _group: _GridGroup = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.soc_breakpoints) < 2 or len(self.temp_breakpoints) < 2:
            raise ParameterDataError(f"{self.name}: need at least 2x2 breakpoints")
        if any(b <= a for a, b in zip(self.soc_breakpoints, self.soc_breakpoints[1:])):
            raise ParameterDataError(f"{self.name}: SOC breakpoints not strictly increasing")
        if any(b <= a for a, b in zip(self.temp_breakpoints, self.temp_breakpoints[1:])):
            raise ParameterDataError(f"{self.name}: temperature breakpoints not strictly increasing")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.soc_breakpoints), len(self.temp_breakpoints)):
            raise ParameterDataError(
                f"{self.name}: value matrix shape {self.values.shape} does not match "
                f"{len(self.soc_breakpoints)} SOC x {len(self.temp_breakpoints)} temperature breakpoints"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterDataError(f"{self.name}: non-finite value in table")
        self.rows = tuple(map(tuple, self.values.tolist()))
        self._group = _GridGroup(self.soc_breakpoints, self.temp_breakpoints, (self.rows,))

    def interpolate(self, soc: float, temp: float) -> float:
        """Bilinear lookup with constant extrapolation outside the grid hull."""
        if math.isnan(soc) or math.isnan(temp):
            raise ValueError(f"{self.name}: NaN lookup coordinates")
        return self._group.values(soc, temp)[0]


# order of the values returned by CellParameterSet.lookup
LOOKUP_ORDER = ("ocv", "r_ser", "r1", "c1", "r2", "c2")


@dataclass(eq=False)
class CellParameterSet:
    """All electrical grids of one cell plus its ratings."""

    ocv: ParamGrid  # V
    r_ser: ParamGrid  # Ohm
    r1: ParamGrid  # Ohm
    r2: ParamGrid  # Ohm
    c1: ParamGrid  # F
    c2: ParamGrid  # F
    nominal_capacity_ah: float = NOMINAL_CAPACITY_AH
    v_min: float = V_CELL_MIN
    v_max: float = V_CELL_MAX
    n_series: int = N_SERIES

    _groups: tuple[_GridGroup, ...] = field(init=False, repr=False)
    _read: _Reader = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._groups, self._read = _group_grids([self.grid(name) for name in LOOKUP_ORDER])

    def grid(self, name: str) -> ParamGrid:
        return getattr(self, name)

    def lookup(self, soc: float, temp: float) -> tuple[float, float, float, float, float, float]:
        """(ocv, r_ser, r1, c1, r2, c2) at one operating point, unaged.

        Equal to each grid's :meth:`ParamGrid.interpolate`, but the clamp,
        bisect and bilinear weights are computed once per breakpoint grid,
        and the bisect only when the query leaves the previous query's cell.
        """
        if math.isnan(soc) or math.isnan(temp):
            raise ValueError("NaN lookup coordinates")
        return self._read(soc, temp)


def _load_grid(path: Path, name: str) -> ParamGrid:
    if not path.is_file():
        raise ParameterDataError(f"missing parameter file for '{name}': {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ParameterDataError(f"{name}: {path} has too few rows")

    header = lines[0].split(",")
    try:
        temps = tuple(float(tok) for tok in header[1:])
    except ValueError as exc:
        raise ParameterDataError(f"{name}: bad temperature header in {path}: {exc}") from None

    socs: list[float] = []
    rows: list[list[float]] = []
    for idx, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(temps) + 1:
            raise ParameterDataError(
                f"{name}: {path} row {idx} has {len(cells)} cells, expected {len(temps) + 1}"
            )
        try:
            socs.append(float(cells[0]) / 100.0)  # percent -> fraction
            rows.append([float(tok) for tok in cells[1:]])
        except ValueError:
            raise ParameterDataError(f"{name}: non-numeric cell in {path} row {idx}") from None

    return ParamGrid(name, tuple(socs), temps, np.array(rows))


def load_parameter_set(directory: str | Path) -> CellParameterSet:
    """Load all six electrical parameter tables from ``directory``.

    Raises :class:`ParameterDataError` naming the parameter, file, and row for
    any missing file, malformed row, non-numeric cell, or non-monotone
    breakpoint axis. Value-level findings (sign, time-constant ordering) are
    the job of :func:`validate_parameter_set`.
    """
    directory = Path(directory)
    grids = {name: _load_grid(directory / f"{name}.csv", name) for name in PARAM_NAMES}
    return CellParameterSet(**grids)


@dataclass
class ValidationReport:
    """Findings from a parameter-set scan; empty ``errors`` means valid."""

    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [f"errors: {len(self.errors)}", f"notes: {len(self.notes)}"]
        lines += [f"ERROR {msg}" for msg in self.errors]
        lines += [f"note  {msg}" for msg in self.notes]
        return "\n".join(lines)


def _scan_outliers(grid: ParamGrid, report: ValidationReport) -> None:
    v = grid.values
    n_s, n_t = v.shape
    for i in range(n_s):
        for j in range(n_t):
            neigh = []
            if i > 0:
                neigh.append(v[i - 1, j])
            if i < n_s - 1:
                neigh.append(v[i + 1, j])
            if j > 0:
                neigh.append(v[i, j - 1])
            if j < n_t - 1:
                neigh.append(v[i, j + 1])
            median = float(np.median(neigh))
            if median > 0 and v[i, j] / median < _OUTLIER_RATIO:
                report.notes.append(
                    f"{grid.name}: value {v[i, j]:g} at (soc={grid.soc_breakpoints[i]:.2f}, "
                    f"temp={grid.temp_breakpoints[j]:g}C) is far below its neighbors (median {median:g})"
                )


def validate_parameter_set(pset: CellParameterSet) -> ValidationReport:
    """Scan a loaded set for physical consistency.

    Errors: non-positive resistance/capacitance entries, RC time-constant
    ordering tau1 >= tau2 at any node, OCV decreasing along SOC by more than
    1 mV at fixed temperature, OCV outside the cell voltage window.
    Notes: grid values suspiciously far below their neighbors.
    """
    report = ValidationReport()

    for name in ("r_ser", "r1", "r2", "c1", "c2"):
        grid = pset.grid(name)
        for i, soc in enumerate(grid.soc_breakpoints):
            for j, temp in enumerate(grid.temp_breakpoints):
                if grid.values[i, j] <= 0:
                    report.errors.append(
                        f"{name}: non-positive value {grid.values[i, j]:g} at "
                        f"(soc={soc:.2f}, temp={temp:g}C)"
                    )

    # time-constant ordering, scanned on the r1 grid's nodes
    for soc in pset.r1.soc_breakpoints:
        for temp in pset.r1.temp_breakpoints:
            tau1 = pset.r1.interpolate(soc, temp) * pset.c1.interpolate(soc, temp)
            tau2 = pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)
            if tau1 >= tau2:
                report.errors.append(
                    f"time-constant ordering violated at (soc={soc:.2f}, temp={temp:g}C): "
                    f"tau1={tau1:g} s >= tau2={tau2:g} s"
                )

    ocv = pset.ocv
    for j, temp in enumerate(ocv.temp_breakpoints):
        col = ocv.values[:, j]
        for i in range(1, len(col)):
            if col[i] < col[i - 1] - _OCV_MONOTONE_TOL_V:
                report.errors.append(
                    f"ocv: column {temp:g}C decreases by more than 1 mV between "
                    f"soc={ocv.soc_breakpoints[i - 1]:.2f} and {ocv.soc_breakpoints[i]:.2f}"
                )
    out_of_window = (ocv.values < pset.v_min) | (ocv.values > pset.v_max)
    if np.any(out_of_window):
        idx = np.argwhere(out_of_window)
        for i, j in idx:
            report.errors.append(
                f"ocv: value {ocv.values[i, j]:g} V outside [{pset.v_min}, {pset.v_max}] at "
                f"(soc={ocv.soc_breakpoints[i]:.2f}, temp={ocv.temp_breakpoints[j]:g}C)"
            )

    for name in ("r_ser", "r1", "r2", "c1", "c2"):
        _scan_outliers(pset.grid(name), report)

    return report
