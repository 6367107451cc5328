"""SOC- and temperature-dependent cell parameter tables: loading, lookup, validation.

One comma-separated matrix file per electrical parameter (ocv, r_ser, r1, r2,
c1, c2): first row holds the temperature breakpoints in deg C, first column the
SOC breakpoints in percent, the body the values in SI units (V, Ohm, F).
Every CSV file is read by :func:`read_csv_rows`, and every number of a
profile, table, curve or trajectory parsed by :func:`float_cells`; bad data
raises a plain ``ValueError`` naming the file and row, or the table. The
engine looks tables up through :class:`GridLookup` objects
(``CellParameterSet.lookup``, the aging ``rates``). Each reads its tables on
the union of their breakpoints: one union cell per point, one set of
weights per run of tables whose cells share a geometry, and a memo of the
last clamped point, its values and its cell. :meth:`ParamGrid.interpolate`
is their cache-free reference.
"""

from __future__ import annotations

import math
import numbers
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import groupby, product
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# Pack constants of the modeled vehicle (Smart e.d. 3rd gen., 93s1p traction battery)
NOMINAL_CAPACITY_AH = 52.0  # 0.5C discharge rating
# cell voltage window: the OCV table's valid range and the default BMS limits
V_CELL_MIN = 3.0  # V
V_CELL_MAX = 4.2  # V
N_SERIES = 93

# fixed file names expected inside a parameter data directory
PARAM_NAMES = ("ocv", "r_ser", "r1", "r2", "c1", "c2")

# grid value below this ratio to its neighbors' median is reported as suspicious
_OUTLIER_RATIO = 0.1

# OCV columns may only decrease by this much along SOC before being reported
_OCV_MONOTONE_TOL_V = 1e-3


def check_finite(record) -> None:
    """Raise ``ValueError`` naming the first real-number field of a dataclass that is no finite float.

    That is a NaN, an infinity or a number beyond the float range, such as ``10**400``.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        # False for NaN; compared exactly, so a huge int never converts and overflows
        if isinstance(value, numbers.Real) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


def default_data_dir() -> Path:
    """Directory with the parameter tables shipped inside the package."""
    return Path(__file__).parent / "data"


def read_csv_rows(path: str | Path, what: str, header: str | None) -> Iterator[tuple[int, list[str]]]:
    """Rows of a comma-separated file as (line number, cells), read lazily.

    Blank lines are skipped, and line numbers count from 1 at the top of the
    file, blank lines included. The first non-blank line is the header: it
    must equal ``header``, or, when ``header`` is None (tables and curves
    carry numbers there), it is yielded as the first row. Every row must have
    as many cells as the header. A missing or empty file, a wrong header and
    a row of the wrong width raise ``ValueError`` naming the path (``what``
    names the kind of file) and the row. Cells are not stripped.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"missing {what} file: {path}")
    width = 0
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if not width:
            width = len(cells)
            if header is not None:
                if line.strip() != header:
                    raise ValueError(f"{path} row {n}: expected the header '{header}'")
                continue
        elif len(cells) != width:
            raise ValueError(f"{path} row {n}: expected {width} cells, got {len(cells)}")
        yield n, cells
    if not width:
        raise ValueError(f"{path}: empty file")


def float_cells(path: str | Path, n: int, cells: Sequence[str]) -> list[float]:
    """Row ``n``'s text cells as floats; a non-number raises ``ValueError`` naming the path and row."""
    try:
        return [float(cell) for cell in cells]
    except ValueError as exc:
        raise ValueError(f"{path} row {n}: non-numeric cell ({exc})") from None


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


def _cell_of(axis: tuple[float, ...], lo: float, hi: float) -> tuple[int, float, float]:
    """Where the union cell ``[lo, hi]`` lies on a table ``axis``: (index, origin, width).

    It lies in one cell of the axis, since every breakpoint of the axis is a
    union breakpoint, or past a hull edge, where every point clamps onto
    the edge: there the axis is fixed, and the edge cell comes with the
    constant weight of its upper corner (0.0 past the lower edge, 1.0 past
    the upper) as the origin, and width 0.0.
    """
    if hi <= axis[0]:
        return 0, 0.0, 0.0
    if lo >= axis[-1]:
        return len(axis) - 2, 1.0, 0.0
    k = bisect_right(axis, lo) - 1
    return k, axis[k], axis[k + 1] - axis[k]


class GridLookup:
    """Bilinear lookup of several 2-D tables at one point, one value per table.

    ``grids`` are :class:`ParamGrid`-like tables (``soc_breakpoints``,
    ``temp_breakpoints``, ``rows``), on one breakpoint grid or on several.
    A query is clamped onto ``hull``, the hull of the union grid whose axes
    ``s_axis`` and ``t_axis`` hold every table's breakpoints, and evaluated
    in one union cell (see :meth:`_build`). A union cell lies inside one
    cell of every table, or past its hull, where that table is fixed at
    its edge, so each value equals the table's own
    :meth:`ParamGrid.interpolate`, bit for bit: the clamp, weights and term
    order are the same. Values are in the order of ``grids``. A NaN
    coordinate raises ``ValueError`` naming ``label``.

    ``cells`` keeps each union cell from the first time a point lands in
    it, keyed by its (SOC, temperature) index. ``memo`` is one tuple, read
    once per call and replaced whole, so the lookup may be shared between
    threads and concurrent runs: ``(s, t, values, cell)``, the last query
    clamped onto ``hull``, the values there and its union cell. An exact
    repeat returns ``values``, and a point in the cell's box reuses it.
    """

    __slots__ = ("label", "grids", "s_axis", "t_axis", "hull", "cells", "memo")

    def __init__(self, label: str, grids: Sequence) -> None:
        self.label = label
        self.grids = tuple(grids)
        self.s_axis = tuple(sorted({b for grid in self.grids for b in grid.soc_breakpoints}))
        self.t_axis = tuple(sorted({b for grid in self.grids for b in grid.temp_breakpoints}))
        self.hull = (self.s_axis[0], self.s_axis[-1], self.t_axis[0], self.t_axis[-1])
        self.cells: dict[tuple[int, int], tuple] = {}
        # an empty box, so the first query builds its cell
        self.memo = (math.nan, math.nan, (), (math.inf, -math.inf, math.inf, -math.inf, ()))

    def __call__(self, soc: float, temp: float) -> tuple[float, ...]:
        """Every table's value at (soc, temp), in the order of ``grids``."""
        s_min, s_max, t_min, t_max = self.hull
        s = s_min if soc < s_min else s_max if soc > s_max else soc
        t = t_min if temp < t_min else t_max if temp > t_max else temp
        last_s, last_t, values, cell = self.memo
        if last_s == s and last_t == t:
            return values
        s_in, s_out, t_in, t_out, runs = cell
        if not (s_in <= s < s_out and t_in <= t < t_out):
            cell = self._locate(s, t)
            runs = cell[4]
        # loops in this frame, not comprehensions with frames of their own
        members = []
        for s_lo, ds, t_lo, dt, corners in runs:
            fs = (s - s_lo) / ds if ds else s_lo
            ft = (t - t_lo) / dt if dt else t_lo
            w00, w10, w01, w11 = (1.0 - fs) * (1.0 - ft), fs * (1.0 - ft), (1.0 - fs) * ft, fs * ft
            for v00, v10, v01, v11 in corners:
                members.append(w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11)
        values = tuple(members)
        self.memo = (s, t, values, cell)
        return values

    def _locate(self, s: float, t: float) -> tuple:
        """The union cell holding the clamped point (s, t), built on its first visit.

        A NaN coordinate fails every box check, so it is refused here.
        """
        if s != s or t != t:
            raise ValueError(f"{self.label}: NaN lookup coordinates")
        s_axis, t_axis = self.s_axis, self.t_axis
        # the cell _bilinear_cell picks: a point on the hull's upper edge is in the last cell
        i = min(bisect_right(s_axis, s), len(s_axis) - 1) - 1
        j = min(bisect_right(t_axis, t), len(t_axis) - 1) - 1
        cell = self.cells.get((i, j))
        if cell is None:
            cell = self.cells[i, j] = self._build(i, j)
        return cell

    def _build(self, i: int, j: int) -> tuple:
        """Union cell (i, j) as the tuple the lookup unpacks: ``(s_in, s_out, t_in, t_out, runs)``.

        The box is half-open like the bisect (``lo <= x < hi``) and
        open-ended past the hull's upper edges, which a clamped point may
        touch. ``runs`` holds ``(s_lo, ds, t_lo, dt, corners)`` per run of
        consecutive tables whose cells have the same origin and width per
        axis as :func:`_cell_of` gives them (width 0.0 on an axis where the
        run is fixed), bit for bit, so an origin of ``-0.0`` and one of
        ``0.0`` start two runs, with ``corners`` (v00, v10, v01, v11) per table.
        """
        s_axis, t_axis = self.s_axis, self.t_axis
        s_lo, s_hi, t_lo, t_hi = s_axis[i], s_axis[i + 1], t_axis[j], t_axis[j + 1]
        located = []
        for grid in self.grids:
            k, *s_geometry = _cell_of(grid.soc_breakpoints, s_lo, s_hi)
            m, *t_geometry = _cell_of(grid.temp_breakpoints, t_lo, t_hi)
            lo, hi = grid.rows[k], grid.rows[k + 1]
            located.append(((*s_geometry, *t_geometry), (lo[m], hi[m], lo[m + 1], hi[m + 1])))
        runs = []
        for _, run in groupby(located, key=lambda entry: struct.pack("4d", *entry[0])):
            geometries, corners = zip(*run)
            runs.append((*geometries[0], corners))
        s_out = s_hi if i < len(s_axis) - 2 else math.inf
        t_out = t_hi if j < len(t_axis) - 2 else math.inf
        return s_lo, s_out, t_lo, t_out, tuple(runs)


@dataclass(eq=False)
class ParamGrid:
    """2-D lookup table of one cell parameter over (SOC, temperature).

    SOC breakpoints are stored as fractions (table rows in percent are
    converted on load); temperatures in deg C; values in SI units. Lookups
    read ``rows``, the same values as tuples of Python floats. Immutable
    after construction.
    """

    name: str
    soc_breakpoints: tuple[float, ...]
    temp_breakpoints: tuple[float, ...]
    values: np.ndarray  # shape (n_soc, n_temp)
    rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.soc_breakpoints) < 2 or len(self.temp_breakpoints) < 2:
            raise ValueError(f"{self.name}: need at least 2x2 breakpoints")
        if not all(map(math.isfinite, (*self.soc_breakpoints, *self.temp_breakpoints))):
            raise ValueError(f"{self.name}: non-finite breakpoint")
        if any(b <= a for a, b in zip(self.soc_breakpoints, self.soc_breakpoints[1:])):
            raise ValueError(f"{self.name}: SOC breakpoints not strictly increasing")
        if any(b <= a for a, b in zip(self.temp_breakpoints, self.temp_breakpoints[1:])):
            raise ValueError(f"{self.name}: temperature breakpoints not strictly increasing")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.soc_breakpoints), len(self.temp_breakpoints)):
            raise ValueError(
                f"{self.name}: value matrix shape {self.values.shape} does not match "
                f"{len(self.soc_breakpoints)} SOC x {len(self.temp_breakpoints)} temperature breakpoints"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.name}: non-finite value in table")
        self.rows = tuple(map(tuple, self.values.tolist()))

    def interpolate(self, soc: float, temp: float) -> float:
        """Bilinear lookup with constant extrapolation outside the grid hull.

        Cache-free: the reference every cached :class:`GridLookup` value equals.
        """
        if soc != soc or temp != temp:  # NaN
            raise ValueError(f"{self.name}: NaN lookup coordinates")
        i, j, w00, w10, w01, w11 = _bilinear_cell(self.soc_breakpoints, self.temp_breakpoints, soc, temp)
        lo, hi = self.rows[i], self.rows[i + 1]
        return w00 * lo[j] + w10 * hi[j] + w01 * lo[j + 1] + w11 * hi[j + 1]


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
    n_series: int = N_SERIES

    # lookup(soc, temp): the six unaged parameters at one point, in PARAM_NAMES order
    lookup: GridLookup = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lookup = GridLookup("cell parameters", [self.grid(name) for name in PARAM_NAMES])

    def grid(self, name: str) -> ParamGrid:
        return getattr(self, name)


def load_grid(path: Path, name: str) -> ParamGrid:
    """One table file: column breakpoints in the header row, SOC in percent in the first column."""
    rows = read_csv_rows(path, "parameter", None)
    n, head = next(rows)
    temps = tuple(float_cells(path, n, head[1:]))
    body = [float_cells(path, n, cells) for n, cells in rows]
    socs = tuple(row[0] / 100.0 for row in body)  # percent -> fraction
    return ParamGrid(name, socs, temps, np.array([row[1:] for row in body]))


def load_parameter_set(directory: str | Path) -> CellParameterSet:
    """Load all six electrical parameter tables from ``directory``.

    Raises ``ValueError`` naming the file, and the row where
    there is one, for any missing file, malformed row, non-numeric cell, or
    non-monotone breakpoint axis. Value-level findings (sign, time-constant
    ordering) are the job of :func:`validate_parameter_set`.
    """
    directory = Path(directory)
    grids = {name: load_grid(directory / f"{name}.csv", name) for name in PARAM_NAMES}
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


def validate_parameter_set(pset: CellParameterSet) -> ValidationReport:
    """Scan a loaded set for physical consistency.

    Errors: non-positive resistance/capacitance entries, RC time-constant
    ordering tau1 >= tau2 at any node, OCV decreasing along SOC by more than
    1 mV at fixed temperature, OCV outside the cell voltage window.
    Notes: grid values suspiciously far below their neighbors.
    """
    report = ValidationReport()

    def at(grid: ParamGrid, i: int, j: int) -> str:
        return f"(soc={grid.soc_breakpoints[i]:.2f}, temp={grid.temp_breakpoints[j]:g}C)"

    for name in ("r_ser", "r1", "r2", "c1", "c2"):
        grid = pset.grid(name)
        v = grid.values
        report.errors += [
            f"{name}: non-positive value {v[i, j]:g} at {at(grid, i, j)}" for i, j in np.argwhere(v <= 0)
        ]
        # median of each node's two to four grid neighbours; NaN pads the missing ones
        p = np.pad(v, 1, constant_values=np.nan)
        median = np.nanmedian([p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2], p[1:-1, 2:]], axis=0)
        ratio = np.divide(v, median, out=np.full_like(v, np.inf), where=median > 0)
        report.notes += [
            f"{grid.name}: value {v[i, j]:g} at {at(grid, i, j)} "
            f"is far below its neighbors (median {median[i, j]:g})"
            for i, j in np.argwhere(ratio < _OUTLIER_RATIO)
        ]

    # time-constant ordering, scanned on the r1 grid's nodes
    for soc, temp in product(pset.r1.soc_breakpoints, pset.r1.temp_breakpoints):
        tau1 = pset.r1.interpolate(soc, temp) * pset.c1.interpolate(soc, temp)
        tau2 = pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)
        if tau1 >= tau2:
            report.errors.append(
                f"time-constant ordering violated at (soc={soc:.2f}, temp={temp:g}C): "
                f"tau1={tau1:g} s >= tau2={tau2:g} s"
            )

    ocv = pset.ocv
    # monotonicity as (column, row) pairs, so its findings come column by column
    report.errors += [
        f"ocv: column {ocv.temp_breakpoints[j]:g}C decreases by more than 1 mV between "
        f"soc={ocv.soc_breakpoints[i]:.2f} and {ocv.soc_breakpoints[i + 1]:.2f}"
        for j, i in np.argwhere((ocv.values[1:] < ocv.values[:-1] - _OCV_MONOTONE_TOL_V).T)
    ] + [
        f"ocv: value {ocv.values[i, j]:g} V outside [{V_CELL_MIN}, {V_CELL_MAX}] at {at(ocv, i, j)}"
        for i, j in np.argwhere((ocv.values < V_CELL_MIN) | (ocv.values > V_CELL_MAX))
    ]
    return report
