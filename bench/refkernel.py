"""Fixed pure-Python reference kernel used to normalize timings for host speed.

The kernel imports nothing (in particular neither evplant nor NumPy) and must
never change: every normalized number in the benchmark is a ratio against it.
Its mix of float arithmetic, small-object allocation, attribute access,
method calls, comparisons and tuple/list traffic resembles the interpreter
work of the simulation loop, so a host that runs the loop slower at some
moment also runs the kernel slower by about the same factor.

A timing ``t_raw`` measured between kernel runs taking ``t_before`` and
``t_after`` seconds is reported as ``t_raw * NOMINAL_S / sqrt(t_before *
t_after)``: seconds on a host where the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

# Kernel duration on a quiet host (2-core x86-64 VM, CPython 3.11), in seconds.
# Fixed: changing it rescales every normalized timing of the benchmark.
NOMINAL_S = 0.010

# Loop trips per kernel run; fixed together with NOMINAL_S.
_ITERATIONS = 7000


class _Cell:
    __slots__ = ("soc", "u1", "u2")

    def __init__(self, soc: float) -> None:
        self.soc = soc
        self.u1 = 0.0
        self.u2 = 0.0

    def step(self, current: float, k1: float, k2: float) -> tuple[float, float]:
        self.u1 = self.u1 * k1 + 0.002 * current * (1.0 - k1)
        self.u2 = self.u2 * k2 + 0.003 * current * (1.0 - k2)
        self.soc += current * 5.3e-6
        return self.u1 + self.u2, self.soc


def _lookup(axis: tuple[float, ...], table: tuple[float, ...], x: float) -> float:
    lo, hi = 0, len(axis) - 1
    x = min(max(x, axis[0]), axis[-1])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if axis[mid] <= x:
            lo = mid
        else:
            hi = mid
    f = (x - axis[lo]) / (axis[hi] - axis[lo])
    return table[lo] * (1.0 - f) + table[hi] * f


_AXIS = tuple(i / 20.0 for i in range(21))
_TABLE = tuple(3.0 + 1.2 * (i / 20.0) ** 0.5 for i in range(21))


def kernel() -> float:
    """Run the fixed reference workload once; returns a checksum."""
    cell = _Cell(0.5)
    rows = []
    flags = {"drive": 0, "plugged": 0, "idle": 0}
    kinds = ("drive", "plugged", "idle")
    acc = 0.0
    for i in range(_ITERATIONS):
        kind = kinds[i % 3]
        current = -40.0 + (i % 17) * 5.0 if kind != "idle" else 0.0
        ocv = _lookup(_AXIS, _TABLE, cell.soc)
        du, soc = cell.step(current, 0.97, 0.995)
        v = ocv + du
        flags[kind] += 1
        rows.append((i, soc, v, current, kind))
        if len(rows) >= 64:
            acc += sum(r[2] for r in rows) / len(rows)
            rows = []
    return acc + flags["drive"]


def normalize(t_raw: float, t_before: float, t_after: float) -> float:
    """Seconds on a quiet host for ``t_raw`` measured between two kernel runs."""
    if t_before <= 0.0 or t_after <= 0.0:
        raise ValueError("kernel timings must be positive")
    return t_raw * NOMINAL_S / (t_before * t_after) ** 0.5
