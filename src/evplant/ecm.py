"""Discrete-time dual-polarization (2RC) cell model, scaled 93-in-series to the pack.

Sign convention: charging current is positive. The RC overpotentials use the
exact zero-order-hold update, so the discrete trajectory reproduces the
continuous solution exactly for piecewise-constant current. Parameters are
looked up once per step, at the state at the start of the step (see
:func:`operating_point`); aged resistance applies as a uniform multiplier on
r_ser, r1 and r2, and SOC is counted against the aged (effective) capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

from .aging import AgingState
from .params import CellParameterSet

SECONDS_PER_HOUR = 3600.0


@dataclass
class EcmState:
    """Cell electrical state: SOC plus the two RC overpotentials (V)."""

    soc: float
    u1: float = 0.0
    u2: float = 0.0


@dataclass
class ElectricalStepResult:
    terminal_voltage_cell: float  # V
    terminal_voltage_pack: float  # V
    heat_power: float  # W, per cell, >= 0
    soc_after: float
    soc_clipped: bool = False


def _check_finite(label: str, *values: float) -> None:
    """Raise the labelled error for the first non-finite value.

    Per-step callers test an inline ``isfinite`` chain first and call this
    only on failure, which saves a varargs call per check.
    """
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite {label}: {v!r}")


class OperatingPoint(NamedTuple):
    """Aged cell parameters at the start of one step, with its RC decay factors."""

    ocv: float  # V
    r_ser: float  # Ohm, aged
    r1: float  # Ohm, aged
    r2: float  # Ohm, aged
    k1: float  # exp(-dt / (r1 c1))
    k2: float  # exp(-dt / (r2 c2))
    dt: float  # s
    capacity_ah: float  # aged (effective) capacity
    n_series: int


def operating_point(
    params: CellParameterSet, aging: AgingState, soc: float, temp: float, dt: float
) -> OperatingPoint:
    """Look up and age the parameters once for a step of ``dt`` seconds from ``soc``.

    The result feeds both :func:`voltage_prediction_coeffs` and :func:`step_ecm`.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (isfinite(soc) and isfinite(temp) and isfinite(dt)):
        _check_finite("step input", soc, temp, dt)
    ocv, r_ser, r1, c1, r2, c2 = params.lookup(soc, temp)
    r_norm = aging.r_norm
    r_ser, r1, r2 = r_ser * r_norm, r1 * r_norm, r2 * r_norm
    k1 = math.exp(-dt / (r1 * c1))
    k2 = math.exp(-dt / (r2 * c2))
    c_eff_ah = params.nominal_capacity_ah * aging.c_norm
    return OperatingPoint(ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah, params.n_series)


def step_ecm(
    state: EcmState, point: OperatingPoint, current: float
) -> tuple[EcmState, ElectricalStepResult]:
    """Advance the cell by one step at constant ``current`` (A).

    ``point`` is the :func:`operating_point` at ``state.soc``. Returns the new
    state and the step result (terminal voltages, irreversible heat, SOC). SOC
    leaving [0, 1] saturates and sets ``soc_clipped``; keeping it inside the
    window is the charge controller's job, not the plant's.
    """
    if not (isfinite(state.soc) and isfinite(state.u1) and isfinite(state.u2) and isfinite(current)):
        _check_finite("step input", state.soc, state.u1, state.u2, current)
    ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah, n_series = point

    u1 = state.u1 * k1 + r1 * current * (1.0 - k1)
    u2 = state.u2 * k2 + r2 * current * (1.0 - k2)

    soc = state.soc + current * dt / (SECONDS_PER_HOUR * c_eff_ah)
    clipped = soc < 0.0 or soc > 1.0
    if clipped:
        soc = min(max(soc, 0.0), 1.0)

    v_cell = ocv + current * r_ser + u1 + u2
    heat = current * current * r_ser + u1 * u1 / r1 + u2 * u2 / r2
    if not (isfinite(u1) and isfinite(u2) and isfinite(soc) and isfinite(v_cell) and isfinite(heat)):
        _check_finite("step output", u1, u2, soc, v_cell, heat)

    result = ElectricalStepResult(
        terminal_voltage_cell=v_cell,
        terminal_voltage_pack=n_series * v_cell,
        heat_power=heat,
        soc_after=soc,
        soc_clipped=clipped,
    )
    return EcmState(soc=soc, u1=u1, u2=u2), result


def rest_voltage(state: EcmState, params: CellParameterSet, temp: float) -> float:
    """Terminal cell voltage at zero current: OCV plus the RC overpotentials."""
    return params.ocv.interpolate(state.soc, temp) + state.u1 + state.u2


def voltage_prediction_coeffs(state: EcmState, point: OperatingPoint) -> tuple[float, float]:
    """Affine coefficients (a, b) with predicted end-of-step cell voltage a + b*I.

    Mirrors :func:`step_ecm` exactly for constant current over one step, which
    lets a voltage limiter pick the largest current whose predicted voltage
    stays at or under a ceiling.
    """
    a = point.ocv + state.u1 * point.k1 + state.u2 * point.k2
    b = point.r_ser + point.r1 * (1.0 - point.k1) + point.r2 * (1.0 - point.k2)
    return a, b
