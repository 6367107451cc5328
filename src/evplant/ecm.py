"""Discrete-time dual-polarization (2RC) model of one cell.

Sign convention: charging current is positive. The RC overpotentials use the
exact zero-order-hold update, so the discrete trajectory reproduces the
continuous solution exactly for piecewise-constant current. Parameters are
looked up once per step, at the state at the start of the step (see
:func:`operating_point`), except at rest (:func:`rest_step`); aged resistance
applies as a uniform multiplier on r_ser, r1 and r2, and SOC is counted
against the aged (effective) capacity.
Every value here is per cell; the engine scales voltage and heat to the pack.
A cell state is an :class:`EcmState` or the plain ``(soc, u1, u2)`` tuple that
:func:`step_ecm` returns; every function here reads it by position, so both
give the same bits. The step functions take their inputs as given: the engine
checks once per step that the SOC and voltage they return are finite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .aging import AgingState
from .params import CellParameterSet

SECONDS_PER_HOUR = 3600.0


class EcmState(NamedTuple):
    """Cell state by name: SOC and the two RC overpotentials (V), in step_ecm's tuple order."""

    soc: float
    u1: float = 0.0
    u2: float = 0.0


# order of the values in the tuple returned by operating_point: the aged cell
# parameters at the start of one step, with its RC decay factors, in V, Ohm,
# exp(-dt / (r1 c1)), exp(-dt / (r2 c2)), s and Ah (the aged, effective capacity)
POINT_ORDER = ("ocv", "r_ser", "r1", "r2", "k1", "k2", "dt", "capacity_ah")


def operating_point(
    params: CellParameterSet, aging: AgingState, soc: float, temp: float, dt: float
) -> tuple[float, float, float, float, float, float, float, float]:
    """Look up and age the parameters once for a step of ``dt`` seconds from ``soc``.

    Returns a plain tuple in :data:`POINT_ORDER`; it feeds both
    :func:`voltage_prediction_coeffs` and :func:`step_ecm`. Expects finite
    ``soc`` and ``temp`` and ``dt > 0``; a NaN ``soc`` or ``temp`` makes the
    lookup raise.
    """
    ocv, r_ser, r1, r2, c1, c2 = params.lookup.at(soc, temp)
    r_norm = aging.r_norm
    r_ser, r1, r2 = r_ser * r_norm, r1 * r_norm, r2 * r_norm
    k1 = math.exp(-dt / (r1 * c1))
    k2 = math.exp(-dt / (r2 * c2))
    c_eff_ah = params.nominal_capacity_ah * aging.c_norm
    return ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah


def step_ecm(
    state: tuple[float, float, float], point: tuple[float, ...], current: float
) -> tuple[tuple[float, float, float], float, float, bool]:
    """Advance the cell by one step at constant ``current`` (A).

    ``point`` is the :func:`operating_point` at the state's SOC. Returns the
    new state as a plain ``(soc, u1, u2)`` tuple, the end-of-step terminal
    voltage (V), the irreversible heat (W, >= 0) and whether SOC was clipped:
    SOC leaving [0, 1] saturates, and keeping it inside the window is the
    charge controller's job, not the plant's. Expects a finite state and
    current; a non-finite input or parameter shows in the returned SOC or
    voltage, which the engine checks once per step.
    """
    ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah = point
    soc, u1, u2 = state

    u1 = u1 * k1 + r1 * current * (1.0 - k1)
    u2 = u2 * k2 + r2 * current * (1.0 - k2)

    soc = soc + current * dt / (SECONDS_PER_HOUR * c_eff_ah)
    clipped = soc < 0.0 or soc > 1.0
    if clipped:
        soc = 0.0 if soc < 0.0 else 1.0

    v_cell = ocv + current * r_ser + u1 + u2
    heat = current * current * r_ser + u1 * u1 / r1 + u2 * u2 / r2
    return (soc, u1, u2), v_cell, heat, clipped


def rest_step(state: tuple[float, float, float], ocv: float, dt: float, c_eff_ah: float) -> tuple:
    """:func:`step_ecm` at zero current from a state whose u1 and u2 are zero, bit for bit.

    With positive, finite aged R and C, the RC voltages stay 0.0, the voltage is ``ocv + 0.0``
    and the heat 0.0; the SOC update keeps step_ecm's expression, so a zero ``c_eff_ah`` raises.
    """
    soc = state[0] + 0.0 * dt / (SECONDS_PER_HOUR * c_eff_ah)
    clipped = soc < 0.0 or soc > 1.0
    return ((0.0 if soc < 0.0 else 1.0) if clipped else soc, 0.0, 0.0), ocv + 0.0, 0.0, clipped


def rest_voltage(state: tuple[float, float, float], params: CellParameterSet, temp: float) -> float:
    """Terminal cell voltage at zero current: OCV plus the RC overpotentials."""
    soc, u1, u2 = state
    return params.ocv.interpolate(soc, temp) + u1 + u2


def voltage_prediction_coeffs(
    state: tuple[float, float, float], point: tuple[float, ...]
) -> tuple[float, float]:
    """Affine coefficients (a, b) with predicted end-of-step cell voltage a + b*I.

    Mirrors :func:`step_ecm` exactly for constant current over one step, which
    lets a voltage limiter pick the largest current whose predicted voltage
    stays at or under a ceiling.
    """
    ocv, r_ser, r1, r2, k1, k2, _, _ = point
    _, u1, u2 = state
    a = ocv + u1 * k1 + u2 * k2
    b = r_ser + r1 * (1.0 - k1) + r2 * (1.0 - k2)
    return a, b
