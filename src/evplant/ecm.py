"""Discrete-time dual-polarization (2RC) model of one cell.

Sign convention: charging current is positive. The RC overpotentials use the
exact zero-order-hold update, so the discrete trajectory reproduces the
continuous solution exactly for piecewise-constant current. Parameters are
looked up once per step, at the state at the start of the step (see
:func:`operating_point`); aged resistance applies as a uniform multiplier on
r_ser, r1 and r2, and SOC is counted against the aged (effective) capacity.
Every value here is per cell; the engine scales voltage and heat to the pack.
The step functions take their inputs as given: the engine checks once per
step that the SOC and voltage they return are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aging import AgingState
from .params import CellParameterSet

SECONDS_PER_HOUR = 3600.0


@dataclass
class EcmState:
    """Cell electrical state: SOC plus the two RC overpotentials (V)."""

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
    ocv, r_ser, r1, c1, r2, c2 = params.lookup(soc, temp)
    r_norm = aging.r_norm
    r_ser, r1, r2 = r_ser * r_norm, r1 * r_norm, r2 * r_norm
    k1 = math.exp(-dt / (r1 * c1))
    k2 = math.exp(-dt / (r2 * c2))
    c_eff_ah = params.nominal_capacity_ah * aging.c_norm
    return ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah


def step_ecm(
    state: EcmState, point: tuple[float, ...], current: float
) -> tuple[EcmState, float, float, bool]:
    """Advance the cell by one step at constant ``current`` (A).

    ``point`` is the :func:`operating_point` at ``state.soc``. Returns the new
    state, the end-of-step terminal voltage (V), the irreversible heat (W,
    >= 0) and whether SOC was clipped: SOC leaving [0, 1] saturates, and
    keeping it inside the window is the charge controller's job, not the
    plant's. Expects a finite state and current; a non-finite input or
    parameter shows in the returned SOC or voltage, which the engine checks
    once per step.
    """
    ocv, r_ser, r1, r2, k1, k2, dt, c_eff_ah = point

    u1 = state.u1 * k1 + r1 * current * (1.0 - k1)
    u2 = state.u2 * k2 + r2 * current * (1.0 - k2)

    soc = state.soc + current * dt / (SECONDS_PER_HOUR * c_eff_ah)
    clipped = soc < 0.0 or soc > 1.0
    if clipped:
        soc = min(max(soc, 0.0), 1.0)

    v_cell = ocv + current * r_ser + u1 + u2
    heat = current * current * r_ser + u1 * u1 / r1 + u2 * u2 / r2
    return EcmState(soc, u1, u2), v_cell, heat, clipped


def rest_voltage(state: EcmState, params: CellParameterSet, temp: float) -> float:
    """Terminal cell voltage at zero current: OCV plus the RC overpotentials."""
    return params.ocv.interpolate(state.soc, temp) + state.u1 + state.u2


def voltage_prediction_coeffs(state: EcmState, point: tuple[float, ...]) -> tuple[float, float]:
    """Affine coefficients (a, b) with predicted end-of-step cell voltage a + b*I.

    Mirrors :func:`step_ecm` exactly for constant current over one step, which
    lets a voltage limiter pick the largest current whose predicted voltage
    stays at or under a ceiling.
    """
    ocv, r_ser, r1, r2, k1, k2, _, _ = point
    a = ocv + state.u1 * k1 + state.u2 * k2
    b = r_ser + r1 * (1.0 - k1) + r2 * (1.0 - k2)
    return a, b
