"""Battery-management limits: usable SOC window, voltage/temperature envelope.

The limits are the model's single definition of the permissible operating
window; the engine's CV target and ``temp_envelope`` flag are read from them.

The gate never flips the sign of a requested current; it either passes it,
clamps its magnitude to the current limit, or forces it to zero with a
reason. The default current cap of 2C is a conservative stand-in for the
unpublished BMS limit (the cell's cycle-test rating) and is configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .aging import AgingState
from .params import NOMINAL_CAPACITY_AH, V_CELL_MAX, V_CELL_MIN, CellParameterSet, check_finite

# usable SOC window enforced by the vehicle's BMS
SOC_MIN = 0.032
SOC_MAX = 0.953

DEFAULT_MAX_CURRENT_A = 2.0 * NOMINAL_CAPACITY_AH  # 2C of the cell


class GateReason(Enum):
    OK = "ok"
    SOC_HIGH = "soc_high"
    SOC_LOW = "soc_low"
    VOLTAGE_HIGH = "voltage_high"
    VOLTAGE_LOW = "voltage_low"
    TEMPERATURE_FAULT = "temperature_fault"
    CURRENT_LIMITED = "current_limited"


@dataclass(frozen=True)
class BmsLimits:
    soc_min: float = SOC_MIN
    soc_max: float = SOC_MAX
    v_cell_min: float = V_CELL_MIN
    v_cell_max: float = V_CELL_MAX
    t_min_c: float = -25.0
    t_max_c: float = 55.0
    max_current_a: float = DEFAULT_MAX_CURRENT_A

    def __post_init__(self) -> None:
        check_finite(self)
        # equality is tolerated as a degenerate (zero-width) window
        windows = (("soc_min", "soc_max"), ("v_cell_min", "v_cell_max"), ("t_min_c", "t_max_c"))
        for low, high in windows:
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must not exceed {high}")
        if self.max_current_a < 0:
            raise ValueError(f"max_current_a must not be negative, got {self.max_current_a!r}")


class GateResult(NamedTuple):
    allowed_current: float  # A, same sign as the request
    reason: GateReason


# Bound once: an enum member lookup and a NamedTuple build each cost more
# than the gate's comparisons, and the trip results never change. The pass and
# current-limited results are built from a tuple, without the NamedTuple's
# Python-level __new__.
GATE_OK = GateReason.OK
_CURRENT_LIMITED = GateReason.CURRENT_LIMITED
_new_tuple = tuple.__new__
_TEMPERATURE_FAULT = GateResult(0.0, GateReason.TEMPERATURE_FAULT)
_SOC_HIGH = GateResult(0.0, GateReason.SOC_HIGH)
_VOLTAGE_HIGH = GateResult(0.0, GateReason.VOLTAGE_HIGH)
_SOC_LOW = GateResult(0.0, GateReason.SOC_LOW)
_VOLTAGE_LOW = GateResult(0.0, GateReason.VOLTAGE_LOW)


def gate_current(
    requested_current: float,
    soc: float,
    v_cell: float,
    t_pack: float,
    limits: BmsLimits,
) -> GateResult:
    """Clamp a requested current (positive = charging) to the BMS envelope."""
    if t_pack < limits.t_min_c or t_pack > limits.t_max_c:
        return _TEMPERATURE_FAULT

    if requested_current > 0:
        if soc >= limits.soc_max:
            return _SOC_HIGH
        if v_cell >= limits.v_cell_max:
            return _VOLTAGE_HIGH
        if requested_current > limits.max_current_a:
            return _new_tuple(GateResult, (limits.max_current_a, _CURRENT_LIMITED))
    elif requested_current < 0:
        if soc <= limits.soc_min:
            return _SOC_LOW
        if v_cell <= limits.v_cell_min:
            return _VOLTAGE_LOW
        if requested_current < -limits.max_current_a:
            return _new_tuple(GateResult, (-limits.max_current_a, _CURRENT_LIMITED))

    return _new_tuple(GateResult, (requested_current, GATE_OK))


def usable_capacity(limits: BmsLimits, params: CellParameterSet, aging: AgingState) -> float:
    """Dischargeable charge (Ah) across the usable window of the aged cell."""
    return (limits.soc_max - limits.soc_min) * params.nominal_capacity_ah * aging.c_norm
