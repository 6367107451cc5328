"""Battery-management limits: usable SOC window, voltage/temperature envelope.

The limits are the model's single definition of the permissible operating
window; the engine's ``temp_envelope`` flag reads ``t_min_c``/``t_max_c``.

The gate never flips the sign of a requested current; it either passes it,
clamps its magnitude to the current limit, or forces it to zero with a
reason. The default current cap of 2C is a conservative stand-in for the
unpublished BMS limit (the cell's cycle-test rating) and is configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

from .aging import AgingState
from .params import CellParameterSet

# usable SOC window enforced by the vehicle's BMS
SOC_MIN = 0.032
SOC_MAX = 0.953

DEFAULT_MAX_CURRENT_A = 104.0  # 2C of the 52 Ah cell


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
    v_cell_min: float = 3.0  # V
    v_cell_max: float = 4.2  # V
    t_min_c: float = -25.0
    t_max_c: float = 55.0
    max_current_a: float = DEFAULT_MAX_CURRENT_A

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        # equality is tolerated as a degenerate (zero-capacity) window
        if self.soc_min > self.soc_max:
            raise ValueError("soc_min must not exceed soc_max")


class GateResult(NamedTuple):
    allowed_current: float  # A, same sign as the request
    reason: GateReason
    heating_required: bool  # charging requested while the pack is below 0 degC


def gate_current(
    requested_current: float,
    soc: float,
    v_cell: float,
    t_pack: float,
    limits: BmsLimits,
) -> GateResult:
    """Clamp a requested current (positive = charging) to the BMS envelope."""
    heating = requested_current > 0 and t_pack < 0.0

    if t_pack < limits.t_min_c or t_pack > limits.t_max_c:
        return GateResult(0.0, GateReason.TEMPERATURE_FAULT, heating)

    if requested_current > 0:
        if soc >= limits.soc_max:
            return GateResult(0.0, GateReason.SOC_HIGH, heating)
        if v_cell >= limits.v_cell_max:
            return GateResult(0.0, GateReason.VOLTAGE_HIGH, heating)
    elif requested_current < 0:
        if soc <= limits.soc_min:
            return GateResult(0.0, GateReason.SOC_LOW, heating)
        if v_cell <= limits.v_cell_min:
            return GateResult(0.0, GateReason.VOLTAGE_LOW, heating)

    if abs(requested_current) > limits.max_current_a:
        clamped = limits.max_current_a if requested_current > 0 else -limits.max_current_a
        return GateResult(clamped, GateReason.CURRENT_LIMITED, heating)

    return GateResult(requested_current, GateReason.OK, heating)


def usable_capacity(limits: BmsLimits, params: CellParameterSet, aging: AgingState) -> float:
    """Dischargeable charge (Ah) across the usable window of the aged cell."""
    return (limits.soc_max - limits.soc_min) * params.nominal_capacity_ah * aging.c_norm
