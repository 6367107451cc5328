"""Lumped single-node thermal model of the battery pack.

Heat leaves by surface convection and, when the loop is running, by liquid
cooling whose coolant flow rate rises linearly with pack temperature and whose
coolant temperature equals ambient. While charging, the pack heater keeps the
temperature from dropping below 0 degC. The state is the pack temperature
alone: :func:`step_thermal` maps one value (degC) to the next by the exact
solution of the linear node over the step, the same convention as the cell's
RC update, so every step size is stable. The permissible temperatures are the
BMS limits (:class:`evplant.bms.BmsLimits`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

from .params import check_finite

# coolant: water/glycol mixture
RHO_COOLANT = 1080.0  # kg/m^3
C_COOLANT = 3320.0  # J/(kg K)

# flow-rate law: |T_pack / 45 degC| * this slope
FLOW_RATE_SLOPE = 1.513e-5  # m^3/s at 45 degC
FLOW_RATE_REF_TEMP = 45.0  # degC

PACK_HEAT_CAPACITY = 17120.0  # J/K

HEATER_FLOOR_C = 0.0  # pack is kept above this while charging


class ThermalMode(Enum):
    """Convection coefficient set: pack mounted in the vehicle vs. open on a bench."""

    EV_OPERATION = "ev_operation"
    LAB_PACK_TEST = "lab_pack_test"


# convective transfer coefficients (alpha_x, alpha_y, alpha_z) in W/K per mode
_ALPHAS = {
    ThermalMode.EV_OPERATION: (0.726, 3.470, 1.383),
    ThermalMode.LAB_PACK_TEST: (0.472, 2.863, 0.899),
}


@dataclass(frozen=True)
class ThermalParams:
    c_pack: float = PACK_HEAT_CAPACITY  # J/K
    alpha_x: float = _ALPHAS[ThermalMode.EV_OPERATION][0]  # W/K
    alpha_y: float = _ALPHAS[ThermalMode.EV_OPERATION][1]
    alpha_z: float = _ALPHAS[ThermalMode.EV_OPERATION][2]

    def __post_init__(self) -> None:
        check_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"thermal parameter {f.name} must be positive")

    @classmethod
    def for_mode(cls, mode: ThermalMode, c_pack: float = PACK_HEAT_CAPACITY) -> "ThermalParams":
        if not isinstance(mode, ThermalMode):
            raise ValueError(f"mode must be a ThermalMode, got {mode!r}")
        ax, ay, az = _ALPHAS[mode]
        return cls(c_pack=c_pack, alpha_x=ax, alpha_y=ay, alpha_z=az)

    @cached_property
    def alpha_sum(self) -> float:
        """Total convective conductance (W/K), summed once per instance."""
        return self.alpha_x + self.alpha_y + self.alpha_z


def convection_power(t_pack: float, t_ambient: float, params: ThermalParams) -> float:
    """Convective heat flow out of the pack (W); positive when the pack is warmer."""
    return params.alpha_sum * (t_pack - t_ambient)


def coolant_flow_rate(t_pack: float) -> float:
    """Coolant volume flow (m^3/s), linear in pack temperature, absolute value."""
    return abs(t_pack / FLOW_RATE_REF_TEMP * FLOW_RATE_SLOPE)


def cooling_power(t_pack: float, t_ambient: float, params: ThermalParams) -> float:
    """Heat flow removed by the liquid cooling loop (W), coolant at ambient."""
    return (t_pack - t_ambient) * RHO_COOLANT * C_COOLANT * coolant_flow_rate(t_pack)


def step_thermal(
    t_pack: float,
    q_gen: float,
    t_ambient: float,
    dt: float,
    params: ThermalParams,
    cooling_active: bool = False,
    charging: bool = False,
) -> float:
    """Pack temperature (degC) ``dt`` seconds after ``t_pack``, by the exact solution of the node.

    ``q_gen`` is the heat generated inside the pack (W). The conductance to
    ambient, convection plus the cooling loop when ``cooling_active``, is
    frozen at ``t_pack``; the pack then relaxes exponentially towards
    ``t_ambient + q_gen / G``, which holds at any step size. While
    ``charging``, the heater floor keeps the new temperature at or above
    0 degC. Expects finite inputs and ``dt > 0``.
    """
    conductance = params.alpha_sum
    if cooling_active:
        # coolant_flow_rate(t_pack), written out: this runs on most steps
        conductance += RHO_COOLANT * C_COOLANT * abs(t_pack / FLOW_RATE_REF_TEMP * FLOW_RATE_SLOPE)
    approach = -math.expm1(-conductance * dt / params.c_pack)  # 1 - exp(-G dt / C)
    t_new = t_pack + (t_ambient + q_gen / conductance - t_pack) * approach
    if charging and t_new < HEATER_FLOOR_C:
        t_new = HEATER_FLOOR_C
    return t_new
