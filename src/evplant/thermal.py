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

from .params import check_finite

# coolant: water/glycol mixture
RHO_COOLANT = 1080.0  # kg/m^3
C_COOLANT = 3320.0  # J/(kg K)
RHO_C_COOLANT = RHO_COOLANT * C_COOLANT  # J/(m^3 K)

# flow-rate law: |T_pack / 45 degC| * this slope
FLOW_RATE_SLOPE = 1.513e-5  # m^3/s at 45 degC
FLOW_RATE_REF_TEMP = 45.0  # degC

PACK_HEAT_CAPACITY = 17120.0  # J/K

HEATER_FLOOR_C = 0.0  # pack is kept above this while charging


class ThermalMode(Enum):
    """Convection coefficient set: pack mounted in the vehicle vs. open on a bench."""

    EV_OPERATION = "ev_operation"
    LAB_PACK_TEST = "lab_pack_test"


# the paper's directional convective transfer coefficients (alpha_x, alpha_y,
# alpha_z) in W/K per mode; the model uses only their sum
_ALPHAS = {
    ThermalMode.EV_OPERATION: (0.726, 3.470, 1.383),
    ThermalMode.LAB_PACK_TEST: (0.472, 2.863, 0.899),
}


@dataclass(frozen=True)
class ThermalParams:
    c_pack: float = PACK_HEAT_CAPACITY  # J/K
    alpha_sum: float = sum(_ALPHAS[ThermalMode.EV_OPERATION])  # convective conductance, W/K

    def __post_init__(self) -> None:
        check_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"thermal parameter {f.name} must be positive")

    @classmethod
    def for_mode(cls, mode: ThermalMode, c_pack: float = PACK_HEAT_CAPACITY) -> "ThermalParams":
        if not isinstance(mode, ThermalMode):
            raise ValueError(f"mode must be a ThermalMode, got {mode!r}")
        return cls(c_pack=c_pack, alpha_sum=sum(_ALPHAS[mode]))


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
    ambient is the convective ``params.alpha_sum`` plus, when
    ``cooling_active``, the cooling loop's ``rho * c * flow``, with the
    coolant flow ``|t_pack / 45 degC| * FLOW_RATE_SLOPE``; it is frozen at
    ``t_pack``, and the pack then relaxes exponentially towards
    ``t_ambient + q_gen / G``, which holds at any step size. While
    ``charging``, the heater floor keeps the new temperature at or above
    0 degC. Expects finite inputs and ``dt > 0``.
    """
    conductance = params.alpha_sum
    if cooling_active:
        flow = t_pack / FLOW_RATE_REF_TEMP * FLOW_RATE_SLOPE
        conductance += RHO_C_COOLANT * (-flow if flow < 0.0 else flow)
    approach = -math.expm1(-conductance * dt / params.c_pack)  # 1 - exp(-G dt / C)
    t_new = t_pack + (t_ambient + q_gen / conductance - t_pack) * approach
    if charging and t_new < HEATER_FLOOR_C:
        t_new = HEATER_FLOOR_C
    return t_new
