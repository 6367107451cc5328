"""
Pack thermal response
=====================

The pack is a single thermal node: heat generated by the cells flows out
through surface convection and, while the vehicle runs, through the liquid
cooling loop whose flow rate grows with pack temperature. While charging, a
heater keeps the pack at or above 0 degC. A step maps one pack temperature
(degC) to the next.
"""

import math

from evplant import ThermalMode, ThermalParams, step_thermal

params = ThermalParams.for_mode(ThermalMode.EV_OPERATION)


def conductance(t_pack: float, cooling_active: bool) -> float:
    """Conductance to ambient (W/K) that a step applies at ``t_pack``, read
    back from one unforced 1 s step: the node relaxes by 1 - exp(-G dt / C)."""
    t_ambient = t_pack - 10.0
    approach = (step_thermal(t_pack, 0.0, t_ambient, 1.0, params, cooling_active) - t_pack) / (t_ambient - t_pack)
    return -params.c_pack * math.log1p(-approach)


def loop_conductance(t_pack: float) -> float:
    return conductance(t_pack, True) - conductance(t_pack, False)


print(f"heat capacity {params.c_pack / 1e3:.2f} kJ/K, "
      f"convection {params.alpha_sum:.3f} W/K")
print(f"cooling loop at 45 degC: {loop_conductance(45.0):.2f} W/K")
print(f"convection at +10 K over ambient: {params.alpha_sum * 10.0:.1f} W")
print(f"liquid cooling, 30 degC pack over 20 degC coolant: "
      f"{loop_conductance(30.0) * (30.0 - 20.0):.1f} W")
print()

# 500 W of constant losses, convection only: the pack creeps toward a
# 500 / 5.579 = 89.6 K asymptote with a time constant of about 51 minutes.
t_pack = 20.0
print("heat-up, convection only (ambient 20 degC, 500 W):")
for minute in range(0, 61, 10):
    print(f"  t = {minute:3d} min  T = {t_pack:6.2f} degC")
    for _ in range(600):
        t_pack = step_thermal(t_pack, 500.0, 20.0, 1.0, params, cooling_active=False)

# With the coolant loop active the same losses settle far lower.
t_pack = 20.0
for _ in range(3600):
    t_pack = step_thermal(t_pack, 500.0, 20.0, 1.0, params, cooling_active=True)
print(f"same hour with liquid cooling: T = {t_pack:.2f} degC")
print()

# Heater floor in action: charging at -10 degC ambient never lets the pack
# drop below freezing.
t_pack = step_thermal(-5.0, 0.0, -10.0, 60.0, params, charging=True)
print(f"charging at -10 degC ambient from -5 degC: next step T = {t_pack:.1f} degC")
t_pack = step_thermal(-5.0, 0.0, -10.0, 60.0, params, charging=False)
print(f"same step while driving (no heater):      T = {t_pack:.2f} degC")
