"""
Pack thermal response
=====================

The pack is a single thermal node: heat generated by the cells flows out
through surface convection and, while the vehicle runs, through the liquid
cooling loop whose flow rate grows with pack temperature. While charging, a
heater keeps the pack at or above 0 degC. A step maps one pack temperature
(degC) to the next.
"""

from evplant import ThermalMode, ThermalParams, step_thermal
from evplant.thermal import convection_power, coolant_flow_rate, cooling_power

params = ThermalParams.for_mode(ThermalMode.EV_OPERATION)
print(f"heat capacity {params.c_pack / 1e3:.2f} kJ/K, "
      f"convection sum {params.alpha_sum:.3f} W/K")
print(f"coolant flow at 45 degC: {coolant_flow_rate(45.0):.3e} m^3/s")
print(f"convection at +10 K over ambient: {convection_power(30, 20, params):.1f} W")
print(f"liquid cooling at +10 K over ambient: {cooling_power(30, 20, params):.1f} W")
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
