"""
Cell pulse response
===================

A current pulse excites the three voltage components of the cell model: the
instantaneous ohmic drop across the series resistance, the fast RC branch
settling within tens of milliseconds, and the slow diffusion branch settling
over tens of seconds. The discrete update is an exact zero-order hold, so
coarse steps land on the continuous solution for piecewise-constant current.
The cell model returns per-cell values; the simulation engine scales them to
the 93-cell series string of the pack. A step returns the new cell state as a
plain tuple in the field order of ``EcmState``: (soc, u1, u2).
"""

from evplant import EcmState, load_parameter_set, default_data_dir, operating_point, step_ecm
from evplant.aging import AgingState

pset = load_parameter_set(default_data_dir())
fresh = AgingState()

state = EcmState(soc=0.50)
temp = 25.0

print("t_s   current_A   v_cell_V   u1_mV    u2_mV    heat_W")
t = 0.0
for phase, (current, duration) in enumerate([(26.0, 30), (0.0, 30), (-26.0, 30), (0.0, 30)]):
    for _ in range(duration):
        point = operating_point(pset, fresh, state[0], temp, dt=1.0)
        state, v_cell, heat, _ = step_ecm(state, point, current)
        soc, u1, u2 = state
        t += 1.0
        if t % 10 == 0:
            print(
                f"{t:5.0f} {current:9.1f} {v_cell:10.4f}"
                f" {u1 * 1e3:8.2f} {u2 * 1e3:8.2f} {heat:9.3f}"
            )

print()
print(f"SOC after the symmetric pulse train: {soc:.6f} (started at 0.5)")
print(f"pack voltage = {pset.n_series} x cell voltage = {pset.n_series * v_cell:.2f} V")
