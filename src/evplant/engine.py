"""Fixed-timestep simulation engine coupling plant, charger, BMS, and strategy.

Each step: resolve the active profile segment; when plugged in, poll the
strategy at the control interval and when a charging session starts (a
plug-in, or a charger-mode change while plugged, which resets the set-point
and ramp), quantize the AC set-point, convert the ramped power to DC while
the ramp still moves and hold the settled set-point's DC power, converted
once per command, after it, then apply the CV current limit and the BMS
gate; when driving, convert the requested DC power to current against the
latest pack voltage and gate it.
Then advance the cell electrics, scale the cell voltage and heat by the
series count (the one place the pack scaling lives), advance the pack
temperature, and accrue aging at its own cadence. A run covers and ages its
whole profile: :func:`evplant.scenario.whole_steps` splits its span into
whole steps and a tail, which is one last, shorter step, and the time since
the last aging point is booked at the end. A step records
only what it decides: its end time, SOC, cell voltage, current, pack
temperature, AC power and flags; each aging point records the aging state.
The pack voltage, the DC power and the per-row aging columns are derived
from those once per run, with the loop's operands, so they are the same
floats. Runs are purely deterministic: identical inputs give bit-identical
trajectories. A failing
step raises ``RuntimeError``: ``strategy failed at step k (t=... s): <Type>: ...``
for the strategy, ``plant step failed at ...`` for a plant ValueError or ArithmeticError.
The plant layers trust their inputs, which are checked where they enter the
program; the step checks once that its SOC, cell voltage and pack temperature
are finite.

The CV limiter targets the BMS cell voltage limit minus a 0.1 mV margin so the
pinned voltage sits strictly inside the BMS trip level and tapering is smooth.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .aging import (
    AgingState,
    calendar_step,
    cycle_accumulate,
    eol_check,
    flush_cycles,
    load_calendar_coeffs,
    load_cycle_coeffs,
)
from .bms import GATE_OK, gate_current
from .charger import (
    EFFICIENCY_CURVE_FILE,
    RAMP_CURVE_FILE,
    ChargeControlState,
    ChargerConfig,
    ChargerMode,
    ac_to_dc,
    achievable_setpoints,
    cc_cv_limit,
    command_setpoint,
    dc_to_ac,
    load_curve,
    quantize_setpoint,
    ramp_power,
)
from .ecm import EcmState, operating_point, rest_voltage, step_ecm, voltage_prediction_coeffs
from .params import default_data_dir, float_cells, load_parameter_set, read_csv_rows
from .scenario import ScenarioConfig, ScenarioProfile, SegmentKind, whole_steps
from .thermal import ThermalMode, ThermalParams, step_thermal

SECONDS_PER_DAY = 86400.0

# CV target sits this far below the cell voltage limit (see module docstring)
CV_MARGIN_V_PER_CELL = 1e-4


class StrategyObservation(NamedTuple):
    """What a charge strategy is allowed to see; never plant internals."""

    t_s: float
    soc: float
    t_pack_c: float
    plugged: bool
    ac_power_w: float  # currently drawn AC power
    setpoints_w: tuple[float, ...]  # achievable AC set-points incl. 0


Strategy = Callable[[StrategyObservation], float]


def strategy_max_power(obs: StrategyObservation) -> float:
    """Always request the highest achievable set-point."""
    return obs.setpoints_w[-1]


def strategy_off(obs: StrategyObservation) -> float:
    return 0.0


def make_constant_strategy(watts: float) -> Strategy:
    def strategy(obs: StrategyObservation) -> float:
        return watts

    return strategy


def make_profile_strategy(profile: ScenarioProfile) -> Strategy:
    """Request the profile record's ``value_w`` while plugged in (the default)."""
    ts = [r.t_s for r in profile.records]
    records = profile.records

    def strategy(obs: StrategyObservation) -> float:
        idx = max(bisect_right(ts, obs.t_s) - 1, 0)
        return max(0.0, records[idx].value_w)

    return strategy


# CSV names of the Trajectory fields, in field order
TRAJECTORY_HEADER = "t_s,soc,v_cell_v,v_pack_v,i_dc_a,t_pack_c,p_ac_w,p_dc_w,c_norm,r_norm,eqfc,flags"


@dataclass
class Trajectory:
    """Per-step simulation record; rows are stamped with the end of each step."""

    t_s: np.ndarray
    soc: np.ndarray
    v_cell: np.ndarray
    v_pack: np.ndarray
    i_dc: np.ndarray
    t_pack: np.ndarray
    p_ac: np.ndarray
    p_dc: np.ndarray
    c_norm: np.ndarray
    r_norm: np.ndarray
    eqfc: np.ndarray
    flags: list[str]

    @classmethod
    def from_rows(cls, rows: list[tuple[float, ...]], flags: list[str]) -> "Trajectory":
        """Build from one tuple of the float columns, in field order, per row."""
        width = len(FLOAT_COLUMNS)
        table = np.fromiter(chain.from_iterable(rows), float, len(rows) * width).reshape(len(rows), width)
        return cls(*(np.ascontiguousarray(c) for c in table.T), flags=flags)

    @classmethod
    def empty(cls) -> "Trajectory":
        return cls.from_rows([], [])

    @property
    def n_rows(self) -> int:
        return len(self.t_s)


FLOAT_COLUMNS = tuple(f.name for f in fields(Trajectory) if f.name != "flags")
# one trajectory.csv row, as np.loadtxt parses it
_ROW_DTYPE = np.dtype([(name, np.float64) for name in FLOAT_COLUMNS] + [("flags", object)])
# rows per block written at once by emit_report
_BLOCK_ROWS = 1024


@dataclass
class ValidationMetrics:
    rmse_cell_voltage_mv: float
    max_abs_error_cell_voltage_mv: float
    rmse_pack_temp_k: float
    max_abs_error_pack_temp_k: float
    charge_ah: float
    energy_kwh: float
    duration_min: float


def run_scenario(
    config: ScenarioConfig,
    profile: ScenarioProfile,
    strategy: Strategy | None = None,
) -> Trajectory:
    """Simulate one scenario; see the module docstring for the step order."""
    records = profile.records
    dt = config.dt_s
    # a tail shorter than one step is simulated as one last, shorter step
    n_whole, tail_dt = whole_steps(profile.duration_s, dt)
    n_steps = n_whole + (tail_dt > 0.0)
    if n_steps <= 0:
        return Trajectory.empty()
    # ScenarioConfig holds both intervals to whole multiples of dt
    control_every = round(config.control_interval_s / dt)
    aging_every = round(config.aging_interval_s / dt)
    aging_dt_days = aging_every * dt / SECONDS_PER_DAY
    # time from the last aging point to the end of the run, booked after the loop
    rest_days = ((n_whole % aging_every) * dt + tail_dt) / SECONDS_PER_DAY

    params = load_parameter_set(config.data_dir)
    aging_dir = config.aging_data_dir if config.aging_data_dir is not None else config.data_dir
    cal_coeffs = load_calendar_coeffs(aging_dir)
    cyc_coeffs = load_cycle_coeffs(aging_dir)
    th_params = ThermalParams.for_mode(config.thermal_mode, c_pack=config.c_pack_j_per_k)
    ramp_curve = load_curve(config.ramp_curve or default_data_dir() / RAMP_CURVE_FILE)
    eff_curve = load_curve(config.efficiency_curve or default_data_dir() / EFFICIENCY_CURVE_FILE)
    charger_cfgs = {
        mode: ChargerConfig(
            mode=mode,
            grid_voltage=config.grid_voltage_v,
            efficiency=eff_curve,
            ramp=ramp_curve,
            dead_time_s=config.dead_time_s,
        )
        for mode in ChargerMode
    }
    limits = config.bms
    t_min_c, t_max_c = limits.t_min_c, limits.t_max_c
    if strategy is None:
        strategy = make_profile_strategy(profile)

    ecm_state = EcmState(soc=config.initial_soc)
    aging = AgingState()
    t0 = records[0].t_s
    t_pack = config.initial_temp_c if config.initial_temp_c is not None else records[0].ambient_c
    v_cell = rest_voltage(ecm_state, params, t_pack)
    n_series = params.n_series
    v_max_pack = n_series * (limits.v_cell_max - CV_MARGIN_V_PER_CELL)
    ev_operation = config.thermal_mode is ThermalMode.EV_OPERATION

    ctrl = ChargeControlState()
    t_cmd = 0.0  # time since the last command
    p_ac_prev = 0.0
    # DC power of the settled set-point, held until the next command
    p_dc_settled = 0.0
    # segment state, resolved when the step time reaches the next record
    rec_idx = -1
    next_t = t0
    plugged = False
    mode = None

    # (t_s, soc, v_cell, i_dc, t_pack, p_ac) per step, flat
    rows: list[float] = []
    flags_col: list[str] = []
    # c_norm, r_norm and eqfc, flat: the fresh state, then one triple per aging point
    aging_log = [aging.c_norm, aging.r_norm, aging.eqfc]
    # aging_every as the loop starts; the tail step overwrites it
    aging_cadence = aging_every

    for k in range(n_steps):
        t = t0 + k * dt
        if k == n_whole:
            # the tail step: shorter, and no aging point; rest_days books its time
            dt = tail_dt
            aging_every = n_steps + 1
        if t >= next_t:
            while rec_idx + 1 < len(records) and records[rec_idx + 1].t_s <= t:
                rec_idx += 1
            next_t = records[rec_idx + 1].t_s if rec_idx + 1 < len(records) else math.inf
            rec = records[rec_idx]
            kind_value = rec.kind.value
            rec_mode = rec.charger_mode or config.charger_mode
            # a plug-in, or a charger-mode change while plugged, starts a new
            # charging session; `plugged` and `mode` still hold the last step's
            session_start = rec.kind is SegmentKind.PLUGGED and (not plugged or rec_mode is not mode)
            plugged = rec.kind is SegmentKind.PLUGGED
            driving = rec.kind is SegmentKind.DRIVE
            ambient = rec.ambient_c
            mode = rec_mode
            ch_cfg = charger_cfgs[mode]
            ch_setpoints = achievable_setpoints(ch_cfg)
        reason = GATE_OK
        i_dc = 0.0
        p_ac = 0.0
        try:
            point = operating_point(params, aging, ecm_state.soc, t_pack, dt)
            if plugged:
                if session_start or k % control_every == 0:
                    if session_start:
                        session_start = False
                        ctrl = ChargeControlState()
                        p_ac_prev = p_dc_settled = 0.0
                    # built from a tuple, without the NamedTuple's Python-level __new__
                    obs = tuple.__new__(
                        StrategyObservation, (t, ecm_state.soc, t_pack, True, p_ac_prev, ch_setpoints)
                    )
                    try:
                        target = quantize_setpoint(float(strategy(obs)), ch_cfg)
                    except Exception as exc:
                        raise RuntimeError(
                            f"strategy failed at step {k} (t={t} s): {type(exc).__name__}: {exc}"
                        ) from exc
                    if target != ctrl.p_target:
                        ctrl = command_setpoint(target, p_ac_prev)
                        t_cmd = 0.0
                        p_dc_settled = ac_to_dc(ctrl.p_target, ch_cfg)
                if t_cmd < ctrl.t_settle:
                    p_dc_avail = ac_to_dc(ramp_power(ctrl, t_cmd, ch_cfg), ch_cfg)
                else:
                    p_dc_avail = p_dc_settled
                a_cell, b_cell = voltage_prediction_coeffs(ecm_state, point)
                i_cmd = cc_cv_limit(
                    p_dc_avail,
                    n_series * v_cell,
                    v_max_pack,
                    n_series * a_cell,
                    n_series * b_cell,
                )
                i_dc, reason = gate_current(i_cmd, ecm_state.soc, v_cell, t_pack, limits)
                t_cmd += dt
            elif driving:
                i_req = rec.value_w / (n_series * v_cell)
                i_dc, reason = gate_current(i_req, ecm_state.soc, v_cell, t_pack, limits)

            ecm_state, v_cell, heat, soc_clipped = step_ecm(ecm_state, point, i_dc)
            if plugged:
                # the DC power _recorded_trajectory derives for the row, with the same operands
                p_dc = i_dc * (n_series * v_cell)
                if p_dc > 0:
                    p_ac = dc_to_ac(p_dc, ch_cfg)

            cooling = ev_operation and (driving or (plugged and i_dc > 0)) and t_pack > ambient
            t_pack = step_thermal(t_pack, heat * n_series, ambient, dt, th_params, cooling, plugged)
            # the one finiteness check of the step: a non-finite parameter,
            # current, RC voltage or heat shows in one of these three
            if not (math.isfinite(ecm_state.soc) and math.isfinite(v_cell) and math.isfinite(t_pack)):
                raise ValueError(
                    f"non-finite plant state: soc={ecm_state.soc!r}, v_cell={v_cell!r}, t_pack={t_pack!r}"
                )

            if (k + 1) % aging_every == 0:
                calendar_step(aging, ecm_state.soc, t_pack, aging_dt_days, cal_coeffs)
                cycle_accumulate(aging, ecm_state.soc, cyc_coeffs)
                aging_log += (aging.c_norm, aging.r_norm, aging.eqfc)
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(
                f"plant step failed at step {k} (t={t} s): {type(exc).__name__}: {exc}"
            ) from exc

        # the segment kind, then "|reason" for each rare extra flag
        flags = kind_value
        if reason is not GATE_OK:
            flags += "|" + reason.value
        if soc_clipped:
            flags += "|soc_clip"
        if not t_min_c <= t_pack <= t_max_c:
            flags += "|temp_envelope"

        rows += (t + dt, ecm_state.soc, v_cell, i_dc, t_pack, p_ac)
        flags_col.append(flags)
        p_ac_prev = p_ac

    # book the time since the last aging point and the unclosed residual
    # half cycles into the final reported state
    if rest_days:
        calendar_step(aging, ecm_state.soc, t_pack, rest_days, cal_coeffs)
        cycle_accumulate(aging, ecm_state.soc, cyc_coeffs)
    flush_cycles(aging, cyc_coeffs)
    trajectory = _recorded_trajectory(rows, flags_col, n_series, aging_log, aging_cadence)
    if tail_dt:
        trajectory.t_s[-1] = records[-1].t_s
    trajectory.c_norm[-1] = aging.c_norm
    trajectory.r_norm[-1] = aging.r_norm
    trajectory.eqfc[-1] = aging.eqfc
    return trajectory


def _recorded_trajectory(
    rows: list[float],
    flags: list[str],
    n_series: int,
    aging_log: list[float],
    aging_every: int,
) -> Trajectory:
    """The trajectory of what ``run_scenario``'s steps recorded.

    ``rows`` holds (t_s, soc, v_cell, i_dc, t_pack, p_ac) per step, flat.
    ``v_pack = n_series * v_cell`` and ``p_dc = i_dc * v_pack`` take the
    loop's operands, so each is the float the step computed. ``aging_log``
    holds (c_norm, r_norm, eqfc), flat, for the fresh state and after each
    aging point; point j closes on row ``j * aging_every - 1``, which is the
    first to show it.
    """
    n = len(flags)
    table = np.fromiter(rows, float, n * 6).reshape(n, 6)
    t_s, soc, v_cell, i_dc, t_pack, p_ac = (np.ascontiguousarray(c) for c in table.T)
    v_pack = n_series * v_cell
    snapshots = np.array(aging_log).reshape(-1, 3)
    starts = np.arange(len(snapshots)) * aging_every - 1
    starts[0] = 0
    counts = np.diff(starts, append=n)
    c_norm, r_norm, eqfc = (np.repeat(column, counts) for column in snapshots.T)
    return Trajectory(t_s, soc, v_cell, v_pack, i_dc, t_pack, p_ac, i_dc * v_pack, c_norm, r_norm, eqfc, flags)


def compute_metrics(sim: Trajectory, reference: Trajectory) -> ValidationMetrics:
    """Deviation of a simulated trajectory from a reference one.

    The reference is zero-order-hold resampled onto the simulation timestamps;
    samples outside the reference's time span are dropped. Charge and energy
    are the step sums over the simulated trajectory, as in ``summary.txt``.
    Both need times that increase from row to row; the error names the first
    row, counted from 1, whose time does not exceed the one before it.
    """
    if sim.n_rows == 0 or reference.n_rows == 0:
        raise ValueError("cannot compute metrics on an empty trajectory")
    _check_increasing(sim.t_s, "simulation trajectory")
    _check_increasing(reference.t_s, "reference trajectory")
    mask = (sim.t_s >= reference.t_s[0]) & (sim.t_s <= reference.t_s[-1])
    if not np.any(mask):
        raise ValueError("no overlapping samples between simulation and reference")
    idx = np.searchsorted(reference.t_s, sim.t_s[mask], side="right") - 1

    dv_mv = (sim.v_cell[mask] - reference.v_cell[idx]) * 1000.0
    dt_k = sim.t_pack[mask] - reference.t_pack[idx]
    return ValidationMetrics(
        rmse_cell_voltage_mv=float(np.sqrt(np.mean(dv_mv**2))),
        max_abs_error_cell_voltage_mv=float(np.max(np.abs(dv_mv))),
        rmse_pack_temp_k=float(np.sqrt(np.mean(dt_k**2))),
        max_abs_error_pack_temp_k=float(np.max(np.abs(dt_k))),
        charge_ah=_step_integral(sim.i_dc, sim.t_s) / 3600.0,
        energy_kwh=_step_integral(sim.i_dc * sim.v_pack, sim.t_s) / 3.6e6,
        duration_min=(float(sim.t_s[-1]) - float(sim.t_s[0])) / 60.0,
    )


def _check_increasing(t: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first row, counted from 1, whose time is not after the one before."""
    # a NaN compares false, so it fails here too
    late = np.flatnonzero(~(t[1:] > t[:-1]))
    if late.size:
        k = late[0] + 1
        raise ValueError(
            f"{what}: t_s must increase, but row {k + 1} has t_s = {float(t[k])!r} after {float(t[k - 1])!r}"
        )


def _step_integral(values: np.ndarray, t: np.ndarray) -> float:
    """Sum of value*width for end-of-step stamped rows on any time grid.

    Row k holds the step that ends at t[k], so its width is t[k] - t[k-1];
    the first row, whose start is not recorded, takes the second row's width.
    Infinities, NaN and overflow give ``inf`` or ``nan`` without a warning.
    """
    if len(t) < 2:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        widths = np.diff(t)
        return float(np.sum(values * np.concatenate((widths[:1], widths))))


def _write_trajectory(trajectory: Trajectory, path: Path) -> None:
    """Write the CSV rows: each float as its shortest ``repr``, the flags as they are.

    ``repr`` dominates the cost, and columns repeat values, so it runs once
    per distinct value of a column; values are told apart by their float64
    bit patterns, which keeps ``-0.0`` and ``0.0`` apart. Rows are streamed
    in blocks, which bounds the transient Python strings.
    """
    columns = []
    for name in FLOAT_COLUMNS:
        bits = np.ascontiguousarray(getattr(trajectory, name), dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        columns.append((texts, inverse))
    with open(path, "w") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        for start in range(0, trajectory.n_rows, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            cells = [texts[inverse[start:stop]].tolist() for texts, inverse in columns]
            rows = zip(*cells, trajectory.flags[start:stop])
            f.write("\n".join(map(",".join, rows)) + "\n")


def emit_report(
    trajectory: Trajectory,
    metrics: ValidationMetrics | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write ``trajectory.csv`` and ``summary.txt`` into ``out_dir``.

    The summary's charge and energy are step sums, so the times must increase
    from row to row; otherwise nothing is written.
    """
    _check_increasing(trajectory.t_s, "trajectory")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    summary_path = out_dir / "summary.txt"

    _write_trajectory(trajectory, traj_path)

    summary: dict[str, object] = {"rows": trajectory.n_rows}
    if trajectory.n_rows:
        final = AgingState(
            c_norm=float(trajectory.c_norm[-1]), r_norm=float(trajectory.r_norm[-1])
        )
        summary.update(
            {
                "duration_min": (float(trajectory.t_s[-1]) - float(trajectory.t_s[0])) / 60.0,
                "charge_ah": _step_integral(trajectory.i_dc, trajectory.t_s) / 3600.0,
                "ac_energy_kwh": _step_integral(trajectory.p_ac, trajectory.t_s) / 3.6e6,
                "dc_energy_kwh": _step_integral(trajectory.p_dc, trajectory.t_s) / 3.6e6,
                "final_soc": trajectory.soc[-1],
                "final_t_pack_c": trajectory.t_pack[-1],
                "final_c_norm": final.c_norm,
                "final_r_norm": final.r_norm,
                "final_eqfc": trajectory.eqfc[-1],
                "eol_status": eol_check(final).value,
            }
        )
    if metrics is not None:
        summary.update(asdict(metrics))
    summary_lines = [
        f"{key} = {repr(float(val)) if isinstance(val, (int, float)) and not isinstance(val, bool) else val}"
        for key, val in summary.items()
    ]
    summary_path.write_text("\n".join(summary_lines) + "\n")
    return [traj_path, summary_path]


def read_trajectory(path: str | Path) -> Trajectory:
    """Read back a trajectory CSV written by :func:`emit_report`.

    A well-formed file is parsed in one ``np.loadtxt`` call, which checks the
    row width too; any other file, and one without rows (``loadtxt`` warns on
    those), goes through :func:`read_csv_rows`, whose errors name the row.
    ``loadtxt`` gets the same ``splitlines`` lines, so both split rows alike,
    and it accepts a subset of what ``float`` does, with the same values,
    except for ``\\x1f``, which it strips as whitespace.
    """
    path = Path(path)
    text = path.read_text() if path.is_file() else ""
    lines = text.splitlines()
    body = lines[1:]
    if lines[:1] == [TRAJECTORY_HEADER] and any(body) and "\x1f" not in text:
        try:
            table = np.loadtxt(body, _ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            columns = (np.ascontiguousarray(table[name]) for name in FLOAT_COLUMNS)
            return Trajectory(*columns, flags=table["flags"].tolist())
    rows, flags = [], []
    for n, cells in read_csv_rows(path, "trajectory", TRAJECTORY_HEADER):
        rows.append(float_cells(path, n, cells[:-1]))
        flags.append(cells[-1])
    return Trajectory.from_rows(rows, flags)
