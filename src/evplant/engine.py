"""Fixed-timestep simulation engine coupling plant, charger, BMS, and strategy.

A run lays out its step starts once. A profile record takes effect at the
first step that starts at or after its time, so one superseded within a
step never does, and sets the segment of the steps up to the next record's.
Each step: when plugged in, poll the strategy at the control interval and
when a charging session starts (a plug-in, or a charger-mode change while
plugged, which resets the set-point and ramp) with the AC power the last
step drew (0 W at a session start), quantize the AC set-point, convert the
ramped power to DC while the ramp still moves and hold the settled
set-point's DC power, converted once per command, after it, then apply the
CV current limit and the BMS gate; when driving, convert the requested DC
power to current against the latest pack voltage and gate it.
Then advance the cell electrics (an idle cell at rest on its OCV alone),
scale the cell voltage and heat by the series count (the one place the pack
scaling lives), advance the pack temperature, and accrue aging at its own
cadence: an aging point books calendar aging and feeds the rainflow counter
its SOC, but only a SOC that moved since the last one fed, since the counter
ignores a repeat. A run covers and ages its
whole profile: :func:`evplant.scenario.whole_steps` splits its span into
whole steps and a tail, which is one last, shorter step, and the time since
the last aging point is booked at the end. A step records only its SOC,
cell voltage, current and pack temperature, in place in a preallocated
table, and a mark code when its gate or its SOC clip adds a flag; each
aging point, and then the run's end, records the aging state. So a run
holds little more than the trajectory it returns; its last row shows the
final state and ends at the profile's end. The end times (the step starts
plus dt), the pack voltage, the DC and AC power, the aging columns and the
flags are laid out once per run, with the operations a step would use; a
poll computes only the last step's AC power. Runs are purely deterministic:
identical inputs give bit-identical trajectories. A failing step raises
``RuntimeError``: ``strategy failed at step k (t=... s): <Type>: ...`` for
the strategy, ``plant step failed at ...`` for a plant ValueError or ArithmeticError.
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
from functools import cache
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

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
from .bms import GATE_OK, GateReason, gate_current
from .charger import (
    EFFICIENCY_CURVE_FILE,
    RAMP_CURVE_FILE,
    ChargeControlState,
    ChargerConfig,
    ChargerMode,
    PiecewiseLinear,
    ac_to_dc,
    achievable_setpoints,
    cc_cv_limit,
    check_efficiency_curve,
    check_ramp_curve,
    command_setpoint,
    dc_to_ac,
    dc_to_ac_array,
    load_curve,
    quantize_setpoint,
    ramp_power,
)
from .ecm import EcmState, operating_point, rest_step, rest_voltage, step_ecm, voltage_prediction_coeffs
from .params import default_data_dir, float_cells, load_parameter_set, read_csv_rows
from .scenario import ScenarioConfig, ScenarioProfile, SegmentKind, whole_steps
from .thermal import ThermalMode, ThermalParams, step_thermal

SECONDS_PER_DAY = 86400.0

# CV target sits this far below the cell voltage limit (see module docstring)
CV_MARGIN_V_PER_CELL = 1e-4

# a marked step's code: twice its reason's index in _MARK_REASONS (found by identity, with
# no Enum __hash__ frame), plus 1 if its SOC was clipped; code c adds _MARK_FLAGS[c] to flags
_MARK_REASONS = list(GateReason)
_MARK_FLAGS = [("" if r is GATE_OK else "|" + r.value) + clip for r in _MARK_REASONS for clip in ("", "|soc_clip")]


class StrategyObservation(NamedTuple):
    """What a charge strategy is allowed to see; never plant internals."""

    t_s: float
    soc: float
    t_pack_c: float
    plugged: bool
    ac_power_w: float  # the AC power the last step drew (its row's p_ac_w)
    setpoints_w: tuple[float, ...]  # achievable AC set-points incl. 0


Strategy = Callable[[StrategyObservation], float]


def strategy_max_power(obs: StrategyObservation) -> float:
    """Always request the highest achievable set-point."""
    return obs.setpoints_w[-1]


def strategy_off(obs: StrategyObservation) -> float:
    return 0.0


def make_constant_strategy(watts: float) -> Strategy:
    """Request ``watts`` at every poll; a NaN, infinite or negative power is refused here."""
    if not (math.isfinite(watts) and watts >= 0.0):
        raise ValueError(f"constant power must be finite and >= 0, got {watts!r}")

    def strategy(obs: StrategyObservation) -> float:
        return watts

    return strategy


def make_profile_strategy(profile: ScenarioProfile) -> Strategy:
    """Request the profile record's ``value_w`` while plugged in (the default)."""
    records = profile.records
    later_ts = [r.t_s for r in records[1:]]  # a time before the second record takes the first
    requests = [r.value_w if r.value_w > 0.0 else 0.0 for r in records]

    def strategy(obs: StrategyObservation) -> float:
        return requests[bisect_right(later_ts, obs.t_s)]

    return strategy


# CSV names of the Trajectory fields, in field order
TRAJECTORY_HEADER = "t_s,soc,v_cell_v,v_pack_v,i_dc_a,t_pack_c,p_ac_w,p_dc_w,c_norm,r_norm,eqfc,flags"


@dataclass
class Trajectory:
    """Per-step simulation record; rows are stamped with the end of each step.

    The columns :func:`read_trajectory` returns are strided views of one table.
    """

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
# rows per block that emit_report writes at once
_BLOCK_ROWS = 1024
# characters per read of read_trajectory's pass over a file
_READ_CHARS = 1 << 16
# the four separators \x1c-\x1f, which np.loadtxt skips around a number but
# float refuses; no other character makes the two readers part
_ROUTED_CHARS = "\x1c\x1d\x1e\x1f"


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
    """Simulate one scenario; see the module docstring for the step order.

    ``starts`` holds each step's start, ``t0 + k * dt``: each record's
    first step is found in it, each step reads its time from it, and it
    becomes ``t_s``. Step k stores its soc, v_cell, i_dc and t_pack in
    column k of the preallocated ``steps`` table, one row per value, through
    a memoryview bound to each row once, and a marked step its mark code
    (see ``_MARK_REASONS``) in ``marks``. The aging states go the same way
    into ``aging_table``: the fresh state in column 0, aging point j in
    column j and the final state in the last; the steps of the next aging
    point and poll are counted ahead, with no modulo of k. A run whose
    tables cannot be allocated raises ``ValueError``.
    """
    records = profile.records
    dt = config.dt_s
    # a tail shorter than one step is simulated as one last, shorter step
    n_whole, tail_dt = whole_steps(profile.duration_s, dt)
    n_steps = n_whole + (tail_dt > 0.0)
    if n_steps <= 0:
        return Trajectory.empty()
    # ScenarioConfig holds both intervals to whole multiples of dt
    control_every = whole_steps(config.control_interval_s, dt)[0]
    aging_every = whole_steps(config.aging_interval_s, dt)[0]
    aging_dt_days = aging_every * dt / SECONDS_PER_DAY
    # time from the last aging point to the end of the run, booked after the loop
    rest_days = ((n_whole % aging_every) * dt + tail_dt) / SECONDS_PER_DAY

    params = load_parameter_set(config.data_dir)
    aging_dir = config.aging_data_dir if config.aging_data_dir is not None else config.data_dir
    cal_coeffs = load_calendar_coeffs(aging_dir)
    cyc_coeffs = load_cycle_coeffs(aging_dir)
    th_params = ThermalParams.for_mode(config.thermal_mode, c_pack=config.c_pack_j_per_k)
    ramp_curve = _charger_curve(config.ramp_curve, RAMP_CURVE_FILE, check_ramp_curve)
    eff_curve = _charger_curve(config.efficiency_curve, EFFICIENCY_CURVE_FILE, check_efficiency_curve)
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
    if strategy is None:
        strategy = make_profile_strategy(profile)

    soc = config.initial_soc
    ecm_state = EcmState(soc)
    aging = AgingState()
    t0 = records[0].t_s
    t_pack = config.initial_temp_c if config.initial_temp_c is not None else records[0].ambient_c
    v_cell = rest_voltage(ecm_state, params, t_pack)
    n_series = params.n_series
    v_max_pack = n_series * (limits.v_cell_max - CV_MARGIN_V_PER_CELL)
    ev_operation = config.thermal_mode is ThermalMode.EV_OPERATION

    ctrl = ChargeControlState()
    t_cmd = 0.0  # time since the last command
    # DC power of the settled set-point, held until the next command
    p_dc_settled = 0.0
    # the last segment's state, which a session start compares with
    plugged = False
    mode = None
    # the SOC the rainflow counter was last fed; NaN, so the first aging point feeds
    soc_fed = math.nan
    # the step of the next poll on the control grid, set at each poll; the
    # step that closes the next aging point, and that point's column
    next_poll, next_aging, j = 0, aging_every - 1, 1
    isfinite = math.isfinite
    ocv_at, capacity_ah, r_norm_rest = params.ocv_lookup.at, params.nominal_capacity_ah, params.rest_r_norm_max

    try:
        starts = t0 + np.arange(n_steps) * dt
        # soc, v_cell, i_dc and t_pack, one row each, one column per step
        steps = np.empty((4, n_steps))
        # c_norm, r_norm and eqfc, one row each; the columns hold the fresh
        # state, each aging point's and, last, the final state
        aging_table = np.empty((3, n_whole // aging_every + 2))
        marks = np.zeros(n_steps, np.uint8)
    except MemoryError:
        raise ValueError(f"a run of {n_steps} steps of dt_s = {dt} s is too large to hold in memory") from None
    soc_col, v_col, i_col, t_col = map(memoryview, steps)
    c_log, r_log, eqfc_log = map(memoryview, aging_table)
    start_col, mark_col = memoryview(starts), memoryview(marks)
    # a record takes effect at the first step that starts at or after its time
    firsts = np.searchsorted(starts, [r.t_s for r in records]).tolist()
    # (first row, stop row, segment kind, charger config) per record that takes effect
    spans: list[tuple[int, int, SegmentKind, ChargerConfig]] = []
    c_log[0], r_log[0], eqfc_log[0] = aging.c_norm, aging.r_norm, aging.eqfc

    for rec, first, stop in zip(records, firsts, firsts[1:]):
        if first == stop:
            # a later record in the same step supersedes it
            continue
        rec_mode = rec.charger_mode or config.charger_mode
        # a plug-in, or a charger-mode change while plugged, starts a new
        # charging session; `plugged` and `mode` still hold the last segment's
        session_start = rec.kind is SegmentKind.PLUGGED and (not plugged or rec_mode is not mode)
        plugged = rec.kind is SegmentKind.PLUGGED
        driving = rec.kind is SegmentKind.DRIVE
        idle = not (plugged or driving)
        ambient = rec.ambient_c
        mode = rec_mode
        ch_cfg = charger_cfgs[mode]
        ch_setpoints = achievable_setpoints(ch_cfg)
        spans.append((first, stop, rec.kind, ch_cfg))
        for k, t in enumerate(start_col[first:stop], first):
            if k == n_whole:
                # the tail step: shorter, and no aging point; rest_days books its time
                dt = tail_dt
                next_aging = -1
            reason = GATE_OK
            try:
                if idle and not (ecm_state[2] or ecm_state[1]) and aging.r_norm <= r_norm_rest:
                    # an idle cell at rest: step_ecm at zero current would only read the OCV
                    i_dc = 0.0
                    c_eff_ah = capacity_ah * aging.c_norm
                    ecm_state, v_cell, heat, soc_clipped = rest_step(ecm_state, ocv_at(soc, t_pack)[0], dt, c_eff_ah)
                else:
                    point = operating_point(params, aging, soc, t_pack, dt)
                    if plugged:
                        if session_start or k == next_poll:
                            next_poll = k - k % control_every + control_every
                            if session_start:
                                session_start = False
                                ctrl = ChargeControlState()
                                p_ac_prev = p_dc_settled = 0.0
                            else:
                                # the AC power the last step drew: i_dc and v_cell
                                # still hold its values, the operands of its row's p_ac
                                p_dc = i_dc * (n_series * v_cell)
                                p_ac_prev = dc_to_ac(p_dc, ch_cfg) if p_dc > 0 else 0.0
                            # built from a tuple, without the NamedTuple's Python-level __new__
                            obs = tuple.__new__(
                                StrategyObservation, (t, soc, t_pack, True, p_ac_prev, ch_setpoints)
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
                        i_dc, reason = gate_current(i_cmd, soc, v_cell, t_pack, limits)
                        t_cmd += dt
                    elif driving:
                        i_req = rec.value_w / (n_series * v_cell)
                        i_dc, reason = gate_current(i_req, soc, v_cell, t_pack, limits)
                    else:
                        i_dc = 0.0

                    ecm_state, v_cell, heat, soc_clipped = step_ecm(ecm_state, point, i_dc)
                soc = ecm_state[0]
                cooling = ev_operation and (driving or (plugged and i_dc > 0)) and t_pack > ambient
                t_pack = step_thermal(t_pack, heat * n_series, ambient, dt, th_params, cooling, plugged)
                # the one finiteness check of the step: a non-finite parameter,
                # current, RC voltage or heat shows in one of these three
                if not (isfinite(soc) and isfinite(v_cell) and isfinite(t_pack)):
                    raise ValueError(f"non-finite plant state: soc={soc!r}, v_cell={v_cell!r}, t_pack={t_pack!r}")

                if k == next_aging:
                    calendar_step(aging, soc, t_pack, aging_dt_days, cal_coeffs)
                    # the counter ignores a sample equal to its last one
                    # (RainflowCounter.feed returns () and keeps its state),
                    # so a SOC that has not moved since the last one fed is
                    # not fed at all
                    if soc != soc_fed:
                        cycle_accumulate(aging, soc, cyc_coeffs)
                        soc_fed = soc
                    c_log[j], r_log[j], eqfc_log[j] = aging.c_norm, aging.r_norm, aging.eqfc
                    next_aging += aging_every
                    j += 1
            except (ValueError, ArithmeticError) as exc:
                raise RuntimeError(
                    f"plant step failed at step {k} (t={t} s): {type(exc).__name__}: {exc}"
                ) from exc

            soc_col[k], v_col[k], i_col[k], t_col[k] = soc, v_cell, i_dc, t_pack
            if reason is not GATE_OK or soc_clipped:
                mark_col[k] = 2 * _MARK_REASONS.index(reason) + soc_clipped

    # book the time since the last aging point and the unclosed residual
    # half cycles into the final reported state
    if rest_days:
        calendar_step(aging, soc, t_pack, rest_days, cal_coeffs)
        cycle_accumulate(aging, soc, cyc_coeffs)
    flush_cycles(aging, cyc_coeffs)
    c_log[-1], r_log[-1], eqfc_log[-1] = aging.c_norm, aging.r_norm, aging.eqfc
    return _recorded_trajectory(starts, steps, n_series, spans, marks, aging_table, aging_every, profile, config)


def _charger_curve(path: Path | None, default_file: str, check: Callable) -> PiecewiseLinear:
    """The curve in ``path``, or in the packaged ``default_file``; a ``check`` that refuses it names the file."""
    path = path or default_data_dir() / default_file
    curve = load_curve(path)
    try:
        check(curve)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return curve


def _recorded_trajectory(
    starts: np.ndarray,
    steps: np.ndarray,
    n_series: int,
    spans: list[tuple[int, int, SegmentKind, ChargerConfig]],
    marks: np.ndarray,
    snapshots: np.ndarray,
    aging_every: int,
    profile: ScenarioProfile,
    config: ScenarioConfig,
) -> Trajectory:
    """The trajectory of what ``run_scenario``'s steps recorded.

    ``steps`` is a C-order ``(4, n)`` table whose rows are the soc, v_cell,
    i_dc and t_pack columns; they become the trajectory's columns without a
    copy. ``starts`` holds the run's step starts and becomes ``t_s`` in
    place: row k ends at ``starts[k] + dt``, and the last row at the last
    record's time. ``v_pack = n_series * v_cell`` and ``p_dc = i_dc *
    v_pack`` take the loop's operands. ``spans`` holds (first row, stop row,
    segment kind, charger config) per record that takes effect: a row's
    flags start with its span's kind, and ``p_ac`` is ``dc_to_ac(p_dc)``
    with the span's config on a plugged row that draws (``p_dc > 0``), and
    0.0 on every other row, which is the AC power a strategy poll reads for
    the step. A row's ``marks`` code adds its ``_MARK_FLAGS`` (``|<reason>``
    and ``|soc_clip``), and a ``t_pack`` outside ``config.bms``'s
    ``[t_min_c, t_max_c]`` adds ``|temp_envelope``. The rows of the ``(3,
    m)`` table ``snapshots`` are c_norm, r_norm and eqfc, and its columns
    the fresh state, each aging point's and, last, the final state; point j
    closes on row ``j * aging_every - 1``, which is the first to show it,
    and the final state is the last row's.
    """
    soc, v_cell, i_dc, t_pack = steps
    n = len(soc)
    t_s = starts
    t_s += config.dt_s
    t_s[-1] = profile.records[-1].t_s
    v_pack = n_series * v_cell
    p_dc = i_dc * v_pack
    p_ac = np.zeros(n)
    flags: list[str] = []
    for start, stop, kind, ch_cfg in spans:
        flags.extend(repeat(kind.value, stop - start))
        if kind is SegmentKind.PLUGGED:
            # only the rows that draw are gathered and converted
            drawing = np.flatnonzero(p_dc[start:stop] > 0) + start
            p_ac[drawing] = dc_to_ac_array(p_dc[drawing], ch_cfg)
    join = cache(str.__add__)  # one string per distinct flag value, not one per row
    marked = np.flatnonzero(marks)
    for k, code in zip(marked.tolist(), marks[marked].tolist()):
        flags[k] = join(flags[k], _MARK_FLAGS[code])
    inside = (t_pack >= config.bms.t_min_c) & (t_pack <= config.bms.t_max_c)
    for k in np.flatnonzero(~inside).tolist():
        flags[k] = join(flags[k], "|temp_envelope")
    points = np.arange(snapshots.shape[1]) * aging_every - 1
    points[0], points[-1] = 0, n - 1
    counts = np.diff(points, append=n)
    c_norm, r_norm, eqfc = (np.repeat(column, counts) for column in snapshots)
    return Trajectory(t_s, soc, v_cell, v_pack, i_dc, t_pack, p_ac, p_dc, c_norm, r_norm, eqfc, flags)


def compute_metrics(sim: Trajectory, reference: Trajectory) -> ValidationMetrics:
    """Deviation of a simulated trajectory from a reference one.

    The reference is zero-order-hold resampled onto the simulation timestamps;
    samples outside the reference's time span are dropped. Charge and energy
    are the step sums over the simulated trajectory of ``i_dc`` and of
    ``i_dc * v_pack``; ``summary.txt`` sums ``p_dc`` for its DC energy.
    Both need as many rows in every column and in ``flags`` as in ``t_s``,
    and times that increase from row to row; the error names the first
    row, counted from 1, whose time does not exceed the one before it.
    """
    _check_lengths(sim, "simulation trajectory")
    _check_lengths(reference, "reference trajectory")
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


def _check_lengths(trajectory: Trajectory, what: str) -> None:
    """Raise ``ValueError`` naming the first column, or ``flags``, whose length is not that of ``t_s``."""
    n = trajectory.n_rows
    for name in (*FLOAT_COLUMNS[1:], "flags"):
        length = len(getattr(trajectory, name))
        if length != n:
            raise ValueError(f"{what}: {name} has {length} rows, but t_s has {n}")


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

    Rows go out in blocks of ``_BLOCK_ROWS``, and only one block's strings
    are held at a time, so the memory the write takes does not grow with the
    trajectory. ``repr`` dominates the cost, and columns repeat values in
    runs, so it runs once per run of equal float64 bit patterns of a column
    in a block, which keeps ``-0.0`` and ``0.0`` apart, and the run's text
    is repeated over its rows. A value that recurs apart is formatted again.
    """
    with open(path, "w") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        for start in range(0, trajectory.n_rows, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            cells = []
            for name in FLOAT_COLUMNS:
                block = np.ascontiguousarray(getattr(trajectory, name)[start:stop], dtype=np.float64)
                bits = block.view(np.int64)
                heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
                if len(heads) == len(block):  # no two neighbours alike, as in t_s
                    cells.append(list(map(repr, block.tolist())))
                else:
                    texts = np.array(list(map(repr, block[heads].tolist())), dtype=object)
                    cells.append(np.repeat(texts, np.diff(heads, append=len(block))).tolist())
            rows = zip(*cells, trajectory.flags[start:stop])
            f.write("\n".join(map(",".join, rows)) + "\n")


def emit_report(
    trajectory: Trajectory,
    metrics: ValidationMetrics | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write ``trajectory.csv`` and ``summary.txt`` into ``out_dir``.

    Every column and ``flags`` must have as many rows as ``t_s``, and the
    summary's charge and energy are step sums, so the times must increase
    from row to row; otherwise nothing is written.
    """
    _check_lengths(trajectory, "trajectory")
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

    A well-formed file is parsed by one ``np.loadtxt`` call on the open
    file, which checks the row width too; any other file goes through
    :func:`read_csv_rows`, whose errors name the row. Both end a line where
    a text-mode file does. A file is well formed
    when :func:`_loadtxt_reads_alike` finds, in one pass over it in
    blocks of ``_READ_CHARS`` characters, that ``loadtxt`` sees the rows
    ``read_csv_rows`` sees. ``loadtxt`` accepts a subset of what ``float``
    does, with the same values; a file it rejects (``1_0``, a fullwidth
    digit, a line of spaces) is read row by row. So
    the read holds one block of text and then ``loadtxt``'s table, never
    the whole text or its lines. The float columns are returned as that
    table's fields, strided views of one record array, not copies.
    """
    path = Path(path)
    if path.is_file():
        with open(path) as f:
            if _loadtxt_reads_alike(f):
                f.seek(0)
                try:
                    table = np.loadtxt(f, _ROW_DTYPE, delimiter=",", comments=None, skiprows=1, ndmin=1)
                except ValueError:
                    pass
                else:
                    return Trajectory(*(table[name] for name in FLOAT_COLUMNS), flags=table["flags"].tolist())
    rows, flags = [], []
    for n, cells in read_csv_rows(path, "trajectory", TRAJECTORY_HEADER):
        rows.append(float_cells(path, n, cells[:-1]))
        flags.append(cells[-1])
    return Trajectory.from_rows(rows, flags)


def _loadtxt_reads_alike(f: TextIO) -> bool:
    """Whether ``np.loadtxt`` sees the rows of the open file that :func:`read_csv_rows` sees.

    That needs the header as the first line, a non-empty line after it (on
    a file without one ``loadtxt`` warns), and none of ``_ROUTED_CHARS``,
    which ``loadtxt`` skips and ``float`` refuses.
    Text that does not decode is left to ``read_csv_rows``, which names the file.
    """
    head = TRAJECTORY_HEADER + "\n"
    try:
        if f.readline(len(head)) != head:
            return False
        has_row = False
        while chunk := f.read(_READ_CHARS):
            if any(c in chunk for c in _ROUTED_CHARS):
                return False
            has_row = has_row or chunk.lstrip("\n") != ""
    except UnicodeDecodeError:
        return False
    return has_row
