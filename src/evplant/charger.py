"""On-board AC charger model.

Covers the four behaviors that matter for charge control studies: set-point
quantization (integer-ampere pilot signaling from 6 A to 16 A, or the two
fixed one-phase cable settings), the measured ramp dynamics after a set-point
change (up to 52 s up, 4 s down), AC-to-DC conversion efficiency as a function
of AC power, and voltage-limited (CV) current tapering.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .params import default_data_dir, float_cells, read_csv_rows, reuse

# ramp dynamics after a new set-point command
RAMP_UP_DURATION_S = 52.0  # upward target reached after at most this
RAMP_DOWN_DELAY_S = 4.0  # downward target reached after this
DEFAULT_DEAD_TIME_S = 2.0  # initial reaction delay when starting from 0 W

DEFAULT_GRID_VOLTAGE_V = 230.0
N_PHASES = 3
MIN_CURRENT_A = 6
MAX_CURRENT_A = 16
CURRENT_STEP_A = 1
ONE_PHASE_SETPOINTS_W = (1800.0, 2900.0)

# packaged curve files in the default data directory
EFFICIENCY_CURVE_FILE = "efficiency_curve.csv"
RAMP_CURVE_FILE = "ramp_curve.csv"


class ChargerMode(Enum):
    ONE_PHASE = "one_phase"
    THREE_PHASE = "three_phase"


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """y(x) through anchor points, clamped to the end values outside their span.

    Frozen, since a loaded curve is shared.
    """

    points: Sequence[tuple[float, float]]
    _xs: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("need at least two anchor points")
        points = tuple((float(x), float(y)) for x, y in self.points)
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in points):
            raise ValueError("non-finite anchor point")
        xs = tuple(x for x, _ in points)
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("anchor abscissae must be strictly increasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_xs", xs)

    def __call__(self, x: float) -> float:
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        i = bisect_right(self._xs, x) - 1
        x0, y0 = pts[i]
        x1, y1 = pts[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def load_curve(path: str | Path) -> PiecewiseLinear:
    """Two-column comma-separated curve file (header row, then abscissa,value).

    While the file holds the same bytes, the curve built from it is returned
    again (see :func:`~evplant.params.reuse`).
    """

    def build(sources) -> PiecewiseLinear:
        rows = read_csv_rows(path, "curve", None, sources[0])
        n, head = next(rows)
        if len(head) != 2:
            raise ValueError(f"{path} row {n}: expected 2 cells, got {len(head)}")
        points = [float_cells(path, n, cells) for n, cells in rows]
        try:
            return PiecewiseLinear(points)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    return reuse("curve", [Path(path)], build)


def check_efficiency_curve(curve: PiecewiseLinear) -> None:
    """Efficiency anchors lie in (0, 1] and do not fall with power, so :func:`dc_to_ac` has one answer."""
    etas = [y for _, y in curve.points]
    if any(not 0.0 < e <= 1.0 for e in etas):
        raise ValueError("efficiency anchors must lie in (0, 1]")
    if any(b < a for a, b in zip(etas, etas[1:])):
        raise ValueError("efficiency must be non-decreasing in power")


def check_ramp_curve(curve: PiecewiseLinear) -> None:
    """The ramp shape rises from 0 at the command to 1 at the end of the ramp-up."""
    if curve(0.0) != 0.0 or curve(RAMP_UP_DURATION_S) != 1.0:
        raise ValueError(f"ramp curve must start at 0 and reach 1 at {RAMP_UP_DURATION_S} s")


def check_dead_time(dead_time_s: float) -> None:
    """The reaction dead time must end before the ramp-up does."""
    if not 0.0 <= dead_time_s < RAMP_UP_DURATION_S:
        raise ValueError(f"dead_time_s must lie in [0, {RAMP_UP_DURATION_S:g}) s, got {dead_time_s!r}")


@dataclass(frozen=True)
class ChargerConfig:
    mode: ChargerMode = ChargerMode.THREE_PHASE
    grid_voltage: float = DEFAULT_GRID_VOLTAGE_V  # V per phase
    efficiency: PiecewiseLinear = field(
        default_factory=lambda: load_curve(default_data_dir() / EFFICIENCY_CURVE_FILE)
    )
    ramp: PiecewiseLinear = field(
        default_factory=lambda: load_curve(default_data_dir() / RAMP_CURVE_FILE)
    )
    dead_time_s: float = DEFAULT_DEAD_TIME_S
    # all commandable AC powers including 0 (charging off), ascending
    setpoints: tuple[float, ...] = field(init=False, repr=False)
    # DC power x * eta at each efficiency anchor, and per segment between two
    # anchors the (slope, b, y0) of eta = b + slope * x that dc_to_ac solves
    dc_anchors: tuple[float, ...] = field(init=False, repr=False)
    dc_segments: tuple[tuple[float, float, float], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ChargerMode):
            raise ValueError(f"mode must be a ChargerMode, got {self.mode!r}")
        if not (math.isfinite(self.grid_voltage) and self.grid_voltage > 0.0):
            raise ValueError(f"grid_voltage must be a positive finite number, got {self.grid_voltage!r}")
        check_efficiency_curve(self.efficiency)
        check_ramp_curve(self.ramp)
        check_dead_time(self.dead_time_s)
        if self.mode is ChargerMode.ONE_PHASE:
            powers = ONE_PHASE_SETPOINTS_W
        else:
            amps = range(MIN_CURRENT_A, MAX_CURRENT_A + 1, CURRENT_STEP_A)
            powers = tuple(N_PHASES * self.grid_voltage * n for n in amps)
        object.__setattr__(self, "setpoints", (0.0,) + powers)
        pts = self.efficiency.points
        segments = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            slope = (y1 - y0) / (x1 - x0)
            segments.append((slope, y0 - slope * x0, y0))
        object.__setattr__(self, "dc_anchors", tuple(x * y for x, y in pts))
        object.__setattr__(self, "dc_segments", tuple(segments))


def achievable_setpoints(config: ChargerConfig) -> tuple[float, ...]:
    """All commandable AC powers including 0 (charging off), ascending."""
    return config.setpoints


def quantize_setpoint(requested_w: float, config: ChargerConfig) -> float:
    """Largest achievable set-point not exceeding the request; 0 below the minimum."""
    if requested_w < 0 or not math.isfinite(requested_w):
        raise ValueError(f"requested power must be finite and >= 0, got {requested_w}")
    setpoints = config.setpoints
    return setpoints[bisect_right(setpoints, requested_w) - 1]


class ChargeControlState(NamedTuple):
    """A set-point command: the target and the power the ramp starts from.

    The ramp's direction follows from the pair: up when ``p_target`` exceeds
    ``p_at_command``, down when it is below, none when they are equal.
    ``t_settle`` is the time after the command from which :func:`ramp_power`
    returns exactly ``p_target``: the ramp-up duration, the ramp-down delay,
    or 0 for an equal pair. :func:`command_setpoint` is the one place that
    builds a non-default command; the default is a settled 0 W.
    """

    p_target: float = 0.0  # W AC, quantized
    p_at_command: float = 0.0  # W AC when the command was issued
    t_settle: float = 0.0


def command_setpoint(new_target_w: float, current_power_w: float) -> ChargeControlState:
    """Record a new (already quantized) set-point; the ramp restarts from now."""
    if new_target_w > current_power_w:
        t_settle = RAMP_UP_DURATION_S
    elif new_target_w < current_power_w:
        t_settle = RAMP_DOWN_DELAY_S
    else:
        t_settle = 0.0
    return ChargeControlState(new_target_w, current_power_w, t_settle)


def ramp_power(state: ChargeControlState, t: float, config: ChargerConfig) -> float:
    """AC power ``t`` seconds after the last set-point command.

    From ``state.t_settle`` on, the result is exactly ``state.p_target``, so
    a caller may hold that value until the next command. Before it, upward
    changes follow the normalized mean ramp shape and land on the target at
    exactly 52 s; downward changes hold the old power for 4 s and then step
    to the target. A command starting from 0 W first sits through the
    reaction dead time, with the remaining shape compressed so the target is
    still reached at 52 s.
    """
    if t >= state.t_settle:
        return state.p_target
    if state.p_target < state.p_at_command:
        return state.p_at_command
    t_eff = t
    if state.p_at_command == 0.0 and config.dead_time_s > 0.0:
        t_eff = t - config.dead_time_s
        t_eff = (t_eff if t_eff > 0.0 else 0.0) * RAMP_UP_DURATION_S / (RAMP_UP_DURATION_S - config.dead_time_s)
    return state.p_at_command + (state.p_target - state.p_at_command) * config.ramp(t_eff)


def ac_to_dc(p_ac: float, config: ChargerConfig) -> float:
    """DC power into the battery for a given AC draw."""
    if not p_ac >= 0:
        raise ValueError(f"AC power must be >= 0, got {p_ac}")
    if p_ac == 0.0:
        return 0.0
    return p_ac * config.efficiency(p_ac)


def dc_to_ac(p_dc: float, config: ChargerConfig) -> float:
    """AC draw needed for a given DC power: the exact inverse of :func:`ac_to_dc`.

    p * eta(p) is strictly increasing (eta positive and non-decreasing), so the
    inverse is unique. The efficiency segment is found by bisecting the anchor
    DC powers; at an anchor's own DC power the lower segment is taken. On it,
    eta = b + slope * p, and the quadratic p * eta(p) = p_dc is solved for p.
    """
    if not p_dc >= 0:
        raise ValueError(f"DC power must be >= 0, got {p_dc}")
    if p_dc == 0.0:
        return 0.0
    anchors = config.dc_anchors
    # below the first anchor and above the last, eta is constant
    if p_dc <= anchors[0]:
        return p_dc / config.efficiency.points[0][1]
    if p_dc >= anchors[-1]:
        return p_dc / config.efficiency.points[-1][1]
    slope, b, y0 = config.dc_segments[bisect_left(anchors, p_dc) - 1]
    if slope == 0.0:
        return p_dc / y0
    # solve slope*p^2 + b*p - p_dc = 0 for p in the segment
    return (-b + math.sqrt(b * b + 4.0 * slope * p_dc)) / (2.0 * slope)


def dc_to_ac_array(p_dc: np.ndarray, config: ChargerConfig) -> np.ndarray:
    """:func:`dc_to_ac` of each element of ``p_dc``, all > 0: the same floats, element by element.

    ``searchsorted(side="left")`` finds the segment as ``bisect_left`` does,
    and each branch repeats the scalar's operations in its operand order.
    """
    anchors = config.dc_anchors
    etas = config.efficiency.points
    slope, b, y0 = np.array(config.dc_segments).T
    # the segment below each point, clipped onto the first and last for the clamp branches
    seg = np.searchsorted(anchors, p_dc, side="left") - 1
    np.clip(seg, 0, len(slope) - 1, out=seg)
    slope, b, y0 = slope[seg], b[seg], y0[seg]
    flat = slope == 0.0
    # a flat segment's quadratic is 0/0, and its value is replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        p_ac = (-b + np.sqrt(b * b + 4.0 * slope * p_dc)) / (2.0 * slope)
    p_ac[flat] = p_dc[flat] / y0[flat]
    low = p_dc <= anchors[0]
    p_ac[low] = p_dc[low] / etas[0][1]
    high = p_dc >= anchors[-1]
    p_ac[high] = p_dc[high] / etas[-1][1]
    return p_ac


def cc_cv_limit(
    p_dc_request: float,
    pack_voltage: float,
    v_max_pack: float,
    v_pred_offset: float,
    v_pred_slope: float,
) -> float:
    """DC current command for constant-power charging with a voltage ceiling.

    Below the limit the command is simply request/voltage. The CV taper uses
    the plant's one-step prediction ``v = v_pred_offset + v_pred_slope * i``
    (pack level) and picks the largest current whose predicted voltage stays
    at or under ``v_max_pack``; the result is never negative.
    """
    if not pack_voltage > 0:
        raise ValueError(f"pack voltage must be positive, got {pack_voltage}")
    if p_dc_request <= 0:
        return 0.0
    i_cc = p_dc_request / pack_voltage
    i_cv = (v_max_pack - v_pred_offset) / v_pred_slope
    i_dc = i_cv if i_cv < i_cc else i_cc
    return i_dc if i_dc > 0.0 else 0.0
