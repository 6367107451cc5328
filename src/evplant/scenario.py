"""Scenario inputs: the usage profile and the key-value configuration file.

Profile files are comma-separated with the header
``t_s,kind,value_w,ambient_c,charger_mode``. ``kind`` is one of ``drive``,
``plugged``, ``idle``; ``value_w`` is the signed DC power at the battery
terminals for drive segments (positive = into the battery); ``charger_mode``
may be empty to use the configured default. Each record starts a segment that
lasts until the next record's timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import get_args, get_type_hints

from .bms import BmsLimits
from .charger import DEFAULT_DEAD_TIME_S, DEFAULT_GRID_VOLTAGE_V, ChargerMode, check_dead_time
from .params import check_finite, default_data_dir, float_cells, read_csv_rows, read_text
from .thermal import PACK_HEAT_CAPACITY, ThermalMode

MOTOR_POWER_LIMIT_W = 55_000.0  # drive power beyond the motor rating is rejected

PROFILE_HEADER = "t_s,kind,value_w,ambient_c,charger_mode"

# a rest shorter than this fraction of a step is the rounding of the span, not
# a tail: 2.1 s / 0.7 s is 3.0000000000000004, and 8,640,374.8 s - 8,640,000.0 s
# is 1874.0000000037 steps of 0.2 s
_WHOLE_STEPS_TOL = 1e-6


def whole_steps(span_s: float, dt_s: float) -> tuple[int, float]:
    """The whole steps of ``dt_s`` in ``span_s`` and the rest, shorter than one step.

    A span within ``_WHOLE_STEPS_TOL`` of a step of a whole count is that
    count, with no rest. A span taken between two large times (a run from
    day 100) is off a whole count by the rounding of those times; that stays
    inside the slack for times within a year, steps of 0.1 s or more and
    counts below about 10**9.
    """
    steps = span_s / dt_s
    n = round(steps)
    if abs(steps - n) <= _WHOLE_STEPS_TOL:
        return n, 0.0
    n = math.floor(steps)
    return n, span_s - n * dt_s


class SegmentKind(Enum):
    DRIVE = "drive"
    PLUGGED = "plugged"
    IDLE = "idle"


@dataclass(frozen=True)
class ProfileRecord:
    t_s: float
    kind: SegmentKind
    value_w: float
    ambient_c: float
    charger_mode: ChargerMode | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SegmentKind):
            raise ValueError(f"kind must be a SegmentKind, got {self.kind!r}")
        if self.charger_mode is not None and not isinstance(self.charger_mode, ChargerMode):
            raise ValueError(f"charger_mode must be a ChargerMode or None, got {self.charger_mode!r}")
        check_finite(self)
        if self.kind is SegmentKind.DRIVE and abs(self.value_w) > MOTOR_POWER_LIMIT_W:
            raise ValueError(
                f"drive power {self.value_w} W at t={self.t_s} exceeds the "
                f"{MOTOR_POWER_LIMIT_W:.0f} W motor rating"
            )


@dataclass(frozen=True)
class ScenarioProfile:
    records: tuple[ProfileRecord, ...]

    def __post_init__(self) -> None:
        # a list passed in is held as a tuple, so the records checked here are the records a run reads
        object.__setattr__(self, "records", tuple(self.records))
        for k in range(1, len(self.records)):
            t, before = self.records[k].t_s, self.records[k - 1].t_s
            if t <= before:
                raise ValueError(
                    f"profile: t_s must increase, but record {k + 1} has t_s = {t!r} after {before!r}"
                )

    @property
    def duration_s(self) -> float:
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].t_s - self.records[0].t_s

    @classmethod
    def from_csv(cls, path: str | Path) -> "ScenarioProfile":
        records = []
        for n, cells in read_csv_rows(path, "profile", PROFILE_HEADER):
            t_s, kind, value_w, ambient_c, mode = (c.strip() for c in cells)
            # an empty value_w means 0 W
            t, value, ambient = float_cells(path, n, (t_s, value_w or "0", ambient_c))
            try:
                charger_mode = ChargerMode(mode.lower()) if mode else None
                record = ProfileRecord(t, SegmentKind(kind.lower()), value, ambient, charger_mode)
            except ValueError as exc:
                raise ValueError(f"{path} row {n}: {exc}") from None
            # checked here too, so the error names the file row and not the record
            if records and t <= records[-1].t_s:
                before = records[-1].t_s
                raise ValueError(f"{path}: t_s must increase, but row {n} has t_s = {t!r} after {before!r}")
            records.append(record)
        return cls(records)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs besides the profile and the strategy."""

    data_dir: Path = field(default_factory=default_data_dir)
    aging_data_dir: Path | None = None  # None: same as data_dir
    thermal_mode: ThermalMode = ThermalMode.EV_OPERATION
    charger_mode: ChargerMode = ChargerMode.THREE_PHASE
    grid_voltage_v: float = DEFAULT_GRID_VOLTAGE_V
    dt_s: float = 1.0
    control_interval_s: float = 10.0
    aging_interval_s: float = 60.0
    initial_soc: float = 0.5
    initial_temp_c: float | None = None  # None: first record's ambient
    dead_time_s: float = DEFAULT_DEAD_TIME_S
    c_pack_j_per_k: float = PACK_HEAT_CAPACITY
    bms: BmsLimits = field(default_factory=BmsLimits)
    ramp_curve: Path | None = None  # None: packaged default
    efficiency_curve: Path | None = None

    def __post_init__(self) -> None:
        # a record built in code is not converted: a wrong type would fail deep in the run
        for name, kind in (("thermal_mode", ThermalMode), ("charger_mode", ChargerMode), ("bms", BmsLimits)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        check_finite(self)
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        for name in ("grid_voltage_v", "c_pack_j_per_k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        check_dead_time(self.dead_time_s)
        if self.control_interval_s < self.dt_s or self.aging_interval_s < self.dt_s:
            raise ValueError("control and aging intervals must be >= dt_s")
        # the engine polls and ages every whole number of steps
        for name in ("control_interval_s", "aging_interval_s"):
            interval = getattr(self, name)
            if whole_steps(interval, self.dt_s)[1]:
                raise ValueError(
                    f"{name} must be a whole multiple of dt_s ({float(self.dt_s)!r}), got {float(interval)!r}"
                )
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial_soc must be in [0, 1]")


def _finite(key: str, value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number, got '{value}'")
    return number


def _parse_value(kind: type, key: str, value: str, base: Path):
    """A config value of field type ``kind``: a path resolves against ``base``, an enum is lower-cased."""
    if kind is Path:
        return (base / value).resolve()
    if issubclass(kind, Enum):
        return kind(value.lower())
    return _finite(key, value)


# config key -> (its record, its field type, X for X | None): every field of
# ScenarioConfig but bms, and every field of BmsLimits
_CONFIG_KEYS = {
    name: (record, next(t for t in get_args(hint) or (hint,) if t is not type(None)))
    for record in (ScenarioConfig, BmsLimits)
    for name, hint in get_type_hints(record).items()
    if name != "bms"
}


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse a ``key = value`` configuration file ('#' starts a comment).

    Relative paths are resolved against the config file's directory. Unknown
    keys are rejected so typos do not silently fall back to defaults, a key
    may be set once, and numbers must be finite; errors name the file (and
    the line and key of a bad line), text that does not decode too.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"missing config file: {path}")
    base = path.parent

    values: dict = {ScenarioConfig: {}, BmsLimits: {}}
    first_line: dict[str, int] = {}
    for idx, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {idx}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown key '{key}'")
            if key in first_line:
                raise ValueError(f"duplicate key '{key}' (first set on line {first_line[key]})")
            first_line[key] = idx
            record, kind = _CONFIG_KEYS[key]
            values[record][key] = _parse_value(kind, key, value, base)
        except ValueError as exc:
            raise ValueError(f"{path} line {idx}: {exc}") from None

    try:
        kwargs = values[ScenarioConfig]
        if values[BmsLimits]:
            kwargs["bms"] = BmsLimits(**values[BmsLimits])
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
