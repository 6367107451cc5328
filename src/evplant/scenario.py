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
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .bms import BmsLimits
from .charger import DEFAULT_DEAD_TIME_S, DEFAULT_GRID_VOLTAGE_V, ChargerMode
from .params import check_finite, default_data_dir, read_csv_rows
from .thermal import PACK_HEAT_CAPACITY, ThermalMode

MOTOR_POWER_LIMIT_W = 55_000.0  # drive power beyond the motor rating is rejected

PROFILE_HEADER = "t_s,kind,value_w,ambient_c,charger_mode"


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
        check_finite(self)
        if not isinstance(self.kind, SegmentKind):
            raise ValueError(f"kind must be a SegmentKind, got {self.kind!r}")
        if self.charger_mode is not None and not isinstance(self.charger_mode, ChargerMode):
            raise ValueError(f"charger_mode must be a ChargerMode or None, got {self.charger_mode!r}")
        if self.kind is SegmentKind.DRIVE and abs(self.value_w) > MOTOR_POWER_LIMIT_W:
            raise ValueError(
                f"drive power {self.value_w} W at t={self.t_s} exceeds the "
                f"{MOTOR_POWER_LIMIT_W:.0f} W motor rating"
            )


@dataclass
class ScenarioProfile:
    records: list[ProfileRecord]

    def __post_init__(self) -> None:
        ts = [r.t_s for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("profile timestamps must be strictly increasing")

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
            try:
                records.append(
                    ProfileRecord(
                        float(t_s),
                        SegmentKind(kind.lower()),
                        float(value_w) if value_w else 0.0,
                        float(ambient_c),
                        ChargerMode(mode.lower()) if mode else None,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path} row {n}: {exc}") from None
        return cls(records)


@dataclass
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
        check_finite(self)
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if self.control_interval_s < self.dt_s or self.aging_interval_s < self.dt_s:
            raise ValueError("control and aging intervals must be >= dt_s")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial_soc must be in [0, 1]")


def _finite(key: str, value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number, got '{value}'")
    return number


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse a ``key = value`` configuration file ('#' starts a comment).

    Relative paths are resolved against the config file's directory. Unknown
    keys are rejected so typos do not silently fall back to defaults, and
    numbers must be finite; errors name the file, the line and the key.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"missing config file: {path}")
    base = path.parent

    kwargs: dict = {}
    bms_over: dict = {}
    for idx, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {idx}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key == "data_dir":
                kwargs["data_dir"] = (base / value).resolve()
            elif key == "aging_data_dir":
                kwargs["aging_data_dir"] = (base / value).resolve()
            elif key in ("ramp_curve", "efficiency_curve"):
                kwargs[key] = (base / value).resolve()
            elif key == "thermal_mode":
                kwargs["thermal_mode"] = ThermalMode(value.lower())
            elif key == "charger_mode":
                kwargs["charger_mode"] = ChargerMode(value.lower())
            elif key in (
                "initial_temp_c",
                "grid_voltage_v",
                "dt_s",
                "control_interval_s",
                "aging_interval_s",
                "initial_soc",
                "dead_time_s",
                "c_pack_j_per_k",
            ):
                kwargs[key] = _finite(key, value)
            elif key in {f.name for f in fields(BmsLimits)}:
                bms_over[key] = _finite(key, value)
            else:
                raise ValueError(f"unknown key '{key}'")
        except ValueError as exc:
            raise ValueError(f"{path} line {idx}: {exc}") from None

    if bms_over:
        kwargs["bms"] = BmsLimits(**bms_over)
    return ScenarioConfig(**kwargs)
