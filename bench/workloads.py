"""Seeded benchmark inputs: one config file and one profile CSV per vehicle.

Every workload is a fleet of independent vehicles ("units"). The files are
written from the seed alone, so one seed always gives byte-identical inputs,
and the program under test sees only these files (parsed with its own
``load_config`` and ``ScenarioProfile.from_csv``). Step counts and segment
durations are fixed per workload; the seed moves only values (powers,
ambient temperature, initial SOC, which vehicles charge on one phase,
prices), and those are stratified across the fleet, so the amount of work
per pass stays nearly the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

PROFILE_HEADER = "t_s,kind,value_w,ambient_c,charger_mode"

# Achievable three-phase set-points are 3 x 230 V x (6..16) A.
THREE_PHASE_SETPOINTS_W = tuple(3 * 230.0 * a for a in range(6, 17))
ONE_PHASE_SETPOINTS_W = (1800.0, 2900.0)

PRICE_SLOT_S = 900.0  # 15-min price series of the V2G strategy


@dataclass(frozen=True)
class Unit:
    """One vehicle: its input files and the strategy it runs under."""

    name: str
    config_path: Path
    profile_path: Path
    strategy: str  # "profile" or "price"
    prices: tuple[float, ...] = ()  # per PRICE_SLOT_S, for the price strategy


def _write_profile(path: Path, records: list[tuple]) -> None:
    lines = [PROFILE_HEADER]
    for t_s, kind, value_w, ambient_c, mode in records:
        lines.append(f"{t_s!r},{kind},{value_w!r},{ambient_c!r},{mode}")
    path.write_text("\n".join(lines) + "\n")


def _spread(rng: random.Random, n: int, lo: float, hi: float, digits: int) -> list[float]:
    """One value from each of ``n`` equal slices of [lo, hi], in seeded order.

    Stratifying the fleet keeps the mix of cheap and costly vehicles, and so
    the work per pass, nearly the same from seed to seed.
    """
    width = (hi - lo) / n
    values = [round(lo + (k + rng.random()) * width, digits) for k in range(n)]
    rng.shuffle(values)
    return values


def _one_phase(rng: random.Random, n: int, count: int) -> list[bool]:
    chosen = set(rng.sample(range(n), count))
    return [i in chosen for i in range(n)]


def _config(path: Path, dt_s: float, control_s: float, soc: float, one_phase: bool) -> None:
    values = {
        "dt_s": dt_s,
        "control_interval_s": control_s,
        "aging_interval_s": 60.0,
        "initial_soc": soc,
        "charger_mode": "one_phase" if one_phase else "three_phase",
    }
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


def _day_mix(rng: random.Random, n: int, paths: list[tuple[Path, Path]]) -> list[tuple]:
    # A compressed ROADMAP day: 6 min drive, 42 min plugged, 96 min idle (8,640 s).
    ambient = _spread(rng, n, -5.0, 30.0, 2)
    drive_w = _spread(rng, n, -25_000.0, -5_000.0, 1)
    soc = _spread(rng, n, 0.3, 0.85, 4)
    one_phase = _one_phase(rng, n, n // 4)
    strategies = []
    for i, (config, profile) in enumerate(paths):
        if one_phase[i]:
            charge_w = rng.choice(ONE_PHASE_SETPOINTS_W)
        else:
            charge_w = rng.choice(THREE_PHASE_SETPOINTS_W)
        _config(config, 1.0, 10.0, soc[i], one_phase[i])
        _write_profile(
            profile,
            [
                (0.0, "drive", drive_w[i], ambient[i], ""),
                (360.0, "plugged", charge_w, ambient[i], ""),
                (2880.0, "idle", 0.0, ambient[i], ""),
                (8640.0, "idle", 0.0, ambient[i], ""),
            ],
        )
        strategies.append(("profile", ()))
    return strategies


def _v2g_fleet(rng: random.Random, n: int, paths: list[tuple[Path, Path]]) -> list[tuple]:
    # Plugged for all 8,640 steps; the price strategy picks the set-point.
    ambient = _spread(rng, n, 0.0, 30.0, 2)
    soc = _spread(rng, n, 0.15, 0.5, 4)
    one_phase = _one_phase(rng, n, n // 3)
    n_slots = int(8640.0 // PRICE_SLOT_S) + 1
    strategies = []
    for i, (config, profile) in enumerate(paths):
        mode = "one_phase" if one_phase[i] else "three_phase"
        _config(config, 1.0, 10.0, soc[i], one_phase[i])
        _write_profile(
            profile,
            [(0.0, "plugged", 0.0, ambient[i], mode), (8640.0, "idle", 0.0, ambient[i], "")],
        )
        strategies.append(("price", tuple(_spread(rng, n_slots, 0.05, 0.45, 4))))
    return strategies


def _aging_week(rng: random.Random, n: int, paths: list[tuple[Path, Path]]) -> list[tuple]:
    # Seven days at dt = 60 s: two drives and one charge per day (10,080 steps).
    soc = _spread(rng, n, 0.5, 0.9, 4)
    one_phase = _one_phase(rng, n, n // 3)
    strategies = []
    for i, (config, profile) in enumerate(paths):
        charge_w = 2900.0 if one_phase[i] else rng.choice(THREE_PHASE_SETPOINTS_W)
        _config(config, 60.0, 60.0, soc[i], one_phase[i])
        ambient = _spread(rng, 7, -5.0, 30.0, 2)
        legs = _spread(rng, 14, -12_000.0, -6_000.0, 1)
        records = []
        for day in range(7):
            t0 = day * 86400.0
            records += [
                (t0, "idle", 0.0, ambient[day], ""),
                (t0 + 7 * 3600.0, "drive", legs[2 * day], ambient[day], ""),
                (t0 + 7 * 3600.0 + 1500.0, "idle", 0.0, ambient[day], ""),
                (t0 + 17 * 3600.0, "drive", legs[2 * day + 1], ambient[day], ""),
                (t0 + 17 * 3600.0 + 1500.0, "idle", 0.0, ambient[day], ""),
                (t0 + 18 * 3600.0, "plugged", charge_w, ambient[day], ""),
            ]
        records.append((7 * 86400.0, "idle", 0.0, ambient[-1], ""))
        _write_profile(profile, records)
        strategies.append(("profile", ()))
    return strategies


# name -> (fleet generator, vehicles in the fleet)
WORKLOADS = {
    "day_mix": (_day_mix, 6),
    "v2g_fleet": (_v2g_fleet, 6),
    "aging_week": (_aging_week, 5),
}


def generate(workload: str, seed: int, directory: Path) -> list[Unit]:
    """Write the fleet of ``workload`` for ``seed`` into ``directory``."""
    make, n_units = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"{workload}-{i}" for i in range(n_units)]
    paths = [(directory / f"{name}.cfg", directory / f"{name}.csv") for name in names]
    strategies = make(rng, n_units, paths)
    return [
        Unit(name, config, profile, strategy, prices)
        for name, (config, profile), (strategy, prices) in zip(names, paths, strategies)
    ]


def make_price_strategy(prices: tuple[float, ...]):
    """Follow a 15-min price series: the cheaper the slot, the higher the set-point.

    The slot's price, scaled between the series' lowest and highest, picks an
    index into the charger's achievable set-points, so the most expensive
    slots request 0 W.
    """
    lo, hi = min(prices), max(prices)
    span = hi - lo if hi > lo else 1.0

    def strategy(obs) -> float:
        price = prices[min(int(obs.t_s // PRICE_SLOT_S), len(prices) - 1)]
        setpoints = obs.setpoints_w
        cheapness = (hi - price) / span
        return setpoints[int(round(cheapness * (len(setpoints) - 1)))]

    return strategy
