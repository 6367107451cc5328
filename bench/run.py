"""evplant benchmark: reference-normalized end-to-end timing and a traced per-layer split.

Usage (from the repository root)::

    python3 bench/run.py --workload day_mix --seed 1 --seconds 25 --trace 0

One process, no threads, closed loop: the workload's fleet of vehicles
("units") is run pass after pass, each unit starting when the previous one
finished, until ``--seconds`` have passed. A unit is the ``evplant
simulate`` + read-back path: ``run_scenario``, ``emit_report`` and
``read_trajectory``. Each of those three phases sits between two runs of the
fixed reference kernel (``refkernel.py``) and is reported in normalized
seconds, i.e. scaled by the kernel's nominal over its measured duration.
See README.md for the metrics, the layers and why raw time is not gated.

The last line of stdout is the result object; the line before it holds
info fields (raw seconds, kernel timings, versions, trajectory digests).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import refkernel  # noqa: E402
import workloads  # noqa: E402
from layertrace import ENGINE_LAYERS, LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
MIN_PASSES = 3
FLOAT_COLUMNS = (
    "t_s", "soc", "v_cell", "v_pack", "i_dc", "t_pack", "p_ac", "p_dc", "c_norm", "r_norm", "eqfc",
)


def timed_kernel() -> float:
    t0 = perf_counter()
    refkernel.kernel()
    return perf_counter() - t0


def import_evplant():
    """Import evplant from this checkout's ``src`` and nowhere else."""
    if not (SRC / "evplant" / "__init__.py").is_file():
        raise SystemExit(f"error: evplant sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import evplant
    from evplant import engine, scenario

    if Path(evplant.__file__).resolve().parent != SRC / "evplant":
        raise SystemExit(f"error: evplant imported from {evplant.__file__}, not {SRC}")
    return evplant, engine, scenario


# ---------------------------------------------------------------- correctness


def trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for name in FLOAT_COLUMNS:
        h.update(getattr(traj, name).astype("<f8").tobytes())
    h.update("\n".join(traj.flags).encode())
    return h.hexdigest()


def check_unit(traj, read_back, expected_rows: int) -> list[str]:
    """Problems with one unit's output; empty when it passes every check."""
    problems = []
    if traj.n_rows != expected_rows:
        problems.append(f"{traj.n_rows} rows, expected {expected_rows}")
    for name in FLOAT_COLUMNS:
        if not np.all(np.isfinite(getattr(traj, name))):
            problems.append(f"non-finite {name}")
    if traj.n_rows and (traj.soc.min() < 0.0 or traj.soc.max() > 1.0):
        problems.append("soc outside [0, 1]")
    if np.any(np.diff(traj.c_norm) > 0.0):
        problems.append("c_norm increases")
    if np.any(np.diff(traj.r_norm) < 0.0) or np.any(np.diff(traj.eqfc) < 0.0):
        problems.append("r_norm or eqfc decreases")
    same = all(
        getattr(traj, n).astype("<f8").tobytes() == getattr(read_back, n).astype("<f8").tobytes()
        for n in FLOAT_COLUMNS
    )
    if not same or traj.flags != read_back.flags:
        problems.append("read_trajectory differs from the in-memory trajectory")
    return problems


# ---------------------------------------------------------------- units


@dataclass
class Prepared:
    """A unit parsed by the program, plus its timings across passes."""

    unit: workloads.Unit
    config: object
    profile: object
    strategy: object
    expected_rows: int
    out_dir: Path
    digest: str | None = None
    run_s: list[float] = field(default_factory=list)  # normalized, per pass
    emit_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    raw_run_s: list[float] = field(default_factory=list)
    raw_emit_s: list[float] = field(default_factory=list)
    raw_read_s: list[float] = field(default_factory=list)

    def unit_s(self) -> float:
        return median([a + b + c for a, b, c in zip(self.run_s, self.emit_s, self.read_s)])

    def raw_unit_s(self) -> float:
        return median([a + b + c for a, b, c in zip(self.raw_run_s, self.raw_emit_s, self.raw_read_s)])


def prepare(units, engine, scenario, out_root: Path) -> list[Prepared]:
    """Parse each unit's files with the program's own parsers."""
    prepared = []
    for u in units:
        config = scenario.load_config(u.config_path)
        profile = scenario.ScenarioProfile.from_csv(u.profile_path)
        if u.strategy == "price":
            strategy = workloads.make_price_strategy(u.prices)
        else:
            strategy = engine.make_profile_strategy(profile)
        rows = math.floor(profile.duration_s / config.dt_s)
        prepared.append(Prepared(u, config, profile, strategy, rows, out_root / u.name))
    return prepared


class Runner:
    """Runs units between reference-kernel runs and keeps counts and timings.

    Kernel runs form a chain: the run after one unit's read-back is also the
    run before the next unit's simulation.
    """

    def __init__(self, engine, tracer: Tracer | None = None) -> None:
        self.engine = engine
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel_s: list[float] = []
        self.steps = 0
        self.idle_steps = 0
        # layer -> [calls, normalized self seconds], filled when tracing
        self.layer_totals = {layer: [0, 0.0] for layer in LAYERS}
        self._k_prev = self.kernel()

    def kernel(self) -> float:
        k = timed_kernel()
        self.kernel_s.append(k)
        return k

    def _take_trace(self, layers, k_before: float, k_after: float) -> None:
        if self.tracer is None:
            return
        factor = refkernel.normalize(1.0, k_before, k_after)
        taken = self.tracer.take()
        for layer in layers:
            calls, self_s = taken[layer]
            totals = self.layer_totals[layer]
            totals[0] += calls
            totals[1] += self_s * factor

    def run(self, p: Prepared, record: bool = True) -> None:
        """One closed-loop unit: simulate, write the report, read it back, check."""
        engine = self.engine
        self.attempted += 1
        traj_path = p.out_dir / "trajectory.csv"
        for stale in (traj_path, p.out_dir / "summary.txt"):
            stale.unlink(missing_ok=True)  # write new files, never truncate old ones
        strategy = p.strategy if self.tracer is None else self.tracer.wrap("strategy", p.strategy)
        gc.collect()  # every unit starts from the same collector state
        k0 = self._k_prev
        try:
            t0 = perf_counter()
            traj = engine.run_scenario(p.config, p.profile, strategy)
            t1 = perf_counter()
            k1 = self.kernel()
            self._take_trace(ENGINE_LAYERS, k0, k1)
            t2 = perf_counter()
            engine.emit_report(traj, None, p.out_dir)
            t3 = perf_counter()
            k2 = self.kernel()
            self._take_trace(("report",), k1, k2)
            t4 = perf_counter()
            read_back = engine.read_trajectory(traj_path)
            t5 = perf_counter()
            k3 = self.kernel()
            self._take_trace(("report",), k2, k3)
        except Exception as exc:  # a unit that raises counts as failed
            self.failures.append(f"{p.unit.name}: {type(exc).__name__}: {exc}")
            if self.tracer is not None:
                self.tracer.take()
            self._k_prev = self.kernel()
            return
        self._k_prev = k3
        problems = check_unit(traj, read_back, p.expected_rows)
        digest = trajectory_digest(traj)
        if p.digest is None:
            p.digest = digest
        elif digest != p.digest:
            problems.append("trajectory differs from the unit's first run")
        if problems:
            self.failures.append(f"{p.unit.name}: " + "; ".join(problems))
            return
        if not record:
            return
        p.raw_run_s.append(t1 - t0)
        p.raw_emit_s.append(t3 - t2)
        p.raw_read_s.append(t5 - t4)
        p.run_s.append(refkernel.normalize(t1 - t0, k0, k1))
        p.emit_s.append(refkernel.normalize(t3 - t2, k1, k2))
        p.read_s.append(refkernel.normalize(t5 - t4, k2, k3))
        self.steps += traj.n_rows
        self.idle_steps += sum(1 for f in traj.flags if f.startswith("idle"))

    def passes(self, prepared: list[Prepared], seconds: float, min_passes: int) -> int:
        """Whole passes over the fleet until ``seconds`` have gone by."""
        start = perf_counter()
        n = 0
        while n < min_passes or perf_counter() - start < seconds:
            for p in prepared:
                self.run(p)
            n += 1
        return n


# ---------------------------------------------------------------- measurements


def require_timings(prepared: list[Prepared], runner: Runner) -> None:
    """Stop when some unit never ran cleanly: there is no timing to report for it."""
    if any(not p.run_s for p in prepared):
        raise SystemExit("error: a unit never ran cleanly: " + " | ".join(runner.failures[:5]))


def measure_setup(units_dir: Path) -> tuple[list[float], list[float]]:
    """setup_s samples from fresh interpreters: (normalized, raw) seconds."""
    norm, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(units_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["raw_s"])
        norm.append(refkernel.normalize(probe["raw_s"], probe["k_before"], probe["k_after"]))
    return norm, raw


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/self/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def fleet_times(prepared: list[Prepared]) -> dict[str, float]:
    """Seconds per pass over the fleet, summed from per-unit medians."""
    return {
        "wall_s": sum(p.unit_s() for p in prepared),
        "run_s": sum(median(p.run_s) for p in prepared),
        "emit_s": sum(median(p.emit_s) for p in prepared),
        "read_s": sum(median(p.read_s) for p in prepared),
        "raw_wall_s": sum(p.raw_unit_s() for p in prepared),
        "raw_run_s": sum(median(p.raw_run_s) for p in prepared),
        "raw_emit_s": sum(median(p.raw_emit_s) for p in prepared),
    }


def fleet_digest(prepared: list[Prepared]) -> str:
    return hashlib.sha256("\n".join(p.digest or "" for p in prepared).encode()).hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(seconds, units, units_dir, engine, scenario, out_root, info) -> tuple[dict, list]:
    setup_norm, setup_raw = measure_setup(units_dir)
    prepared = prepare(units, engine, scenario, out_root)
    runner = Runner(engine)
    runner.run(prepared[0], record=False)  # warm-up: first-call costs and caches
    info["passes"] = runner.passes(prepared, seconds, MIN_PASSES)
    require_timings(prepared, runner)
    times = fleet_times(prepared)
    steps = sum(p.expected_rows for p in prepared)
    info.update(
        raw_setup_s=median(setup_raw),
        raw_wall_s=times["raw_wall_s"],
        raw_sim_steps_per_s=steps / times["raw_run_s"],
        raw_report_rows_per_s=steps / times["raw_emit_s"],
        setup_samples_s=setup_norm,
        digest=fleet_digest(prepared),
        unit_digests={p.unit.name: p.digest for p in prepared},
    )
    metrics = {
        "setup_s": metric(median(setup_norm), "s"),
        "wall_s": metric(times["wall_s"], "s"),
        "sim_steps_per_s": metric(steps / times["run_s"], "1/s"),
        "report_rows_per_s": metric(steps / times["emit_s"], "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, [runner]


def per_layer(seconds, units, engine, scenario, out_root, info) -> tuple[dict, list]:
    plain = Runner(engine)
    prepared = prepare(units, engine, scenario, out_root)
    plain.run(prepared[0], record=False)
    info["passes"] = plain.passes(prepared, seconds / 2.0, 2)
    require_timings(prepared, plain)
    untraced_wall = fleet_times(prepared)["wall_s"]

    with Tracer() as tracer:
        k0 = timed_kernel()
        prepared = prepare(units, engine, scenario, out_root)  # the traced scenario parse
        k1 = timed_kernel()
        parse_calls, parse_s = tracer.take()["scenario"]
        traced = Runner(engine, tracer)
        n = info["traced_passes"] = traced.passes(prepared, seconds / 2.0, 2)
    require_timings(prepared, traced)
    traced_wall = fleet_times(prepared)["wall_s"]

    # per pass over the fleet; the scenario parse happens once per fleet
    per_pass = {layer: (calls / n, self_s / n) for layer, (calls, self_s) in traced.layer_totals.items()}
    per_pass["scenario"] = (parse_calls, refkernel.normalize(parse_s, k0, k1))
    run_s = sum(per_pass[layer][1] for layer in ENGINE_LAYERS)
    metrics = {}
    for layer in LAYERS:
        calls, self_s = per_pass[layer]
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.us_per_call"] = metric(1e6 * self_s / calls if calls else 0.0, "us")
        metrics[f"{layer}.share"] = metric(self_s / run_s, "ratio")
    counts = tracer.counts
    rows = sum(p.expected_rows for p in prepared)
    metrics.update(
        {
            "params.calls_per_step": metric(counts["lookups"] / traced.steps, "count"),
            "params.repeat_frac": metric(counts["repeat_lookups"] / counts["lookups"], "ratio"),
            "charger.commands": metric(counts["commands"] / n, "count"),
            "bms.trip_frac": metric(counts["gate_trips"] / counts["gate_results"], "ratio"),
            "rainflow.half_cycles": metric(counts["half_cycles"] / n, "count"),
            "engine.idle_step_frac": metric(traced.idle_steps / traced.steps, "ratio"),
            "report.read_us_per_row": metric(1e6 * fleet_times(prepared)["read_s"] / rows, "us"),
            "trace.overhead_frac": metric(traced_wall / untraced_wall - 1.0, "ratio"),
        }
    )
    info.update(
        untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall,
        engine_share_sum=sum(metrics[f"{layer}.share"]["value"] for layer in ENGINE_LAYERS),
        digest=fleet_digest(prepared),
    )
    return metrics, [plain, traced]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    evplant, engine, scenario = import_evplant()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_nominal_s": refkernel.NOMINAL_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "evplant": evplant.__version__,
    }
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        units = workloads.generate(args.workload, args.seed, work / "inputs")
        info["report_fs"] = fs_type(work)
        if args.trace:
            metrics, runners = per_layer(args.seconds, units, engine, scenario, work / "out", info)
        else:
            metrics, runners = end_to_end(
                args.seconds, units, work / "inputs", engine, scenario, work / "out", info
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    kernels = [k for r in runners for k in r.kernel_s]
    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    info.update(
        kernel_min_s=min(kernels),
        kernel_median_s=median(kernels),
        kernel_max_s=max(kernels),
        units=len(units),
        fail_frac=len(failures) / attempted,
        failures=failures[:10],
    )
    print(json.dumps({"info": info}))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
