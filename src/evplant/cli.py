"""Command-line interface: simulate, validate-params, metrics, batch."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .engine import (
    Strategy,
    compute_metrics,
    emit_report,
    make_constant_strategy,
    read_trajectory,
    run_scenario,
    strategy_max_power,
    strategy_off,
)
from .params import PARAM_NAMES, load_parameter_set, read_csv_rows, validate_parameter_set
from .scenario import ScenarioProfile, load_config


def resolve_strategy(spec: str | None) -> Strategy | None:
    """Map a --strategy argument to a callable.

    Built-ins: ``profile`` (default; request the profile's value_w while
    plugged in), ``max_power``, ``off``, ``constant:<watts>``. Anything with a
    colon and a dotted prefix is loaded as ``module.path:callable``.
    """
    if spec is None or spec == "profile":
        return None
    if spec == "max_power":
        return strategy_max_power
    if spec == "off":
        return strategy_off
    if spec.startswith("constant:"):
        try:
            return make_constant_strategy(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"cannot load strategy '{spec}': {exc}") from None
    if ":" in spec:
        module_name, attr = spec.split(":", 1)
        try:
            strategy = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError, ValueError) as exc:
            raise ValueError(f"cannot load strategy '{spec}': {exc}") from None
        except Exception as exc:  # importing runs the module's own code
            raise ValueError(f"cannot load strategy '{spec}': {type(exc).__name__}: {exc}") from None
        if not callable(strategy):
            raise ValueError(f"strategy '{spec}' is not callable")
        return strategy
    raise ValueError(f"unknown strategy '{spec}'")


def _simulate(
    config_path: str,
    profile_path: str,
    out_dir: str,
    strategy_spec: str | None,
    dt_s: float | None = None,
) -> list[Path]:
    """Load one scenario, run it and write its report; ``dt_s`` overrides the config's."""
    config = load_config(config_path)
    if dt_s is not None:
        config = dataclasses.replace(config, dt_s=dt_s)
    profile = ScenarioProfile.from_csv(profile_path)
    trajectory = run_scenario(config, profile, resolve_strategy(strategy_spec))
    return emit_report(trajectory, None, out_dir)


def _cmd_simulate(args: argparse.Namespace) -> int:
    for p in _simulate(args.config, args.profile, args.out, args.strategy, args.dt):
        print(p)
    return 0


def _cmd_validate_params(args: argparse.Namespace) -> int:
    pset = load_parameter_set(args.data)
    for name in PARAM_NAMES:
        grid = pset.grid(name)
        print(
            f"{name}: {len(grid.soc_breakpoints)} SOC rows x "
            f"{len(grid.temp_breakpoints)} temperature columns"
        )
    report = validate_parameter_set(pset)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    sim = read_trajectory(args.sim)
    ref = read_trajectory(args.ref)
    metrics = compute_metrics(sim, ref)
    for key, value in dataclasses.asdict(metrics).items():
        print(f"{key} = {value!r}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    base = Path(args.manifest).parent
    entries = []
    # each output directory belongs to one row; another row's run would overwrite it
    row_of_out: dict[Path, int] = {}
    for n, cells in read_csv_rows(args.manifest, "manifest", "config,profile,out,strategy"):
        config, profile, out, strategy = (c.strip() for c in cells)
        first = row_of_out.setdefault((base / out).resolve(), n)
        if first != n:
            raise ValueError(f"{args.manifest} row {n}: out '{out}' is the output of row {first} too")
        entries.append((str(base / config), str(base / profile), str(base / out), strategy or None))

    # a process pool forks all its workers at the first submit, so never
    # ask for more than there are entries
    jobs = min(args.jobs, len(entries))
    any_failed = False
    with contextlib.ExitStack() as stack:
        if jobs <= 1:
            errors = map(_run_entry, entries)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            errors = pool.map(_run_entry, entries)
        for (_, _, out_dir, _), error in zip(entries, errors):
            print(f"done {out_dir}" if error is None else f"failed {out_dir}: {error}")
            any_failed = any_failed or error is not None
    return 2 if any_failed else 0


def _run_entry(entry: tuple[str, str, str, str | None]) -> str | None:
    """Run one batch entry; the reason it failed, or None when it ran."""
    try:
        _simulate(*entry)
    except (ValueError, OSError, RuntimeError) as exc:
        return str(exc)
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evplant",
        description="Deterministic EV traction-battery and charger simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write its report")
    p.add_argument("--config", required=True, help="scenario configuration file")
    p.add_argument("--profile", required=True, help="usage profile CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--strategy", default=None, help="name or module:callable")
    p.add_argument("--dt", type=float, default=None, help="override timestep in s")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate-params", help="check a parameter data directory")
    p.add_argument("--data", required=True, help="directory with the parameter CSVs")
    p.set_defaults(func=_cmd_validate_params)

    p = sub.add_parser("metrics", help="compare a trajectory against a reference")
    p.add_argument("--sim", required=True, help="simulated trajectory CSV")
    p.add_argument("--ref", required=True, help="reference trajectory CSV")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("batch", help="run every scenario in a manifest")
    p.add_argument("--manifest", required=True, help="CSV manifest of scenarios")
    p.add_argument("--jobs", type=int, default=1, help="concurrent scenario runs")
    p.set_defaults(func=_cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
