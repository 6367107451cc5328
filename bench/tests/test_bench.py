"""Tests of the benchmark itself: tracing wrappers, seeded inputs, normalization.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import ENGINE_LAYERS, ENGINE_NAMESPACE, Tracer  # noqa: E402

from evplant import engine, params, rainflow, scenario  # noqa: E402


def _wrapped_targets():
    targets = [(engine, name) for names in ENGINE_NAMESPACE.values() for name in names]
    return targets + [
        (params.ParamGrid, "interpolate"),
        (rainflow.RainflowCounter, "feed"),
        (scenario, "load_config"),
        (scenario.ScenarioProfile, "from_csv"),
    ]


def test_tracer_restores_every_original():
    originals = {(owner, name): owner.__dict__[name] for owner, name in _wrapped_targets()}
    with Tracer():
        for (owner, name), original in originals.items():
            assert owner.__dict__[name] is not original, name
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, name


def test_tracer_restores_originals_after_an_error():
    originals = {(owner, name): owner.__dict__[name] for owner, name in _wrapped_targets()}
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, name


def _prepared(workload: str, seed: int, tmp_path: Path):
    units = workloads.generate(workload, seed, tmp_path / "inputs")
    return run.prepare(units[:1], engine, scenario, tmp_path / "out")


def test_traced_unit_shares_sum_to_one_and_match_untraced_output(tmp_path):
    p = _prepared("day_mix", 3, tmp_path)[0]
    # the traced run must reproduce the untraced run's digest, or it counts as failed
    plain = run.Runner(engine)
    plain.run(p)
    with Tracer() as tracer:
        traced = run.Runner(engine, tracer)
        traced.run(p)
    assert not plain.failures and not traced.failures
    totals = traced.layer_totals
    assert all(totals[layer][0] > 0 for layer in ENGINE_LAYERS)
    engine_time = sum(totals[layer][1] for layer in ENGINE_LAYERS)
    assert engine_time == pytest.approx(p.run_s[-1], rel=0.02)
    # params calls are the lookups plus five loader calls (load_curve runs twice)
    assert tracer.counts["lookups"] == totals["params"][0] - 5


def test_same_seed_gives_same_inputs_and_digests(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 11, tmp_path / "a" / workload)
        b = workloads.generate(workload, 11, tmp_path / "b" / workload)
        c = workloads.generate(workload, 12, tmp_path / "c" / workload)
        assert [u.prices for u in a] == [u.prices for u in b]
        for ua, ub in zip(a, b):
            assert ua.config_path.read_bytes() == ub.config_path.read_bytes()
            assert ua.profile_path.read_bytes() == ub.profile_path.read_bytes()
        assert [u.profile_path.read_bytes() for u in a] != [u.profile_path.read_bytes() for u in c]

    digests = []
    for copy in ("a", "b"):
        p = _prepared("v2g_fleet", 11, tmp_path / copy)[0]
        runner = run.Runner(engine)
        runner.run(p)
        runner.run(p)  # a second run of the unit must reproduce the first
        assert not runner.failures
        digests.append(p.digest)
    assert digests[0] == digests[1]


def test_checks_catch_a_changed_read_back(tmp_path):
    p = _prepared("aging_week", 5, tmp_path)[0]
    traj = engine.run_scenario(p.config, p.profile, p.strategy)
    assert run.check_unit(traj, traj, p.expected_rows) == []
    bad = engine.Trajectory(*(getattr(traj, n).copy() for n in run.FLOAT_COLUMNS), flags=traj.flags)
    bad.soc[10] = math.nextafter(bad.soc[10], 2.0)
    assert run.check_unit(traj, bad, p.expected_rows) == [
        "read_trajectory differs from the in-memory trajectory"
    ]
    bad.c_norm[20] = bad.c_norm[19] + 1e-9
    assert "c_norm increases" in run.check_unit(bad, bad, p.expected_rows)
    assert run.check_unit(traj, traj, p.expected_rows + 1)[0].startswith(f"{traj.n_rows} rows")


def test_normalization_arithmetic():
    k = refkernel.NOMINAL_S
    assert refkernel.normalize(2.0, k, k) == pytest.approx(2.0)
    # a host twice as slow for the kernel halves the normalized time
    assert refkernel.normalize(2.0, 2 * k, 2 * k) == pytest.approx(1.0)
    # geometric mean of the two brackets: sqrt(0.5k * 2k) = k
    assert refkernel.normalize(3.0, 0.5 * k, 2 * k) == pytest.approx(3.0)
    assert refkernel.normalize(1.0, 0.01, 0.04) == pytest.approx(k / 0.02)
    with pytest.raises(ValueError):
        refkernel.normalize(1.0, 0.0, k)


def test_reference_kernel_imports_nothing():
    tree = ast.parse((BENCH_DIR / "refkernel.py").read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported == ["__future__"]
    probe = (
        "import sys; import refkernel; refkernel.kernel(); "
        "assert not any(m.startswith(('evplant', 'numpy')) for m in sys.modules), sorted(sys.modules)"
    )
    subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR, check=True, timeout=60)
