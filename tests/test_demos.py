"""Every demo script and the README's library quickstart run to completion in a
fresh interpreter, and every public name of the package resolves."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evplant
from evplant.bms import GateReason
from evplant.scenario import SegmentKind

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_fresh([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_fresh(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_every_public_name_resolves():
    assert [name for name in evplant.__all__ if not hasattr(evplant, name)] == []


def test_every_trajectory_flag_is_documented():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    kinds = {f"`{kind.value}`" for kind in SegmentKind}
    extras = {f"`|{reason.value}`" for reason in GateReason if reason is not GateReason.OK}
    extras |= {"`|soc_clip`", "`|temp_envelope`"}
    assert [kind for kind in kinds if kind not in section] == []
    # the documented extras are exactly those the engine can emit
    assert set(re.findall(r"`\|\w+`", section)) == extras
