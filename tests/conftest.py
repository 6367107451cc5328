from __future__ import annotations

import gc
import shutil
import tracemalloc
from pathlib import Path

import pytest

from evplant import params
from evplant.aging import load_calendar_coeffs, load_cycle_coeffs
from evplant.params import PARAM_NAMES, default_data_dir, load_parameter_set
from evplant.scenario import PROFILE_HEADER

TESTS_DIR = Path(__file__).parent

# the valid inputs the command-line and file-format tests run or break: a
# profile of a short plugged run, a config that runs it on the shipped
# tables, and the header of a batch manifest
PROFILE = f"{PROFILE_HEADER}\n0,plugged,11040,20,\n600,idle,0,20,\n"
CONFIG = "initial_soc = 0.5\ninitial_temp_c = 20\n"
MANIFEST_HEADER = "config,profile,out,strategy"


def write_scenario(directory: Path, config: str = CONFIG) -> tuple[Path, Path]:
    """``config`` and :data:`PROFILE` written into ``directory`` as scenario.cfg and profile.csv: their paths."""
    paths = directory / "scenario.cfg", directory / "profile.csv"
    paths[0].write_text(config)
    paths[1].write_text(PROFILE)
    return paths


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return default_data_dir()


@pytest.fixture(scope="session")
def pset(data_dir):
    return load_parameter_set(data_dir)


@pytest.fixture(scope="session")
def cal_coeffs(data_dir):
    return load_calendar_coeffs(data_dir)


@pytest.fixture(scope="session")
def cyc_coeffs(data_dir):
    return load_cycle_coeffs(data_dir)


@pytest.fixture
def cold_loaders(monkeypatch):
    """Loaders that reuse nothing an earlier test built: every table a test loads is built in it.

    Returns the emptied store of built objects, which a test may empty again.
    """
    built: dict = {}
    monkeypatch.setattr(params, "_built", built)
    return built


@pytest.fixture(scope="session")
def r1_halved_dir(data_dir, tmp_path_factory) -> Path:
    """The shipped electrical tables, but r1 keeps every other SOC row, so it no longer shares the R/C grid."""
    directory = tmp_path_factory.mktemp("r1_halved")
    for name in PARAM_NAMES:
        shutil.copy(data_dir / f"{name}.csv", directory / f"{name}.csv")
    lines = (directory / "r1.csv").read_text().splitlines()
    (directory / "r1.csv").write_text("\n".join(lines[:1] + lines[1::2]) + "\n")
    return directory


@pytest.fixture(scope="session")
def traced_peak():
    """``traced_peak(call)``: what ``call()`` returns, the peak of traced memory above its start, and the traced memory it kept."""

    def measure(call) -> tuple[object, int, int]:
        gc.collect()
        tracemalloc.start()
        try:
            result = call()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak, kept

    return measure
