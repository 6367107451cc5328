from __future__ import annotations

import gc
import shutil
import tracemalloc
from pathlib import Path

import pytest

from evplant import params
from evplant.aging import load_calendar_coeffs, load_cycle_coeffs
from evplant.params import PARAM_NAMES, default_data_dir, load_parameter_set

TESTS_DIR = Path(__file__).parent


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
