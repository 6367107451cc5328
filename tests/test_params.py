"""Parameter table loading, interpolation, and validation."""

from __future__ import annotations

import dataclasses
import gc
import math
import re
import shutil
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evplant.aging import load_calendar_coeffs, load_cycle_coeffs
from evplant.bms import BmsLimits
from evplant.charger import RAMP_CURVE_FILE, load_curve
from evplant.params import (
    PARAM_NAMES,
    REUSE_LIMIT,
    V_CELL_MAX,
    V_CELL_MIN,
    CellParameterSet,
    ParamGrid,
    ValidationReport,
    load_parameter_set,
    validate_parameter_set,
)

# hand-checked spot values straight from the shipped tables: (soc, temp) -> value
SPOT_VALUES = {
    "ocv": {(0.50, 25.0): 3.6936, (0.00, 25.0): 3.3287, (1.00, -5.0): 4.1862, (-0.05, 35.0): 3.1035},
    "r_ser": {(0.50, 25.0): 7.186e-4, (0.00, -15.0): 0.0023895, (1.00, 35.0): 0.00048606},
    "r1": {(0.50, 15.0): 0.0020704, (0.00, -15.0): 0.080049, (1.00, 25.0): 0.00025511},
    "r2": {(0.50, 25.0): 0.0016106, (0.00, -15.0): 0.017962, (1.00, 35.0): 0.00070003},
    "c1": {(0.50, 15.0): 6.5529, (0.00, 35.0): 67.3145, (1.00, -15.0): 7.2979},
    "c2": {(0.50, 15.0): 9544.943, (0.00, 25.0): 60.0993, (1.00, 35.0): 18549.9549},
}


class TestLoading:
    def test_impedance_grid_shapes(self, pset):
        for name in ("r_ser", "r1", "r2", "c1", "c2"):
            grid = pset.grid(name)
            assert len(grid.soc_breakpoints) == 21
            assert grid.soc_breakpoints[0] == 0.0
            assert grid.soc_breakpoints[-1] == 1.0
            assert grid.temp_breakpoints == (-15.0, -5.0, 5.0, 15.0, 25.0, 35.0)

    def test_ocv_grid_shape(self, pset):
        assert len(pset.ocv.soc_breakpoints) == 23
        assert pset.ocv.soc_breakpoints[0] == -0.05
        assert pset.ocv.soc_breakpoints[-1] == 1.05
        assert pset.ocv.temp_breakpoints == (-5.0, 5.0, 15.0, 25.0, 35.0)

    def test_ratings(self, pset):
        assert pset.nominal_capacity_ah == 52.0
        assert pset.n_series == 93
        limits = BmsLimits()
        assert (limits.v_cell_min, limits.v_cell_max) == (V_CELL_MIN, V_CELL_MAX) == (3.0, 4.2)
        assert limits.max_current_a == 104.0

    @pytest.mark.parametrize("name", list(SPOT_VALUES))
    def test_spot_values(self, pset, name):
        grid = pset.grid(name)
        for (soc, temp), expected in SPOT_VALUES[name].items():
            assert grid.interpolate(soc, temp) == expected

    def test_missing_file_names_parameter(self, data_dir, tmp_path):
        for name in ("ocv", "r1", "r2", "c1", "c2"):
            shutil.copy(data_dir / f"{name}.csv", tmp_path / f"{name}.csv")
        with pytest.raises(ValueError, match="r_ser"):
            load_parameter_set(tmp_path)

    def test_malformed_row_reports_index(self, data_dir, tmp_path):
        for name in ("ocv", "r_ser", "r1", "r2", "c1", "c2"):
            shutil.copy(data_dir / f"{name}.csv", tmp_path / f"{name}.csv")
        lines = (tmp_path / "r1.csv").read_text().splitlines()
        lines[3] = lines[3] + ",1.0"  # extra cell
        (tmp_path / "r1.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 4"):
            load_parameter_set(tmp_path)

    def test_non_numeric_cell(self, data_dir, tmp_path):
        for name in ("ocv", "r_ser", "r1", "r2", "c1", "c2"):
            shutil.copy(data_dir / f"{name}.csv", tmp_path / f"{name}.csv")
        text = (tmp_path / "c2.csv").read_text().replace("4141.5919", "oops")
        (tmp_path / "c2.csv").write_text(text)
        with pytest.raises(ValueError, match="non-numeric"):
            load_parameter_set(tmp_path)

    def test_non_monotone_breakpoints_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ParamGrid("x", (0.0, 0.5, 0.5), (0.0, 10.0), np.ones((3, 2)))

    @pytest.mark.parametrize(
        "socs, temps, values, message",
        [
            ((0.0, 1.0), (10.0, 0.0), np.ones((2, 2)), "temperature breakpoints not strictly increasing"),
            ((0.0,), (0.0, 10.0), np.ones((1, 2)), "need at least 2x2 breakpoints"),
            ((0.0, 1.0), (0.0, 10.0), np.ones((2, 3)), "value matrix shape (2, 3) does not match"),
            ((0.0, 1.0), (0.0, 10.0), [[1.0, math.nan], [1.0, 1.0]], "non-finite value in table"),
            ((0.0, math.nan, 1.0), (0.0, 10.0), np.ones((3, 2)), "non-finite breakpoint"),
            ((0.0, 1.0), (0.0, math.inf), np.ones((2, 2)), "non-finite breakpoint"),
            ((-math.inf, 1.0), (0.0, 10.0), np.ones((2, 2)), "non-finite breakpoint"),
        ],
    )
    def test_malformed_grid_rejected(self, socs, temps, values, message):
        with pytest.raises(ValueError, match=f"^x: {re.escape(message)}"):
            ParamGrid("x", socs, temps, values)

    def test_the_table_is_read_only(self):
        # a lookup caches the table's cells, so a write to the table would go unseen
        grid = ParamGrid("x", (0.0, 1.0), (0.0, 10.0), np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match="read-only"):
            grid.values[0, 0] = 5.0

    @pytest.mark.parametrize("field", ["values", "soc_breakpoints", "temp_breakpoints"])
    def test_the_fields_cannot_be_rebound(self, field):
        # a lookup caches the table's cells, so a new table or axis would go unseen
        grid = ParamGrid("x", (0.0, 1.0), (0.0, 10.0), np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, field, getattr(grid, field)[::-1])
        assert grid.interpolate(0.0, 0.0) == 1.0

    def test_the_table_is_a_copy_of_the_callers_array(self):
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        grid = ParamGrid("x", (0.0, 1.0), (0.0, 10.0), table)
        table[0, 0] = 5.0
        assert (grid.values[0, 0], grid.interpolate(0.0, 0.0)) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "load, field",
        [
            (load_parameter_set, "r1"),
            (load_parameter_set, "lookup"),
            (load_parameter_set, "nominal_capacity_ah"),
            (load_calendar_coeffs, "alpha_c"),
            (load_calendar_coeffs, "rates"),
            (load_cycle_coeffs, "beta_r"),
            (load_cycle_coeffs, "rates"),
            (lambda directory: load_curve(directory / RAMP_CURVE_FILE), "points"),
        ],
    )
    def test_a_loaded_object_cannot_be_rebound(self, data_dir, load, field):
        # a loader hands one object to every later call on the same bytes,
        # so a rebound field would change every later run
        loaded = load(data_dir)
        before = getattr(loaded, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(loaded, field, before)
        assert load(data_dir) is loaded


def _copy_tables(data_dir, directory):
    directory.mkdir()
    for name in PARAM_NAMES:
        shutil.copy(data_dir / f"{name}.csv", directory / f"{name}.csv")
    return directory


class TestReuse:
    def test_files_of_the_same_bytes_give_the_same_set(self, data_dir, tmp_path, cold_loaders):
        pset = load_parameter_set(data_dir)
        assert load_parameter_set(data_dir) is pset
        assert load_parameter_set(_copy_tables(data_dir, tmp_path / "copy")) is pset
        assert len(cold_loaders) == 1

    def test_a_changed_file_is_read_again(self, data_dir, tmp_path, cold_loaders):
        directory = _copy_tables(data_dir, tmp_path / "copy")
        pset = load_parameter_set(directory)
        text = (directory / "r1.csv").read_text()
        (directory / "r1.csv").write_text(text.replace("0.0020704", "0.0020705"))
        changed = load_parameter_set(directory)
        assert changed is not pset and changed.r1.values.tolist() != pset.r1.values.tolist()
        (directory / "r1.csv").write_text(text)
        assert load_parameter_set(directory) is pset

    def test_a_bad_or_missing_file_raises_on_every_call_and_is_not_kept(self, data_dir, tmp_path, cold_loaders):
        directory = _copy_tables(data_dir, tmp_path / "copy")
        good = (directory / "r1.csv").read_text()
        (directory / "r1.csv").write_text(good.replace("0.0020704", "oops"))
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(str(directory / 'r1.csv'))} row .*: non-numeric"):
                load_parameter_set(directory)
        (directory / "r1.csv").unlink()
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^missing parameter file: {re.escape(str(directory / 'r1.csv'))}$"):
                load_parameter_set(directory)
        assert not cold_loaders
        (directory / "r1.csv").write_text(good)
        assert load_parameter_set(directory) is load_parameter_set(data_dir)

    def test_the_least_recently_used_set_is_dropped(self, data_dir, tmp_path, cold_loaders):
        # REUSE_LIMIT sets of distinct bytes: r1.csv ends in k blank lines
        first = weakref.ref(load_parameter_set(data_dir))
        text = (data_dir / "r1.csv").read_text()
        for k in range(1, REUSE_LIMIT + 1):
            directory = _copy_tables(data_dir, tmp_path / f"copy{k}")
            (directory / "r1.csv").write_text(text + "\n" * k)
            load_parameter_set(directory)
        gc.collect()
        assert first() is None and len(cold_loaders) == REUSE_LIMIT

    def test_threads_sharing_the_loaders_get_each_directory_its_own_set(self, data_dir, tmp_path, cold_loaders):
        # more directories of distinct bytes than are kept, so the threads
        # build, reuse and drop sets at once; r1 at 50 % SOC tells them apart
        text = (data_dir / "r1.csv").read_text()
        directories = {}
        for k in range(REUSE_LIMIT + 4):
            value = f"{0.002 + k * 1e-5:.5f}"
            directory = _copy_tables(data_dir, tmp_path / f"copy{k}")
            (directory / "r1.csv").write_text(text.replace("0.0020704", value))
            directories[directory] = float(value)
        names = list(directories)
        wrong = []

        def load_each(order):
            try:
                for directory in order:
                    if load_parameter_set(directory).r1.interpolate(0.5, 15.0) != directories[directory]:
                        wrong.append(directory)
            except Exception as exc:  # reported by the assertion below, not lost with the thread
                wrong.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=load_each, args=((names[k:] + names[:k]) * 2,), daemon=True) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and len(cold_loaders) == REUSE_LIMIT


class TestInterpolation:
    def test_grid_nodes_are_exact(self, pset):
        for name in ("ocv", "r_ser", "r1", "r2", "c1", "c2"):
            grid = pset.grid(name)
            for i, soc in enumerate(grid.soc_breakpoints):
                for j, temp in enumerate(grid.temp_breakpoints):
                    assert grid.interpolate(soc, temp) == grid.values[i, j]

    def test_bilinear_midpoint(self, pset):
        # halfway between the SOC 50 % and 55 % rows of the 25 degC column
        expected = 0.5 * (0.0020704 + 0.0020316)
        assert pset.r1.interpolate(0.525, 25.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.0510e-3, rel=1e-4)

    def test_clamps_above_temperature_range(self, pset):
        assert pset.ocv.interpolate(0.50, 60.0) == 3.6978  # equals the 35 degC column

    def test_clamps_below_temperature_range(self, pset):
        for soc in (0.0, 0.17, 0.5, 0.83, 1.0):
            assert pset.r_ser.interpolate(soc, -40.0) == pset.r_ser.interpolate(soc, -15.0)

    def test_clamps_outside_soc_range(self, pset):
        assert pset.r1.interpolate(-0.3, 25.0) == pset.r1.interpolate(0.0, 25.0)
        assert pset.r1.interpolate(1.7, 25.0) == pset.r1.interpolate(1.0, 25.0)

    def test_continuous_at_interior_node(self, pset):
        grid = pset.ocv
        s0, t0 = 0.50, 25.0
        center = grid.interpolate(s0, t0)
        eps = 1e-9
        for ds in (-eps, eps):
            for dt in (-eps, eps):
                assert grid.interpolate(s0 + ds, t0 + dt) == pytest.approx(center, abs=1e-6)

    def test_nan_input_rejected(self, pset):
        with pytest.raises(ValueError, match="NaN"):
            pset.ocv.interpolate(float("nan"), 25.0)
        with pytest.raises(ValueError, match="NaN"):
            pset.ocv.interpolate(0.5, float("nan"))


def _axis_points(pset, axis: str, lo: float, hi: float):
    """Floats in [lo, hi] plus every breakpoint of the set's grids on ``axis``."""
    nodes = sorted({b for name in PARAM_NAMES for b in getattr(pset.grid(name), axis)})
    return st.one_of(st.floats(lo, hi), st.sampled_from(nodes))


def _runs(lookup, soc, temp):
    """Tables per run in the union cell that holds (soc, temp)."""
    lookup(soc, temp)
    return [len(run[4]) for run in lookup.memo[3][4]]


def _same_as_interpolate(pset, soc, temp):
    expected = tuple(pset.grid(name).interpolate(soc, temp) for name in PARAM_NAMES)
    assert pset.lookup(soc, temp) == expected


class TestFusedLookup:
    @given(data=st.data())
    def test_equals_each_grid_interpolate(self, pset, data):
        soc = data.draw(_axis_points(pset, "soc_breakpoints", -0.5, 1.5))
        temp = data.draw(_axis_points(pset, "temp_breakpoints", -40.0, 70.0))
        _same_as_interpolate(pset, soc, temp)

    def test_tables_on_different_grids(self, r1_halved_dir):
        pset = load_parameter_set(r1_halved_dir)
        assert len(pset.r1.soc_breakpoints) == 11
        assert pset.r1.soc_breakpoints != pset.r2.soc_breakpoints
        # r1's cells are twice as wide, so it splits the run: ocv, r_ser | r1 | r2, c1, c2
        assert _runs(pset.lookup, 0.55, 25.0) == [2, 1, 3]
        # and below -5 degC ocv is fixed at its edge: ocv | r_ser | r1 | r2, c1, c2
        assert _runs(pset.lookup, 0.55, -10.0) == [1, 1, 1, 3]
        for soc in (-0.1, 0.0, 0.05, 0.33, 0.5, 0.97, 1.0, 1.2):
            for temp in (-30.0, -15.0, 0.0, 22.5, 35.0, 60.0):
                _same_as_interpolate(pset, soc, temp)

    def test_nan_input_rejected(self, pset):
        with pytest.raises(ValueError, match="NaN"):
            pset.lookup(float("nan"), 25.0)

    def test_shipped_tables_share_one_run_per_cell(self, pset, data_dir):
        assert _runs(pset.lookup, 0.5, 25.0) == [6]
        # below the ocv grid's -5 degC edge, ocv is fixed there and the R/C tables are not
        assert _runs(pset.lookup, 0.5, -10.0) == [1, 5]
        assert _runs(load_calendar_coeffs(data_dir).rates, 0.5, 30.0) == [2]
        assert _runs(load_cycle_coeffs(data_dir).rates, 0.5, 0.5) == [2]


class TestValidation:
    def test_shipped_data_has_no_errors(self, pset):
        report = validate_parameter_set(pset)
        assert report.ok
        assert report.errors == []

    def test_shipped_data_notes_c2_outliers(self, pset):
        report = validate_parameter_set(pset)
        assert any("c2" in note for note in report.notes)
        assert any("soc=0.00" in note for note in report.notes)
        assert any("soc=1.00" in note for note in report.notes)

    def test_zero_resistance_node_is_flagged(self, pset):
        values = pset.r2.values.copy()
        values[4, 2] = 0.0
        bad_r2 = ParamGrid("r2", pset.r2.soc_breakpoints, pset.r2.temp_breakpoints, values)
        bad = CellParameterSet(
            ocv=pset.ocv, r_ser=pset.r_ser, r1=pset.r1, r2=bad_r2, c1=pset.c1, c2=pset.c2
        )
        report = validate_parameter_set(bad)
        assert not report.ok
        assert any("non-positive" in e and "r2" in e for e in report.errors)

    def test_ocv_monotonicity_violation_is_flagged(self, pset):
        values = pset.ocv.values.copy()
        values[10, 2] = values[9, 2] - 0.05  # 50 mV dip
        bad_ocv = ParamGrid("ocv", pset.ocv.soc_breakpoints, pset.ocv.temp_breakpoints, values)
        bad = CellParameterSet(
            ocv=bad_ocv, r_ser=pset.r_ser, r1=pset.r1, r2=pset.r2, c1=pset.c1, c2=pset.c2
        )
        report = validate_parameter_set(bad)
        assert any("decreases" in e for e in report.errors)

    def test_ocv_outside_the_cell_window_is_flagged(self, pset):
        values = pset.ocv.values.copy()
        values[-1, 0] = 4.3
        bad_ocv = ParamGrid("ocv", pset.ocv.soc_breakpoints, pset.ocv.temp_breakpoints, values)
        bad = CellParameterSet(
            ocv=bad_ocv, r_ser=pset.r_ser, r1=pset.r1, r2=pset.r2, c1=pset.c1, c2=pset.c2
        )
        report = validate_parameter_set(bad)
        assert report.errors == ["ocv: value 4.3 V outside [3.0, 4.2] at (soc=1.05, temp=-5C)"]

    def test_time_constant_ordering_holds_everywhere(self, pset):
        for soc in pset.r1.soc_breakpoints:
            for temp in pset.r1.temp_breakpoints:
                tau1 = pset.r1.interpolate(soc, temp) * pset.c1.interpolate(soc, temp)
                tau2 = pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)
                assert tau1 < tau2, (soc, temp)

    def test_time_constant_decades_in_temperate_columns(self, pset):
        """tau1 ~ 1e-2..1e-1 s and tau2 ~ 1e1..1e2 s over the bulk of the grid
        (the temperate columns, SOC 15 %..95 %); the boundary SOC rows at the
        25 degC column are known outliers (see the c2 validation notes), and
        the cold/hot columns shift the decades as the resistances scale."""
        for soc in pset.r1.soc_breakpoints:
            if not 0.15 <= soc <= 0.95:
                continue
            for temp in (5.0, 15.0, 25.0):
                tau1 = pset.r1.interpolate(soc, temp) * pset.c1.interpolate(soc, temp)
                tau2 = pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)
                assert 1e-2 <= tau1 <= 1e-1, (soc, temp, tau1)
                assert 1e1 <= tau2 <= 1e2, (soc, temp, tau2)

    def test_example_node_time_constants(self, pset):
        tau1 = pset.r1.interpolate(0.5, 25.0) * pset.c1.interpolate(0.5, 25.0)
        tau2 = pset.r2.interpolate(0.5, 25.0) * pset.c2.interpolate(0.5, 25.0)
        assert tau1 == pytest.approx(0.01357, abs=1e-5)
        assert tau2 == pytest.approx(15.37, abs=5e-3)


# The cell-by-cell scan that validate_parameter_set replaced, kept as the oracle.


def _scan_outliers(grid: ParamGrid, report: ValidationReport) -> None:
    v = grid.values
    n_s, n_t = v.shape
    for i in range(n_s):
        for j in range(n_t):
            neigh = []
            if i > 0:
                neigh.append(v[i - 1, j])
            if i < n_s - 1:
                neigh.append(v[i + 1, j])
            if j > 0:
                neigh.append(v[i, j - 1])
            if j < n_t - 1:
                neigh.append(v[i, j + 1])
            median = float(np.median(neigh))
            if median > 0 and v[i, j] / median < 0.1:
                report.notes.append(
                    f"{grid.name}: value {v[i, j]:g} at (soc={grid.soc_breakpoints[i]:.2f}, "
                    f"temp={grid.temp_breakpoints[j]:g}C) is far below its neighbors (median {median:g})"
                )


def _validate_cell_by_cell(pset: CellParameterSet) -> ValidationReport:
    report = ValidationReport()

    for name in ("r_ser", "r1", "r2", "c1", "c2"):
        grid = pset.grid(name)
        for i, soc in enumerate(grid.soc_breakpoints):
            for j, temp in enumerate(grid.temp_breakpoints):
                if grid.values[i, j] <= 0:
                    report.errors.append(
                        f"{name}: non-positive value {grid.values[i, j]:g} at "
                        f"(soc={soc:.2f}, temp={temp:g}C)"
                    )

    for soc in pset.r1.soc_breakpoints:
        for temp in pset.r1.temp_breakpoints:
            tau1 = pset.r1.interpolate(soc, temp) * pset.c1.interpolate(soc, temp)
            tau2 = pset.r2.interpolate(soc, temp) * pset.c2.interpolate(soc, temp)
            if tau1 >= tau2:
                report.errors.append(
                    f"time-constant ordering violated at (soc={soc:.2f}, temp={temp:g}C): "
                    f"tau1={tau1:g} s >= tau2={tau2:g} s"
                )

    ocv = pset.ocv
    for j, temp in enumerate(ocv.temp_breakpoints):
        col = ocv.values[:, j]
        for i in range(1, len(col)):
            if col[i] < col[i - 1] - 1e-3:
                report.errors.append(
                    f"ocv: column {temp:g}C decreases by more than 1 mV between "
                    f"soc={ocv.soc_breakpoints[i - 1]:.2f} and {ocv.soc_breakpoints[i]:.2f}"
                )
    out_of_window = (ocv.values < V_CELL_MIN) | (ocv.values > V_CELL_MAX)
    if np.any(out_of_window):
        idx = np.argwhere(out_of_window)
        for i, j in idx:
            report.errors.append(
                f"ocv: value {ocv.values[i, j]:g} V outside [{V_CELL_MIN}, {V_CELL_MAX}] at "
                f"(soc={ocv.soc_breakpoints[i]:.2f}, temp={ocv.temp_breakpoints[j]:g}C)"
            )

    for name in ("r_ser", "r1", "r2", "c1", "c2"):
        _scan_outliers(pset.grid(name), report)

    return report


PERTURBATIONS = ("zero", "sign_flip", "dip_100x", "ocv_dip", "ocv_outside")


def _perturbed(pset: CellParameterSet, seed: int) -> CellParameterSet:
    """The set with one to four seeded perturbations, any cell edge or interior alike."""
    rng = np.random.default_rng(seed)
    values = {name: pset.grid(name).values.copy() for name in PARAM_NAMES}
    for kind in rng.choice(PERTURBATIONS, size=rng.integers(1, 5)):
        name = "ocv" if kind.startswith("ocv") else rng.choice(PARAM_NAMES[1:])
        v = values[name]
        i, j = rng.integers(v.shape[0]), rng.integers(v.shape[1])
        if kind == "zero":
            v[i, j] = 0.0
        elif kind == "sign_flip":
            v[i, j] = -v[i, j]
        elif kind == "dip_100x":
            v[i, j] /= 100.0
        elif kind == "ocv_dip":
            v[i, j] -= rng.uniform(0.0005, 0.05)
        else:
            v[i, j] = rng.choice([rng.uniform(2.5, 3.0), rng.uniform(4.2, 4.5)])
    grids = {
        name: ParamGrid(name, pset.grid(name).soc_breakpoints, pset.grid(name).temp_breakpoints, v)
        for name, v in values.items()
    }
    return CellParameterSet(**grids)


def test_validation_matches_the_cell_by_cell_scan(pset):
    findings = {"errors": 0, "notes": 0}
    for seed in range(-1, 200):
        bad = pset if seed < 0 else _perturbed(pset, seed)
        report, oracle = validate_parameter_set(bad), _validate_cell_by_cell(bad)
        assert (report.errors, report.notes) == (oracle.errors, oracle.notes), seed
        findings["errors"] += len(oracle.errors)
        findings["notes"] += len(oracle.notes)
    # every rule fired, so the comparison covered each of them
    assert findings["errors"] > 200 and findings["notes"] > 200, findings
