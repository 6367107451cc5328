"""Engine coupling: determinism, energy bookkeeping, metrics, reports."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from evplant.bms import BmsLimits
from evplant.charger import ChargerMode
from evplant.engine import (
    StrategyObservation,
    Trajectory,
    compute_metrics,
    emit_report,
    make_constant_strategy,
    read_trajectory,
    run_scenario,
    strategy_max_power,
    strategy_off,
)
from evplant.params import PARAM_NAMES, CellParameterSet, ParamGrid
from evplant.scenario import (
    ProfileRecord,
    ScenarioConfig,
    ScenarioProfile,
    SegmentKind,
)
from evplant.thermal import ThermalMode

REGRESSION_DIR = Path(__file__).parent / "data" / "regression"


def charge_profile(duration=1800.0, power=11040.0, ambient=20.0):
    return ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.PLUGGED, power, ambient, None),
            ProfileRecord(duration, SegmentKind.IDLE, 0.0, ambient, None),
        ]
    )


def mixed_profile():
    return ScenarioProfile(
        [
            ProfileRecord(0.0, SegmentKind.DRIVE, -15000.0, 20.0, None),
            ProfileRecord(600.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ProfileRecord(900.0, SegmentKind.PLUGGED, 11040.0, 20.0, None),
            ProfileRecord(2400.0, SegmentKind.IDLE, 0.0, 20.0, None),
        ]
    )


class TestRunScenario:
    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=22.0)
        profile = mixed_profile()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_scenario(config, profile), None, out_a)
        emit_report(run_scenario(config, profile), None, out_b)
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()

    def test_zero_length_profile_gives_empty_trajectory(self):
        empty = ScenarioProfile([])
        assert run_scenario(ScenarioConfig(), empty).n_rows == 0
        single = ScenarioProfile([ProfileRecord(0.0, SegmentKind.IDLE, 0.0, 20.0)])
        assert run_scenario(ScenarioConfig(), single).n_rows == 0

    def test_mode_exclusivity(self):
        traj = run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0), mixed_profile())
        for i, flags in enumerate(traj.flags):
            if flags.startswith("drive") or flags.startswith("idle"):
                assert traj.p_ac[i] == 0.0

    def test_default_strategy_follows_profile_power(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        profile = charge_profile(duration=300.0, power=4830.0)
        traj = run_scenario(config, profile)  # no explicit strategy
        assert traj.p_ac.max() == pytest.approx(4830.0, rel=0.01)

    def test_energy_bookkeeping(self, pset):
        config = ScenarioConfig(initial_soc=0.2, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=3600.0), make_constant_strategy(11040.0))
        dt = 1.0
        e_ac = float(np.sum(traj.p_ac) * dt)
        e_dc = float(np.sum(traj.p_dc) * dt)
        # stored electrochemical energy: OCV at the sample SOC times charge
        ocv = np.array([pset.ocv.interpolate(s, 20.0) for s in traj.soc])
        e_stored = float(np.sum(ocv * 93 * traj.i_dc) * dt)
        assert e_ac >= e_dc * (1.0 - 5e-3)
        assert e_dc >= e_stored * (1.0 - 5e-3)
        assert e_ac > e_dc > e_stored > 0.0

    def test_soc_stays_within_window_plus_one_step(self):
        config = ScenarioConfig(initial_soc=0.94, initial_temp_c=20.0)
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.PLUGGED, 11040.0, 20.0, None),
                ProfileRecord(1800.0, SegmentKind.DRIVE, -30000.0, 20.0, None),
                ProfileRecord(7200.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        traj = run_scenario(config, profile, strategy_max_power)
        limits = config.bms
        eps = np.max(np.abs(traj.i_dc)) * config.dt_s / (3600.0 * 52.0 * traj.c_norm.min())
        assert traj.soc.max() <= limits.soc_max + eps
        assert traj.soc.min() >= limits.soc_min - eps
        # the drive leg actually reached the bottom of the window, so the
        # sweep realizes the maximum reachable depth of discharge of 92.1 %
        assert traj.soc.min() <= limits.soc_min + 0.01
        assert traj.soc.max() - traj.soc.min() == pytest.approx(0.921, abs=2e-3)

    def test_pack_voltage_is_93_times_cell(self):
        traj = run_scenario(ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0), mixed_profile())
        assert np.all(traj.v_pack == 93 * traj.v_cell)

    @pytest.mark.parametrize(
        "limits, temp, flagged",
        [
            pytest.param({}, 25.0, False, id="default-inside"),
            pytest.param({}, -25.0, False, id="default-min-inclusive"),
            pytest.param({}, 55.0, False, id="default-max-inclusive"),
            pytest.param({}, 60.0, True, id="default-above"),
            pytest.param({}, -30.0, True, id="default-below"),
            pytest.param({"t_max_c": 40.0}, 40.0, False, id="custom-max-inclusive"),
            pytest.param({"t_max_c": 40.0}, 45.0, True, id="custom-above"),
            pytest.param({"t_min_c": -10.0}, -15.0, True, id="custom-below"),
        ],
    )
    def test_temp_envelope_flag_reads_bms_limits(self, limits, temp, flagged):
        # idle at ambient: no heat and no convection, so the pack stays at temp
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=temp, bms=BmsLimits(**limits))
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.IDLE, 0.0, temp, None),
                ProfileRecord(120.0, SegmentKind.IDLE, 0.0, temp, None),
            ]
        )
        traj = run_scenario(config, profile)
        assert np.all(traj.t_pack == temp)
        assert traj.flags == ["idle|temp_envelope" if flagged else "idle"] * 120

    def test_charge_terminates_with_cv_taper(self, pset):
        config = ScenarioConfig(initial_soc=0.90, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=7200.0), make_constant_strategy(11040.0))
        charging = traj.i_dc > 0.01
        assert charging.any() and not charging[-1]
        i_charging = traj.i_dc[charging]
        tail = i_charging[-120:]
        assert np.all(np.diff(tail) <= 1e-9)  # taper is non-increasing
        assert traj.v_cell.max() <= 4.2
        assert traj.soc[-1] == pytest.approx(config.bms.soc_max, abs=1e-3)

    def test_cv_holds_voltage_within_one_mv_of_limit(self):
        config = ScenarioConfig(initial_soc=0.90, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=5400.0), make_constant_strategy(11040.0))
        assert traj.v_cell.max() <= 4.2 + 1e-3
        in_cv = traj.v_cell > 4.19
        assert in_cv.any()

    def test_heater_floor_while_plugged_below_zero(self):
        config = ScenarioConfig(initial_soc=0.3, initial_temp_c=-5.0)
        profile = charge_profile(duration=1200.0, power=4140.0, ambient=-10.0)
        traj = run_scenario(config, profile, make_constant_strategy(4140.0))
        # the heater floor lifts the pack to 0 degC on the very first step
        assert traj.t_pack[0] == 0.0
        assert traj.t_pack.min() >= 0.0

    def test_pack_cools_below_zero_while_driving(self):
        # no heater floor outside charging: a light drive at -20 degC ambient
        # lets the pack drift well below its initial -5 degC
        config = ScenarioConfig(initial_soc=0.6, initial_temp_c=-5.0)
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -500.0, -20.0, None),
                ProfileRecord(3600.0, SegmentKind.IDLE, 0.0, -20.0, None),
            ]
        )
        traj = run_scenario(config, profile)
        assert traj.t_pack.min() < -10.0

    def test_ev_mode_sheds_heat_faster_than_lab_mode(self):
        profile = ScenarioProfile(
            [
                ProfileRecord(0.0, SegmentKind.DRIVE, -20000.0, 20.0, None),
                ProfileRecord(1800.0, SegmentKind.IDLE, 0.0, 20.0, None),
            ]
        )
        hot = dict(initial_soc=0.9, initial_temp_c=35.0)
        ev = run_scenario(ScenarioConfig(thermal_mode=ThermalMode.EV_OPERATION, **hot), profile)
        lab = run_scenario(ScenarioConfig(thermal_mode=ThermalMode.LAB_PACK_TEST, **hot), profile)
        assert ev.t_pack[-1] < lab.t_pack[-1]

    def test_ramp_limits_initial_ac_power(self):
        config = ScenarioConfig(initial_soc=0.3, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=300.0), make_constant_strategy(11040.0))
        assert np.all(traj.p_ac[:2] == 0.0)  # reaction dead time from 0 W
        assert traj.p_ac[30] < 11040.0 * 0.99
        assert traj.p_ac[60] == pytest.approx(11040.0, rel=5e-3)
        # monotone while ramping; afterwards only the ~0.02 % constant-power
        # tracking error of the discrete current command remains
        assert np.all(np.diff(traj.p_ac[:52]) >= -1e-6)
        assert np.all(np.abs(traj.p_ac[53:100] - 11040.0) < 11040.0 * 1e-3)

    def test_strategy_observation_is_restricted(self):
        seen: list[StrategyObservation] = []

        def spy(obs: StrategyObservation) -> float:
            seen.append(obs)
            return 11040.0

        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        run_scenario(config, charge_profile(duration=100.0), spy)
        assert len(seen) == 10  # polled every control interval (10 s)
        obs = seen[0]
        assert {f.name for f in dataclasses.fields(obs)} == {
            "t_s",
            "soc",
            "t_pack_c",
            "plugged",
            "ac_power_w",
            "setpoints_w",
        }
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.soc = 0.9
        assert obs.setpoints_w[-1] == 11040.0

    def test_invalid_strategy_output_raises(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        with pytest.raises(ValueError, match="strategy"):
            run_scenario(config, charge_profile(duration=60.0), lambda obs: -5.0)

    def test_aging_updates_at_cadence(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=30.0)
        traj = run_scenario(config, charge_profile(duration=600.0), strategy_off)
        distinct = np.unique(traj.c_norm).size
        assert distinct == 600 // 60 + 1  # one fresh value plus one per minute

    def test_strategy_off_draws_nothing(self):
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=120.0), strategy_off)
        assert np.all(traj.i_dc == 0.0)
        assert np.all(traj.p_ac == 0.0)

    def test_plugged_step_looks_up_parameters_once(self, monkeypatch):
        grids, points = [], []
        interpolate, lookup = ParamGrid.interpolate, CellParameterSet.lookup

        def counting_interpolate(grid, soc, temp):
            grids.append(grid.name)
            return interpolate(grid, soc, temp)

        def counting_lookup(pset, soc, temp):
            points.append((soc, temp))
            return lookup(pset, soc, temp)

        monkeypatch.setattr(ParamGrid, "interpolate", counting_interpolate)
        monkeypatch.setattr(CellParameterSet, "lookup", counting_lookup)
        config = ScenarioConfig(initial_soc=0.5, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=300.0))
        assert traj.n_rows == 300 and traj.p_ac.max() > 0
        assert len(points) == 300
        # the only electrical-table read outside the fused lookup: the initial rest voltage
        assert [name for name in grids if name in PARAM_NAMES] == ["ocv"]


class TestMetrics:
    def test_identical_trajectories_have_zero_error(self):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=600.0))
        metrics = compute_metrics(traj, traj)
        assert metrics.rmse_cell_voltage_mv == 0.0
        assert metrics.max_abs_error_cell_voltage_mv == 0.0
        assert metrics.rmse_pack_temp_k == 0.0

    def test_constant_offset(self):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=600.0))
        shifted = dataclasses.replace(traj, v_cell=traj.v_cell + 0.010)
        metrics = compute_metrics(shifted, traj)
        assert metrics.rmse_cell_voltage_mv == pytest.approx(10.0, rel=1e-9)
        assert metrics.max_abs_error_cell_voltage_mv == pytest.approx(10.0, rel=1e-9)
        assert metrics.rmse_cell_voltage_mv <= metrics.max_abs_error_cell_voltage_mv

    def test_no_overlap_is_an_error(self):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=120.0))
        late = dataclasses.replace(traj, t_s=traj.t_s + 1e6)
        with pytest.raises(ValueError, match="overlap"):
            compute_metrics(traj, late)

    def test_integrals(self):
        t = np.arange(1.0, 101.0)
        const = Trajectory(
            t_s=t,
            soc=np.full(100, 0.5),
            v_cell=np.full(100, 3.7),
            v_pack=np.full(100, 344.1),
            i_dc=np.full(100, 10.0),
            t_pack=np.full(100, 25.0),
            p_ac=np.zeros(100),
            p_dc=np.zeros(100),
            c_norm=np.ones(100),
            r_norm=np.ones(100),
            eqfc=np.zeros(100),
            flags=["idle"] * 100,
        )
        metrics = compute_metrics(const, const)
        # rows hold each step's constant current, stamped at the step's end
        assert metrics.charge_ah == pytest.approx(10.0 * 100.0 / 3600.0, rel=1e-12)
        assert metrics.energy_kwh == pytest.approx(10.0 * 344.1 * 100.0 / 3.6e6, rel=1e-12)
        assert metrics.duration_min == pytest.approx(99.0 / 60.0, rel=1e-12)


class TestReports:
    def test_emit_and_read_roundtrip(self, tmp_path):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, mixed_profile())
        paths = emit_report(traj, None, tmp_path / "out")
        assert [p.name for p in paths] == ["trajectory.csv", "summary.txt"]
        back = read_trajectory(paths[0])
        assert back.n_rows == traj.n_rows
        np.testing.assert_array_equal(back.t_s, traj.t_s)
        np.testing.assert_array_equal(back.v_cell, traj.v_cell)
        np.testing.assert_array_equal(back.eqfc, traj.eqfc)
        assert back.flags == traj.flags

    def test_summary_contents(self, tmp_path):
        config = ScenarioConfig(initial_soc=0.4, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=600.0))
        _, summary = emit_report(traj, compute_metrics(traj, traj), tmp_path / "out")
        text = summary.read_text()
        for key in ("charge_ah", "ac_energy_kwh", "eol_status", "rmse_cell_voltage_mv"):
            assert key in text
        assert "eol_status = ok" in text

    def test_empty_trajectory_report(self, tmp_path):
        paths = emit_report(Trajectory.empty(), None, tmp_path / "out")
        assert paths[0].read_text().count("\n") == 1  # header only


class TestRegressionFixture:
    def test_replay_matches_pinned_fixture(self):
        reference = read_trajectory(REGRESSION_DIR / "trajectory.csv")
        config = ScenarioConfig(initial_soc=0.85, initial_temp_c=20.0)
        traj = run_scenario(config, charge_profile(duration=1800.0), make_constant_strategy(11040.0))
        metrics = compute_metrics(traj, reference)
        assert metrics.rmse_cell_voltage_mv == 0.0
        assert metrics.rmse_pack_temp_k == 0.0

    def test_documented_accuracy_band_brackets_a_constant_offset(self):
        # the fixture metadata records the accuracy class the plant model
        # targets; a 25 mV synthetic offset lands inside that band
        meta = dict(
            line.split(" = ")
            for line in (REGRESSION_DIR / "metadata.txt").read_text().splitlines()
            if " = " in line and not line.startswith("#")
        )
        low = float(meta["rmse_band_cell_mv_low"])
        high = float(meta["rmse_band_cell_mv_high"])
        assert (low, high) == (18.49, 67.17)
        reference = read_trajectory(REGRESSION_DIR / "trajectory.csv")
        shifted = dataclasses.replace(reference, v_cell=reference.v_cell + 0.025)
        metrics = compute_metrics(shifted, reference)
        assert low <= metrics.rmse_cell_voltage_mv <= high
