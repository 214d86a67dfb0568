"""Simulation engine: closed-form oracles, determinism, refinement behavior,
controller coupling, grid evaluation against simulate, and the day-profile
machinery."""

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fleetfreq import simulator
from fleetfreq.config import day_profile_from_value, load_config_file, scenario_from_config
from fleetfreq.controller import ControlMode, ControllerConfig
from fleetfreq.fleet import (
    ChargingStrategy,
    FleetConfig,
    InfeasibleChargingWindow,
    VehicleClass,
)
from fleetfreq.grid import CALIFORNIA_LOW_INERTIA_MIX, steady_state_deviation
from fleetfreq.metrics import MetricsConfig, evaluate, nadir, rocof
from fleetfreq.simulator import (
    DayProfile,
    DayProfileRow,
    IntegrationError,
    bundled_day_profile,
    default_scenario,
    evaluate_scenarios,
    scenario_grid,
    simulate,
)

from day_profiles import day_profile_csv_text, synthetic_california_day

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
ROCOF_ORACLE_REPORTED = -0.4254916792738275  # -loss_pu * 60 / (2 * 6.4)
F_SS_ORACLE = 59.74065269072833  # 60 - 60 * loss_pu / (D + 1/R)


def with_controller(scenario, **kwargs):
    return replace(scenario, controller=replace(scenario.controller, **kwargs))


# ---------------------------------------------------------------------------
# oracles on the default scenario


def test_no_disturbance_stays_flat():
    traj = simulate(default_scenario(disturbance_mw=0.0))
    assert np.max(np.abs(traj.frequency_hz - 60.0)) <= 1e-9
    assert np.all(traj.p_ev_pu == 0.0)
    assert traj.latch_time_s is None


def test_initial_rocof_matches_closed_form():
    traj = simulate(default_scenario())
    assert rocof(traj, 0.5) == pytest.approx(ROCOF_ORACLE_REPORTED, abs=1e-3)


def test_late_horizon_matches_steady_state_oracle():
    traj = simulate(default_scenario())
    assert float(traj.frequency_hz[-1]) == pytest.approx(F_SS_ORACLE, abs=1e-3)
    grid = default_scenario().grid
    oracle = 60.0 + steady_state_deviation(1800.0 / grid.s_base_mw, grid)
    assert oracle == pytest.approx(F_SS_ORACLE, rel=1e-12)


def test_rocof_with_mix_derived_inertia():
    scenario = default_scenario(mix=CALIFORNIA_LOW_INERTIA_MIX)
    grid = scenario.resolved_grid()
    assert grid.h_eff_s == pytest.approx(3.9943267776096825, rel=1e-12)
    traj = simulate(scenario)
    oracle = -1800.0 / grid.s_base_mw * 60.0 / (2.0 * grid.h_eff_s)
    assert rocof(traj, 0.5) == pytest.approx(oracle, abs=2e-3)


def test_latch_records_threshold_crossing():
    traj = simulate(default_scenario())
    assert nadir(traj)[0] < 59.7  # the default event must reach the trigger
    assert traj.latch_time_s is not None
    i = int(np.searchsorted(traj.times_s, traj.latch_time_s))
    assert traj.frequency_hz[i] < 59.7
    assert traj.frequency_hz[i - 1] >= 59.7


def test_rocof_doubles_when_inertia_halves():
    base = default_scenario()
    full = simulate(base)
    halved = simulate(replace(base, grid=replace(base.grid, h_eff_s=3.2)))
    ratio = rocof(halved, 0.5) / rocof(full, 0.5)
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_strong_v2g_overcompensation_overshoots():
    # 3,000 MW of support against the 1,800 MW loss lifts frequency above
    # the no-response settling level, so overshoot must be positive.
    traj = simulate(with_controller(default_scenario(), mode=ControlMode.V2G, participation=1.0))
    m = evaluate(traj)
    assert m.overshoot_hz > 0.0
    assert m.f_steady_state_hz > 60.0


def test_pre_event_padding():
    traj = simulate(default_scenario(event_time_s=1.0))
    pre = traj.frequency_hz[traj.times_s < 1.0]
    assert np.all(pre == 60.0)
    assert traj.frequency_hz[0] == 60.0


# ---------------------------------------------------------------------------
# controller coupling


def test_v2g_nadir_beats_v1g():
    v1g = simulate(with_controller(default_scenario(), mode=ControlMode.V1G, participation=1.0))
    v2g = simulate(with_controller(default_scenario(), mode=ControlMode.V2G, participation=1.0))
    assert nadir(v2g)[0] > nadir(v1g)[0]


def test_zero_participation_modes_identical():
    base = default_scenario()
    results = evaluate_scenarios(
        scenario_grid(base, [0.0], [ControlMode.V1G, ControlMode.V2G])
    )
    assert results[0] == results[1]


def test_nadir_monotone_in_participation_and_mode():
    base = default_scenario(mix=CALIFORNIA_LOW_INERTIA_MIX, fleet=FleetConfig(n_vehicles=7000))
    levels = [0.2, 0.4, 0.6, 0.8, 1.0]
    scenarios = scenario_grid(base, levels, [ControlMode.V1G, ControlMode.V2G])
    cells = list(zip(scenarios, evaluate_scenarios(scenarios)))
    v1g = [m.nadir_hz for s, m in cells if s.controller.mode is ControlMode.V1G]
    v2g = [m.nadir_hz for s, m in cells if s.controller.mode is ControlMode.V2G]
    assert v1g == sorted(v1g)
    assert v2g == sorted(v2g)
    for lo, hi in zip(v1g, v2g):
        assert hi >= lo


def test_nadir_monotone_in_inertia():
    low = simulate(default_scenario(grid=replace(default_scenario().grid, h_eff_s=3.9943267776096825)))
    high = simulate(default_scenario())
    assert nadir(low)[0] <= nadir(high)[0]


def test_soc_guard_cuts_injection_mid_trajectory():
    # Small battery drains to the reserve inside the horizon; injection must
    # stop there instead of pushing SoC below the floor.
    vehicle = VehicleClass(
        battery_kwh=50.0, soc_return=0.31, soc_reserve=0.3, charger_kw=100.0
    )
    fleet = FleetConfig(n_vehicles=15000, vehicle=vehicle, strategy=ChargingStrategy.DELAYED)
    scenario = default_scenario(fleet=fleet)
    scenario = with_controller(scenario, mode=ControlMode.V2G, participation=1.0)
    traj = simulate(scenario)
    step_drain = vehicle.discharge_kw / (vehicle.battery_kwh * 3600.0) * scenario.step_s
    assert np.min(traj.mean_soc) >= vehicle.soc_reserve - step_drain - 1e-12
    assert traj.mean_soc[0] == pytest.approx(0.31)
    # Injection active right after the trigger, gone at the end.
    assert np.max(traj.p_ev_pu) > 0.0
    assert traj.p_ev_pu[-1] == pytest.approx(0.0, abs=1e-6)


def test_soc_rises_while_charging_pre_event():
    traj = simulate(default_scenario(disturbance_mw=0.0))
    assert traj.mean_soc[-1] > traj.mean_soc[0]
    rate = 100.0 / (875.0 * 3600.0)
    assert traj.mean_soc[-1] - traj.mean_soc[0] == pytest.approx(60.0 * rate, rel=1e-9)


def test_frequency_bounds_sanity():
    for mode in ControlMode:
        traj = simulate(with_controller(default_scenario(), mode=mode, participation=1.0))
        assert np.min(traj.frequency_hz) > 0.0
        assert np.max(traj.frequency_hz) < 120.0


# ---------------------------------------------------------------------------
# numerics


def test_determinism_bit_identical():
    a = simulate(default_scenario())
    b = simulate(default_scenario())
    for field in ("times_s", "frequency_hz", "p_mech_pu", "p_ev_pu", "mean_soc"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_step_refinement_changes_metrics_little():
    coarse = evaluate(simulate(default_scenario()))
    fine = evaluate(simulate(default_scenario(step_s=0.005)))
    assert abs(coarse.nadir_hz - fine.nadir_hz) < 1e-4
    assert abs(coarse.rocof_hz_per_s - fine.rocof_hz_per_s) < 1e-3
    assert abs(coarse.settling_time_s - fine.settling_time_s) <= 0.01 + 1e-12


@pytest.mark.parametrize("mode", list(ControlMode))
def test_reference_nadir_converges_under_step_halving(mode):
    # The latch fires at step boundaries, so with the fleet responding the
    # nadir error is first order in the step: measured against a 0.0025 s
    # run it must shrink from 0.02 s to 0.01 s and stay below 5 mHz there.
    base = scenario_from_config(load_config_file(REFERENCE_CONFIG))
    base = with_controller(base, mode=mode, participation=1.0)
    nadirs = {
        dt: nadir(simulate(replace(base, step_s=dt)))[0] for dt in (0.02, 0.01, 0.0025)
    }
    gap_02, gap_01 = (abs(nadirs[dt] - nadirs[0.0025]) for dt in (0.02, 0.01))
    assert gap_01 < gap_02
    assert gap_01 < 5e-3


def test_rk4_fourth_order_on_aligned_samples():
    # Comparing minima over the shared coarse grid isolates the integrator
    # error from the sampling artifact of the true minimum falling between
    # samples; the ratio then shows the expected fourth-order collapse.
    base = default_scenario()
    n_h = simulate(base)
    n_h2 = simulate(replace(base, step_s=0.005))
    n_h4 = simulate(replace(base, step_s=0.0025))
    m = float(np.min(n_h.frequency_hz))
    m2 = float(np.min(n_h2.frequency_hz[::2]))
    m4 = float(np.min(n_h4.frequency_hz[::4]))
    ratio = abs(m - m2) / abs(m2 - m4)
    assert ratio >= 8.0


def test_divergence_detected():
    # One-second steps are far outside the RK4 stability region for the
    # governor lag, so the state grows to overflow and must be reported.
    scenario = default_scenario(step_s=1.0, horizon_s=600.0)
    with pytest.raises(IntegrationError, match="non-finite state"):
        simulate(scenario)


def test_infeasible_window_propagates():
    fleet = FleetConfig(vehicle=VehicleClass(battery_kwh=3000.0))
    with pytest.raises(InfeasibleChargingWindow):
        simulate(default_scenario(fleet=fleet))


def test_scenario_validation():
    with pytest.raises(ValueError):
        default_scenario(step_s=0.0)
    with pytest.raises(ValueError):
        default_scenario(horizon_s=0.05)  # fewer than 10 steps
    with pytest.raises(ValueError):
        default_scenario(event_time_s=60.0)
    with pytest.raises(ValueError):
        default_scenario(horizon_s=60.005)  # step does not divide horizon
    with pytest.raises(ValueError):
        # Threshold above nominal frequency would self-trigger at rest.
        default_scenario(controller=ControllerConfig(threshold_hz=60.5))


# ---------------------------------------------------------------------------
# grid evaluation: every cell stepped together, checked against simulate


def test_batch_size_does_not_change_results():
    base = default_scenario(horizon_s=10.0, step_s=0.02)
    scenarios = [
        with_controller(base, mode=mode, participation=level)
        for mode in ControlMode
        for level in (0.5, 1.0)
    ]
    serial = [m for s in scenarios for m in evaluate_scenarios([s])]
    batched = evaluate_scenarios(scenarios)
    assert serial == batched


def evaluate_in_batches(cells, size, settings):
    return [
        m
        for i in range(0, len(cells), size)
        for m in evaluate_scenarios(cells[i : i + size], settings)
    ]


def reference_sweep_cells():
    # The reference sweep grid at a coarser step and a shorter horizon, so
    # that evaluating it one cell at a time stays quick.
    cfg = load_config_file(REFERENCE_CONFIG)
    cfg["event"].update(step_s=0.02, horizon_s=10.0)
    return scenario_grid(
        scenario_from_config(cfg), [0.2, 0.4, 0.6, 0.8, 1.0], list(ControlMode),
        list(ChargingStrategy),
    )


def daily_cells():
    base = default_scenario(horizon_s=10.0, step_s=0.1)
    return scenario_grid(base, [1.0], [ControlMode.V2G], day=bundled_day_profile())


def latch_release_cells():
    base = default_scenario(horizon_s=10.0, step_s=0.02)
    base = with_controller(base, latch_on=False)
    cells = scenario_grid(base, [0.5, 1.0], list(ControlMode))
    # The frequency must cross back over the threshold, releasing the latch.
    f = simulate(cells[-1]).frequency_hz
    below = f < base.controller.threshold_hz
    assert np.any(below[:-1] & ~below[1:])
    return cells


def reserve_crossing_cells():
    vehicle = VehicleClass(
        battery_kwh=50.0, soc_return=0.31, soc_reserve=0.3, charger_kw=100.0
    )
    fleet = FleetConfig(n_vehicles=15000, vehicle=vehicle, strategy=ChargingStrategy.DELAYED)
    base = default_scenario(fleet=fleet, horizon_s=30.0, step_s=0.05)
    cells = scenario_grid(base, [0.5, 1.0], [ControlMode.V2G])
    soc = simulate(cells[-1]).mean_soc
    assert soc[0] > vehicle.soc_reserve >= soc[-1]
    return cells


MIXED_METRICS = MetricsConfig(tail_fraction=0.5, settling_band_hz=0.01)


def mixed_cells():
    # A cell that never settles, a V2G cell and a zero-disturbance cell that
    # never leaves the band, on one time grid.
    short = default_scenario(horizon_s=2.0)
    cells = [
        short,
        with_controller(short, participation=1.0, mode=ControlMode.V2G),
        replace(short, disturbance_mw=0.0),
    ]
    never, at_once = (evaluate(simulate(c), **asdict(MIXED_METRICS)) for c in cells[::2])
    assert never.settling_time_s is None and at_once.settling_time_s == 0.0
    return cells


def mixed_coarse_cells():
    # The same settings on a coarser, longer time grid: no loss and a loss.
    coarse = default_scenario(horizon_s=5.0, step_s=0.05)
    return [replace(coarse, disturbance_mw=0.0), coarse]


ORACLE_GRIDS = {
    "reference_sweep": (reference_sweep_cells, MetricsConfig()),
    "daily": (daily_cells, MetricsConfig()),
    "latch_release": (latch_release_cells, MetricsConfig()),
    "reserve_crossing": (reserve_crossing_cells, MetricsConfig()),
    "mixed": (mixed_cells, MIXED_METRICS),
    "mixed_coarse": (mixed_coarse_cells, MIXED_METRICS),
}


@pytest.mark.parametrize("grid", list(ORACLE_GRIDS))
def test_grid_evaluation_equals_simulate_at_any_batch_size(grid):
    make_cells, settings = ORACLE_GRIDS[grid]
    cells = make_cells()
    expected = [evaluate(simulate(c), **asdict(settings)) for c in cells]
    for size in (1, 7, len(cells)):
        assert evaluate_in_batches(cells, size, settings) == expected


def test_grid_divergence_raises_the_first_diverged_cells_error():
    # One time grid (a 1 s step, far past RK4's stability limit). The 1 MW
    # loss comes first in the list but diverges later (step 223) than the
    # 1.8e12 MW loss (step 214), so the error must be the first listed
    # diverged cell's, not the earliest diverging one's.
    flat = default_scenario(disturbance_mw=0.0, step_s=1.0, horizon_s=600.0)
    small = replace(flat, disturbance_mw=1.0)
    huge = replace(flat, disturbance_mw=1.8e12)
    cells = [flat, small, huge]
    with pytest.raises(IntegrationError) as cell_err:
        simulate(small)
    with pytest.raises(IntegrationError) as huge_err:
        simulate(huge)
    assert huge_err.value.step_index < cell_err.value.step_index
    with pytest.raises(IntegrationError) as grid_err:
        evaluate_scenarios(cells, MetricsConfig(rocof_window_s=2.0))
    assert str(grid_err.value) == str(cell_err.value)
    assert (grid_err.value.step_index, grid_err.value.time_s) == (
        cell_err.value.step_index,
        cell_err.value.time_s,
    )
    assert grid_err.value.cell == cells.index(small)


def test_grid_of_mixed_time_grids_raises_before_any_cell_runs(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("a cell was stepped")

    monkeypatch.setattr(simulator, "_step_cells", no_stepping)
    base = default_scenario(horizon_s=10.0)
    others = (
        replace(base, step_s=0.02),
        replace(base, horizon_s=5.0),
        replace(base, event_time_s=1.0),
    )
    for other in others:
        with pytest.raises(ValueError, match=r"one time grid.*scenario 2 has"):
            evaluate_scenarios([base, base, other, base])
    assert evaluate_scenarios([]) == []


# ---------------------------------------------------------------------------
# day profiles and the daily scan


def test_bundled_day_profile_integrity():
    day = bundled_day_profile()
    assert len(day.rows) == 96
    assert day.rows[80].mix == CALIFORNIA_LOW_INERTIA_MIX  # 20:00
    assert day == synthetic_california_day()
    totals = {round(r.mix.total_power_mw, 6) for r in day.rows}
    assert totals == {19830.0}


def test_day_profile_validation_count():
    rows = synthetic_california_day().rows[:90]
    with pytest.raises(ValueError, match="96 rows"):
        DayProfile(rows)


def test_day_profile_validation_clock_grid():
    rows = list(synthetic_california_day().rows)
    rows[3] = DayProfileRow(46.0, rows[3].mix)
    with pytest.raises(ValueError, match="row 4"):
        DayProfile(tuple(rows))


def test_day_profile_csv_duplicate_clock(tmp_path):
    day = synthetic_california_day()
    text = day_profile_csv_text(day)
    lines = text.splitlines()
    lines[5] = lines[4]  # duplicate the clock of data row 4 into row 5
    path = tmp_path / "day.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate clock_min"):
        day_profile_from_value(path)


def test_day_profile_csv_bad_header(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text("clock,gas\n0,10\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected header"):
        day_profile_from_value(path)


def test_day_profile_csv_roundtrip(tmp_path):
    day = synthetic_california_day()
    path = tmp_path / "day.csv"
    path.write_text(day_profile_csv_text(day), encoding="utf-8")
    assert day_profile_from_value(path) == day


def fast_scan_base():
    return default_scenario(horizon_s=10.0, step_s=0.02)


def test_daily_scan_structure_and_order():
    day = bundled_day_profile()
    cells = scenario_grid(fast_scan_base(), [1.0], [ControlMode.V1G], day=day)
    assert len(cells) == 96
    assert [c.clock_min for c in cells] == [15.0 * i for i in range(96)]


def test_daily_scan_on_shift_equals_no_response():
    day = bundled_day_profile()
    base = fast_scan_base()
    noon = day.rows[48]  # 12:00
    with_fleet = simulate(
        replace(
            with_controller(base, mode=ControlMode.V1G, participation=1.0),
            mix=noon.mix,
            clock_min=720.0,
        )
    )
    without = simulate(
        replace(with_controller(base, participation=0.0), mix=noon.mix, clock_min=720.0)
    )
    assert nadir(with_fleet)[0] == nadir(without)[0]


def test_daily_scan_lower_inertia_deeper_nadir():
    day = bundled_day_profile()
    base = with_controller(fast_scan_base(), participation=0.0)
    noon = simulate(replace(base, mix=day.rows[48].mix, clock_min=1200.0))
    evening = simulate(replace(base, mix=day.rows[80].mix, clock_min=1200.0))
    assert nadir(noon)[0] <= nadir(evening)[0]


def test_daily_scan_constant_mix_varies_only_with_fleet():
    mix = CALIFORNIA_LOW_INERTIA_MIX
    rows = tuple(DayProfileRow(15.0 * i, mix) for i in range(96))
    day = DayProfile(rows)
    scenarios = scenario_grid(fast_scan_base(), [1.0], [ControlMode.V1G], day=day)
    by_clock = {
        s.clock_min: m.nadir_hz for s, m in zip(scenarios, evaluate_scenarios(scenarios))
    }
    # All on-shift intervals (no plugged vehicles) collapse to one value.
    on_shift = {by_clock[c] for c in by_clock if 360.0 <= c < 960.0}
    assert len(on_shift) == 1
    # Plugged-and-charging intervals differ from the on-shift baseline.
    assert by_clock[1200.0] > next(iter(on_shift))
