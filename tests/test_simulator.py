"""Simulation engine: closed-form oracles, determinism, refinement behavior,
controller coupling, grid evaluation against simulate, and the day-profile
machinery."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from fleetfreq import simulator
from fleetfreq.config import day_profile_from_value, load_config_file, scenario_from_config
from fleetfreq.controller import ControlMode, ControllerConfig
from fleetfreq.fleet import (
    ChargingStrategy,
    FleetConfig,
    InfeasibleChargingWindow,
    VehicleClass,
    charging_window,
    fleet_state_at,
)
from fleetfreq.grid import (
    CALIFORNIA_LOW_INERTIA_MIX,
    GridParameters,
    _rhs,
    steady_state_deviation,
)
from fleetfreq.metrics import MetricsConfig, evaluate, rocof_window
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
    assert np.max(np.abs(np.asarray(traj.frequency_hz) - 60.0)) <= 1e-9
    assert np.all(np.asarray(traj.p_ev_pu) == 0.0)
    assert traj.latch_time_s is None


def test_initial_rocof_matches_closed_form():
    traj = simulate(default_scenario())
    assert evaluate(traj).rocof_hz_per_s == pytest.approx(ROCOF_ORACLE_REPORTED, abs=1e-3)


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
    assert evaluate(traj).rocof_hz_per_s == pytest.approx(oracle, abs=2e-3)


def test_latch_records_threshold_crossing():
    traj = simulate(default_scenario())
    assert evaluate(traj).nadir_hz < 59.7  # the default event must reach the trigger
    assert traj.latch_time_s is not None
    i = int(np.searchsorted(traj.times_s, traj.latch_time_s))
    assert traj.frequency_hz[i] < 59.7
    assert traj.frequency_hz[i - 1] >= 59.7


def test_rocof_doubles_when_inertia_halves():
    base = default_scenario()
    full = simulate(base)
    halved = simulate(replace(base, grid=replace(base.grid, h_eff_s=3.2)))
    ratio = evaluate(halved).rocof_hz_per_s / evaluate(full).rocof_hz_per_s
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
    pre = np.asarray(traj.frequency_hz)[np.asarray(traj.times_s) < 1.0]
    assert np.all(pre == 60.0)
    assert traj.frequency_hz[0] == 60.0


# ---------------------------------------------------------------------------
# controller coupling


def test_v2g_nadir_beats_v1g():
    v1g = simulate(with_controller(default_scenario(), mode=ControlMode.V1G, participation=1.0))
    v2g = simulate(with_controller(default_scenario(), mode=ControlMode.V2G, participation=1.0))
    assert evaluate(v2g).nadir_hz > evaluate(v1g).nadir_hz


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
    assert evaluate(low).nadir_hz <= evaluate(high).nadir_hz


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
        dt: evaluate(simulate(replace(base, step_s=dt))).nadir_hz for dt in (0.02, 0.01, 0.0025)
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


def textbook_rk4_step(c, x, d, cmd, dt):
    model = (c.two_h, c.damping, c.inv_droop, c.t_gov, c.t_turb, c.t_ev)

    def rhs(y):
        return np.array(_rhs(*y, d, cmd, *model))

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_map_cells():
    base = default_scenario()
    daily = scenario_grid(base, [1.0], [ControlMode.V2G], day=bundled_day_profile())
    return {
        "default": base,
        "daily_0730": daily[30],
        "v2g_full": with_controller(base, mode=ControlMode.V2G, participation=1.0),
    }


@pytest.mark.parametrize("name", list(rk4_map_cells()))
@pytest.mark.parametrize("dt", [0.001, 0.01, 0.2, 1.0])
def test_affine_map_step_is_one_rk4_step(name, dt):
    # The map is RK4 rewritten for a linear model with held inputs, so one
    # step of it must agree with k1..k4 up to rounding, for random states,
    # both disturbance values and every gate.
    c = simulator._cell(rk4_map_cells()[name])
    phi, offsets = simulator._affine_map(c, dt)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.05, 0.05, size=(10, 4)):
        for side, d in enumerate((0.0, c.dp_pu)):
            for gate in range(4):
                step = [
                    row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3] + o
                    for row, o in zip(phi, offsets[side][gate])
                ]
                expected = textbook_rk4_step(c, x, d, c.commands[gate], dt)
                assert step == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    f = np.asarray(simulate(cells[-1]).frequency_hz)
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
    never, at_once = (evaluate(simulate(c), MIXED_METRICS) for c in cells[::2])
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
    expected = [evaluate(simulate(c), settings) for c in cells]
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


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def oracle_cell(draw, base):
    """A cell on the time grid of base, every value in its validated range.

    Losses reach 1 pu: the deeper the dip, the more of the low bits of the
    deviation df survive in f = f0 (1 + df), so a kernel that rounds
    differently shows in the metrics. Time constants reach below the coarser
    steps, and one cell in eight loses 1e290 pu, which overflows within the
    horizon where a step lies beyond RK4's stability limit: some cells
    diverge. Batteries are small,
    the clock often lies in the charging window and the SoC reserve lies
    near the initial SoC, so that the fleet responds and the reserve gate
    can switch within the horizon. The threshold lies near the nadir
    without response, so that the latch fires late, or not at all.
    """
    f_nominal = draw(st.sampled_from([50.0, 60.0]))
    grid = GridParameters(
        h_eff_s=draw(_floats(0.5, 10.0)),
        s_base_mw=draw(_floats(5e3, 4e4)),
        f_nominal_hz=f_nominal,
        damping_pu=draw(_floats(0.0, 5.0)),
        droop_pu=draw(_floats(0.01, 0.2)),
        t_governor_s=draw(_floats(0.005, 2.0)),
        t_turbine_s=draw(_floats(0.005, 2.0)),
        t_ev_s=draw(_floats(0.005, 1.0)),
    )
    vehicle = VehicleClass(
        battery_kwh=draw(_floats(5.0, 50.0)),
        charger_kw=draw(_floats(50.0, 400.0)),
        discharge_kw=draw(_floats(10.0, 400.0)),
        soc_return=draw(_floats(0.0, 1.0)),
    )
    fleet = FleetConfig(
        n_vehicles=draw(st.integers(0, 20_000)),
        vehicle=vehicle,
        strategy=draw(st.sampled_from(list(ChargingStrategy))),
    )
    window = charging_window(fleet.strategy, vehicle)
    in_window = _floats(0.0, 1.0).map(
        lambda u: (window.start_min + u * window.duration_min) % 1440.0
    )
    clock = draw(st.integers(0, 1439).map(float) | in_window)
    soc0 = fleet_state_at(clock, fleet).mean_soc
    reserve = min(1.0, max(0.0, soc0 + draw(_floats(-0.003, 0.001))))
    fleet = replace(fleet, vehicle=replace(vehicle, soc_reserve=reserve))
    loss_pu = 1e290 if draw(st.integers(0, 7)) == 0 else draw(_floats(0.0, 1.0))
    cell = replace(
        base,
        grid=grid,
        fleet=fleet,
        clock_min=clock,
        disturbance_mw=grid.s_base_mw * loss_pu,
        controller=ControllerConfig(
            threshold_hz=f_nominal - 0.5,
            participation=draw(_floats(0.0, 1.0)),
            mode=draw(st.sampled_from(list(ControlMode))),
            latch_on=draw(st.booleans()),
            v2g_includes_shed=draw(st.booleans()),
        ),
    )
    try:
        nadir_hz = float(np.asarray(simulate(with_controller(cell, participation=0.0)).frequency_hz).min())
    except IntegrationError:
        return cell
    # An unstable step can swing the frequency below 0 Hz without diverging.
    threshold = min(f_nominal - 1e-3, max(1.0, nadir_hz + draw(_floats(-0.005, 0.1))))
    return with_controller(cell, threshold_hz=threshold)


@st.composite
def oracle_grids(draw):
    """One time grid, metric settings that fit it, 1-12 cells on it and a
    split of the cells into batches (True: a batch ends after that cell).

    Horizons run from 1 to 20 s, at most 400 steps, which keeps the test
    to a few seconds.
    """
    step = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25, 0.5]))
    n_steps = draw(st.integers(max(10, round(1.0 / step)), min(400, round(20.0 / step))))
    horizon = n_steps * step
    window = draw(_floats(2.0 * step, min(2.0, horizon)))
    # On a sample, where the step that starts there sees the loss, or between.
    on_grid = st.integers(0, int((horizon - window) / step)).map(lambda k: k * step)
    event_time = draw(on_grid | _floats(0.0, horizon - window))
    base = default_scenario(step_s=step, horizon_s=horizon, event_time_s=event_time)
    metrics = MetricsConfig(
        rocof_window_s=window,
        settling_band_hz=draw(_floats(1e-3, 0.1)),
        tail_fraction=draw(_floats(1e-3, 1.0)),
    )
    cells = draw(st.lists(oracle_cell(base), min_size=1, max_size=12))
    ends = draw(st.lists(st.booleans(), min_size=len(cells) - 1, max_size=len(cells) - 1))
    return cells, metrics, [*ends, True]


@hypothesis_settings(derandomize=True, deadline=None, max_examples=90)
@given(oracle_grids())
def test_grid_evaluation_equals_simulate_on_random_grids(grid):
    cells, settings, ends = grid
    expected = []
    for c in cells:
        try:
            expected.append(evaluate(simulate(c), settings))
        except IntegrationError as exc:
            expected.append(exc)
    start = 0
    for stop in [i + 1 for i, end in enumerate(ends) if end]:
        batch, want = cells[start:stop], expected[start:stop]
        errors = [i for i, w in enumerate(want) if isinstance(w, IntegrationError)]
        if errors:
            with pytest.raises(IntegrationError) as got:
                evaluate_scenarios(batch, settings)
            first = want[errors[0]]
            assert (got.value.step_index, got.value.time_s, got.value.cell) == (
                first.step_index,
                first.time_s,
                errors[0],
            )
        else:
            assert evaluate_scenarios(batch, settings) == want
        start = stop


@pytest.mark.parametrize("size", [1, 2, 3, 16, 10_000])
@pytest.mark.parametrize("grid", list(ORACLE_GRIDS))
def test_chunk_length_does_not_change_results(grid, size, monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_SAMPLES", size)
    make_cells, settings = ORACLE_GRIDS[grid]
    cells = make_cells()
    assert evaluate_scenarios(cells, settings) == [evaluate(simulate(c), settings) for c in cells]


def test_random_grids_in_chunks_of_two_samples(monkeypatch):
    # The same derandomized grids, with a chunk edge at every other sample,
    # so on either side of i0 - 1, i1 + 1, the tail start and the
    # settling-block edges.
    monkeypatch.setattr(simulator, "_CHUNK_SAMPLES", 2)
    test_grid_evaluation_equals_simulate_on_random_grids()


def streamed_rocof(first, settings, f, edges):
    """The RoCoF that _MetricStreams gives for one cell's samples f, folded
    in chunks that start at 0 and at each of edges."""
    streams = simulator._MetricStreams(first, 1, settings)
    bounds = sorted({0, len(f), *edges})
    for lo, hi in zip(bounds, bounds[1:]):
        streams(lo, f[lo:hi, None])
    # No sample lies outside an infinite band, so no cell is replayed.
    return streams.results(None, math.inf)[0].rocof_hz_per_s


@pytest.mark.parametrize("centre", ["first", "last"])
def test_metric_streams_scan_the_rocof_window_to_its_edge_centres(centre):
    # The steepest centred difference inside the window lies about its first
    # centre i0 or its last centre i1, whose outer neighbour a chunk edge can
    # put in another chunk:
    # - first: a 5 Hz/s fall up to sample i0 - 1, then a 0.55 Hz drop. The
    #   difference about i0 - 1, outside the window, is steeper still.
    # - last: a 0.5 Hz drop at sample i1 + 1, then a 5 Hz/s fall.
    first = default_scenario(horizon_s=1.0, step_s=0.01, event_time_s=0.2)
    settings = MetricsConfig(rocof_window_s=0.3)
    times = np.asarray(simulate(first).times_s)
    i0, i1, _ = rocof_window(times, first.event_time_s, settings.rocof_window_s)
    k = np.arange(len(times))
    if centre == "first":
        c = i0
        f = np.where(k < i0, 60.5 + 5.0 * (times[i0] - times), 60.0)
    else:
        c = i1
        f = np.where(k > i1, 59.5 - 5.0 * (times - times[i1]), 60.0)
    zeros = np.zeros(len(f))
    traj = simulator.Trajectory(times, f, zeros, zeros, zeros, None, first.event_time_s)
    reference = evaluate(traj, settings).rocof_hz_per_s
    assert reference == pytest.approx((f[c + 1] - f[c - 1]) / 0.02)
    assert reference < -25.0
    if centre == "first":
        assert (f[i0] - f[i0 - 2]) / 0.02 < reference
    for edges in ([], [c], [c + 1], [c - 1, c + 1], range(len(f))):
        assert streamed_rocof(first, settings, f, edges) == reference


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
    assert evaluate(with_fleet).nadir_hz == evaluate(without).nadir_hz


def test_empty_fleet_at_the_charging_peak_holds_its_soc():
    base = fast_scan_base()
    empty = replace(base, fleet=replace(base.fleet, n_vehicles=0))
    traj = simulate(with_controller(empty, mode=ControlMode.V2G, participation=1.0))
    assert np.all(np.asarray(traj.mean_soc) == traj.mean_soc[0])
    assert np.all(np.asarray(traj.p_ev_pu) == 0.0)
    assert traj.frequency_hz.tolist() == simulate(with_controller(base)).frequency_hz.tolist()


def test_daily_scan_lower_inertia_deeper_nadir():
    day = bundled_day_profile()
    base = with_controller(fast_scan_base(), participation=0.0)
    noon = simulate(replace(base, mix=day.rows[48].mix, clock_min=1200.0))
    evening = simulate(replace(base, mix=day.rows[80].mix, clock_min=1200.0))
    assert evaluate(noon).nadir_hz <= evaluate(evening).nadir_hz


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
