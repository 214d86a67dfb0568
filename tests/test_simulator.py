"""Simulation engine: closed-form oracles, determinism, refinement behavior,
controller coupling, grid evaluation against simulate, and the day-profile
machinery."""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from fleetfreq import simulator
from fleetfreq.config import day_profile_from_value, load_config_file, scenario_from_config
from fleetfreq.controller import ControlMode, ControllerConfig, latched
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
    effective_inertia,
    steady_state_deviation,
    whole_steps,
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


def test_a_mix_sets_the_grid_the_scenario_holds():
    scenario = replace(default_scenario(), mix=CALIFORNIA_LOW_INERTIA_MIX)
    assert scenario.grid.h_eff_s == effective_inertia(CALIFORNIA_LOW_INERTIA_MIX)
    assert scenario.grid.s_base_mw == CALIFORNIA_LOW_INERTIA_MIX.total_power_mw
    assert replace(scenario.grid, h_eff_s=6.4) == default_scenario().grid


def test_rocof_with_mix_derived_inertia():
    scenario = default_scenario(mix=CALIFORNIA_LOW_INERTIA_MIX)
    grid = scenario.grid
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


def test_v2g_injects_only_above_the_reserve():
    # At 16:40 a delayed fleet is plugged in, not yet charging, at its return
    # SoC 0.2. The reserve gate is SoC strictly above the reserve, so with
    # the reserve at 0.2 V2G injects nothing, as V1G sheds nothing.
    def run(mode, soc_reserve):
        vehicle = VehicleClass(soc_reserve=soc_reserve)
        fleet = FleetConfig(vehicle=vehicle, strategy=ChargingStrategy.DELAYED)
        scenario = default_scenario(fleet=fleet, clock_min=1000.0, horizon_s=10.0)
        return simulate(with_controller(scenario, mode=mode, participation=1.0))

    at_reserve = run(ControlMode.V2G, 0.2)
    assert at_reserve.mean_soc[0] == 0.2
    assert at_reserve.latch_time_s is not None
    assert max(at_reserve.p_ev_pu) == 0.0
    assert at_reserve == run(ControlMode.V1G, 0.2)
    assert max(run(ControlMode.V2G, 0.19).p_ev_pu) > 0.0


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
    model = (c.h_eff_s, c.damping, c.droop, c.t_gov, c.t_turb, c.t_ev)

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
    columns, offsets = simulator._affine_map(c, dt)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.05, 0.05, size=(10, 4)):
        for side, d in enumerate((0.0, c.dp_pu)):
            for gate in range(4):
                step = [
                    columns[0][i] * x[0] + columns[1][i] * x[1] + columns[2][i] * x[2]
                    + columns[3][i] * x[3] + o
                    for i, o in enumerate(offsets[side][gate])
                ]
                expected = textbook_rk4_step(c, x, d, c.commands[gate], dt)
                assert step == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", list(rk4_map_cells()))
@pytest.mark.parametrize("dt", [0.001, 0.01, 0.2, 1.0])
def test_affine_map_is_exactly_one_rk4_step(name, dt):
    # Column j of phi is the step from unit state j with no inputs, and each
    # offset the step from rest under its disturbance and command, bit for bit.
    c = simulator._cell(rk4_map_cells()[name])
    columns, offsets = simulator._affine_map(c, dt)
    for j, column in enumerate(columns):
        assert column == list(textbook_rk4_step(c, np.eye(4)[j], 0.0, 0.0, dt))
    for side, d in enumerate((0.0, c.dp_pu)):
        for gate, cmd in enumerate(c.commands):
            assert offsets[side][gate] == list(textbook_rk4_step(c, np.zeros(4), d, cmd, dt))


def test_divergence_detected():
    # One-second steps are far outside the RK4 stability region for the
    # governor lag, so the state grows to overflow and must be reported.
    scenario = default_scenario(step_s=1.0, horizon_s=600.0)
    with pytest.raises(IntegrationError, match="non-finite state"):
        simulate(scenario)


def reference_samples(scenario, states=None):
    """The per-sample stepper sample_blocks replaces, kept as its oracle:
    one (t, f, p_mech_pu, p_ev_pu, mean_soc) tuple per sample, the SoC
    clipped by min and max and the state tested by four isfinite calls.
    With states given, each step's four states are appended to it."""
    c = simulator._cell(scenario)
    dt = scenario.step_s
    n_steps = whole_steps(scenario.horizon_s, dt)
    columns, offsets = simulator._affine_map(c, dt)
    x = [0.0] * 4
    soc, triggered = c.soc0, False
    for k in range(n_steps + 1):
        t = k * dt
        f = c.f0 * (1.0 + x[0])
        triggered = latched(f, c.threshold_hz, triggered, c.latch_on)
        yield t, f, x[2], x[3], soc
        if k == n_steps:
            return
        gate = 2 * triggered + (soc > c.soc_reserve)
        o = offsets[t >= scenario.event_time_s][gate]
        x = [
            columns[0][i] * x[0] + columns[1][i] * x[1] + columns[2][i] * x[2]
            + columns[3][i] * x[3] + o[i]
            for i in range(4)
        ]
        soc = min(1.0, max(0.0, soc + c.soc_rates[gate] * dt))
        if states is not None:
            states.append(x)
        if not (math.isfinite(x[0]) and math.isfinite(x[1])
                and math.isfinite(x[2]) and math.isfinite(x[3])):
            raise IntegrationError(k + 1, t + dt)


def drain(samples):
    """The values of samples as float.hex, flattened, and the IntegrationError
    that ended them, or None."""
    got = []
    try:
        for values in samples:
            got.extend(map(float.hex, values))
    except IntegrationError as exc:
        return got, (exc.step_index, exc.time_s)
    return got, None


def block_stepper_cases():
    v2g = default_scenario(
        horizon_s=10.0, controller=ControllerConfig(mode=ControlMode.V2G, participation=1.0)
    )
    charging, swinging = soc_bounds_cells()
    # The second soc_bounds cell on the reference time grid: its SoC swings
    # about its reserve at 0, so its reserve gate flips at most samples.
    flipping = replace(swinging, horizon_s=60.0, step_s=0.01)
    block = simulator._BLOCK_SAMPLES
    # A step of 1/128 s, so that the horizons of n samples are exact.
    whole = [
        replace(v2g, step_s=2.0**-7, horizon_s=(n - 1) * 2.0**-7)
        for n in (4 * block - 1, 4 * block, 4 * block + 1)
    ]
    return {
        "v1g": with_controller(v2g, mode=ControlMode.V1G),
        "v2g": v2g,
        "latch_release": latch_release_cells()[-1],
        # Sample 300 of 1,001, inside the second block.
        "event_inside_a_block": replace(v2g, event_time_s=3.0, step_s=0.01),
        "soc_clips_at_1": charging,
        "soc_clips_at_0": swinging,
        "reserve_gate_flips": flipping,
        "whole_blocks_minus_1": whole[0],
        "whole_blocks": whole[1],
        "whole_blocks_plus_1": whole[2],
        # Diverges at step 221 of 600, inside the first block.
        "divergence": default_scenario(step_s=1.0, horizon_s=600.0),
    }


@pytest.mark.parametrize(
    "name",
    [
        "v1g", "v2g", "latch_release", "event_inside_a_block", "soc_clips_at_1",
        "soc_clips_at_0", "reserve_gate_flips", "whole_blocks_minus_1", "whole_blocks",
        "whole_blocks_plus_1", "divergence",
    ],
)
def test_sample_blocks_are_the_per_sample_stepper_bit_for_bit(name):
    scenario = block_stepper_cases()[name]
    blocks = []

    def collect():
        for block in simulator.sample_blocks(scenario):
            blocks.append(len(block))
            yield block

    got, error = drain(collect())
    expected, expected_error = drain(reference_samples(scenario))
    assert got == expected
    assert error == expected_error
    # Every block but the last holds _BLOCK_SAMPLES samples.
    block = 5 * simulator._BLOCK_SAMPLES
    assert all(n == block for n in blocks[:-1]) and 0 < blocks[-1] <= block
    if name == "divergence":
        # The samples before the divergence come first, in a partial block.
        assert error == (221, 221.0) and len(got) == 5 * 221 and blocks == [5 * 221]
    if name == "reserve_gate_flips":
        soc = [float.fromhex(v) for v in got[4::5]]
        flips = sum((a > 0.0) != (b > 0.0) for a, b in zip(soc, soc[1:]))
        assert flips > len(soc) / 2
    if name.startswith("whole_blocks"):
        n = whole_steps(scenario.horizon_s, scenario.step_s) + 1
        assert sum(blocks) == 5 * n and len(blocks) == -(-n // simulator._BLOCK_SAMPLES)


@pytest.mark.parametrize("soc0", [-0.0, math.nan])
def test_the_soc_clip_gives_zero_for_a_negative_zero_and_nan(soc0, monkeypatch):
    # min(1, max(0, soc)) maps -0.0 and NaN to 0.0, and so must the block
    # stepper's two comparisons: a SoC of -0.0 would print as -0.000000.
    scenario = default_scenario(horizon_s=1.0)
    cell = simulator._cell
    monkeypatch.setattr(
        simulator, "_cell", lambda s: cell(s)._replace(soc0=soc0, soc_rates=(-0.0,) * 4)
    )
    got, error = drain(simulator.sample_blocks(scenario))
    assert (got, error) == drain(reference_samples(scenario))
    assert got[4::5][1:] == [float.hex(0.0)] * (len(got) // 5 - 1)


def test_an_overflowing_state_sum_with_finite_states_does_not_stop_the_run():
    # A per-unit loss near the largest float: at the steady state p_gov and
    # p_mech each approach it, so df + p_gov + p_mech overflows while every
    # state is finite. The per-sample stepper tests each state and runs on;
    # the block stepper's one sum is not finite there, and its four tests
    # find every state finite, so it runs on too.
    grid = replace(default_scenario().grid, s_base_mw=1.0)
    scenario = default_scenario(
        grid=grid, disturbance_mw=1e308, horizon_s=30.0,
        controller=ControllerConfig(mode=ControlMode.V2G, participation=1.0),
    )
    states = []
    expected, expected_error = drain(reference_samples(scenario, states))
    assert any(
        all(map(math.isfinite, x)) and not math.isfinite(x[0] + x[1] + x[2] + x[3])
        for x in states
    )
    got, error = drain(simulator.sample_blocks(scenario))
    assert got == expected
    assert error == expected_error


def test_samples_are_the_trajectory_up_to_a_divergence():
    scenario = default_scenario(horizon_s=10.0, controller=ControllerConfig(participation=1.0))
    traj = simulate(scenario)
    series = (traj.times_s, traj.frequency_hz, traj.p_mech_pu, traj.p_ev_pu, traj.mean_soc)
    flat = [v for block in simulator.sample_blocks(scenario) for v in block]
    assert flat == [v for sample in zip(*series) for v in sample]
    # A divergence at step k comes after the k samples before it.
    got = []
    with pytest.raises(IntegrationError) as exc:
        for block in simulator.sample_blocks(default_scenario(step_s=1.0, horizon_s=600.0)):
            got.extend(block)
    assert len(got) == 5 * exc.value.step_index
    assert got[-5] + 1.0 == exc.value.time_s


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


def quiet_late_event_cells():
    # Losses small enough that no sample leaves the settling band, late in
    # the horizon: the nadir's block, not a settling block, ends the replay.
    base = default_scenario(horizon_s=10.0, step_s=0.02, event_time_s=6.0)
    cells = [replace(base, disturbance_mw=mw) for mw in (10.0, 80.0)]
    for c in cells:
        m = evaluate(simulate(c))
        assert m.settling_time_s == 0.0 and m.nadir_time_s > base.event_time_s
    return cells


def soc_bounds_cells():
    # A small battery on a large charger, both cells in the charging window
    # and triggered after 2 s. The first charges to full before its trigger
    # and then discharges to its reserve; the second, V2G without the shed,
    # discharges to empty and then swings about it, each sample recharging
    # or discharging. So the SoC clips at 1 while charging and at 0 while
    # discharging (at samples 68 and 284 of 501, both inside a chunk). Both
    # clips show in the results: the first cell's SoC falls from the clipped
    # 1 to its reserve, and the second's reserve gate, at 0, reads each
    # clipped 0.
    base = default_scenario(horizon_s=10.0, step_s=0.02, event_time_s=2.0)

    def cell(soc0, soc_return, soc_reserve, discharge_kw, **controller):
        vehicle = VehicleClass(
            battery_kwh=5.0, charger_kw=400.0, discharge_kw=discharge_kw,
            soc_return=soc_return, soc_reserve=soc_reserve,
        )
        fleet = FleetConfig(n_vehicles=1000, vehicle=vehicle)
        window = charging_window(fleet.strategy, vehicle)
        # The clock at which the charging fleet's SoC is soc0.
        clock = window.start_min + (soc0 - soc_return) * vehicle.battery_kwh * 60.0 / window.power_kw
        controller = ControllerConfig(mode=ControlMode.V2G, participation=1.0, **controller)
        return replace(base, fleet=fleet, clock_min=clock, controller=controller)

    cells = [
        cell(0.97, 0.2, 0.92, 400.0),
        cell(0.03, 0.02, 0.0, 1000.0, v2g_includes_shed=False),
    ]
    for c, bound in zip(cells, (1.0, 0.0)):
        soc = simulate(c).mean_soc
        k = soc.index(bound)
        assert 0 < k < len(soc) - 1
    return cells


def repeated_cells():
    # Repeats of a cell, side by side and apart: each distinct cell is
    # stepped once and its result goes to every place it holds.
    cells = latch_release_cells()
    return [cells[i] for i in (1, 0, 1, 1, 3, 0, 2, 3)]


ORACLE_GRIDS = {
    "reference_sweep": (reference_sweep_cells, MetricsConfig()),
    "daily": (daily_cells, MetricsConfig()),
    "latch_release": (latch_release_cells, MetricsConfig()),
    "reserve_crossing": (reserve_crossing_cells, MetricsConfig()),
    "mixed": (mixed_cells, MIXED_METRICS),
    "mixed_coarse": (mixed_coarse_cells, MIXED_METRICS),
    "quiet_late_event": (quiet_late_event_cells, MetricsConfig()),
    "soc_bounds": (soc_bounds_cells, MetricsConfig()),
    "repeated": (repeated_cells, MetricsConfig()),
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
    # diverged cell's, not the earliest diverging one's. With repeats, that
    # is its first input index, not its place among the distinct cells.
    flat = default_scenario(disturbance_mw=0.0, step_s=1.0, horizon_s=600.0)
    small = replace(flat, disturbance_mw=1.0)
    huge = replace(flat, disturbance_mw=1.8e12)
    with pytest.raises(IntegrationError) as cell_err:
        simulate(small)
    with pytest.raises(IntegrationError) as huge_err:
        simulate(huge)
    assert huge_err.value.step_index < cell_err.value.step_index
    for cells in ([flat, small, huge], [flat, flat, small, huge, small, flat]):
        with pytest.raises(IntegrationError) as grid_err:
            evaluate_scenarios(cells, MetricsConfig(rocof_window_s=2.0))
        assert str(grid_err.value) == str(cell_err.value)
        assert (grid_err.value.step_index, grid_err.value.time_s) == (
            cell_err.value.step_index,
            cell_err.value.time_s,
        )
        assert grid_err.value.cell == cells.index(small)


def batch_of(*scenarios):
    """The kernel's batch of the scenarios' cells, one column per cell."""
    cells = [simulator._cell(s) for s in scenarios]
    return simulator._Cell(*(np.array(field).T for field in zip(*cells)))


def test_grid_divergence_at_the_last_step_in_the_governor_state_only():
    # A 0.05 s step is 2.86 governor lags of 0.0175 s, past RK4's limit of
    # 2.785, and the loss is 1.3e300 pu. The governor state overflows at the
    # last step, 200, while the frequency is still finite (about 5.3e305
    # Hz), so only a check of the whole last state finds the divergence.
    # Once a step past RK4's limit is rejected as a config error (ROADMAP
    # item 11), this input exits 2 before any cell runs instead.
    stable = default_scenario(step_s=0.05, horizon_s=10.0)
    cell = replace(
        stable,
        grid=replace(stable.grid, t_governor_s=0.0175),
        disturbance_mw=stable.grid.s_base_mw * 1.3e300,
    )
    with pytest.raises(IntegrationError) as want:
        simulate(cell)
    assert (want.value.step_index, want.value.time_s) == (200, 10.000000000000002)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError):
        for _, f in simulator._step_cells(batch_of(cell), 0.05, 0.0, 201):
            last_f = float(f[-1, 0])
    assert math.isfinite(last_f) and last_f > 1e305
    with pytest.raises(IntegrationError) as got:
        evaluate_scenarios([stable, cell, stable])
    assert (got.value.step_index, got.value.time_s, got.value.cell) == (
        want.value.step_index,
        want.value.time_s,
        1,
    )


@pytest.mark.parametrize("n_samples", [5, 16, 17, 5999, 6000, 6001])
def test_kernel_chunks_cover_the_samples_in_order(n_samples):
    # The metrics fold each chunk into one settling block, a whole number of
    # chunks, so every chunk must start at a multiple of _CHUNK_SAMPLES.
    # 6,001 samples, the reference grid's, leave a last chunk of 1 row.
    chunk = simulator._CHUNK_SAMPLES
    assert 6000 % chunk == 0
    scenarios = [default_scenario(), with_controller(default_scenario(), participation=1.0)]
    covered, rows = [], []
    for k0, f in simulator._step_cells(batch_of(*scenarios), 0.01, 0.0, n_samples):
        assert k0 % chunk == 0
        assert f.shape == (min(chunk, n_samples - k0), len(scenarios))
        covered += range(k0, k0 + len(f))
        rows.append(f.copy())
    assert covered == list(range(n_samples))
    expected = [simulate(s).frequency_hz[:n_samples] for s in scenarios]
    assert np.vstack(rows).T.tobytes() == np.array(expected).tobytes()


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
    """One time grid, metric settings that fit it, 1-12 cells on it, up to
    4 copies of them among them, and a split of the cells into batches
    (True: a batch ends after that cell). Then one more batch: a drawn cell
    twice and, at a drawn place among them, a copy of it that diverges.

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
    ends.append(True)
    # Copies of drawn cells, each placed before a drawn cell and in its batch.
    for _ in range(draw(st.integers(0, 4))):
        copy, place = (draw(st.integers(0, len(cells) - 1)) for _ in range(2))
        cells.insert(place, cells[copy])
        ends.insert(place, False)
    # The diverging copy has a governor lag 100 times shorter than the step
    # and a 1e290 pu loss. Placed last, its input index is not its place
    # among the batch's distinct cells.
    twice = cells[draw(st.integers(0, len(cells) - 1))]
    diverging = replace(
        twice,
        grid=replace(twice.grid, t_governor_s=step / 100.0),
        disturbance_mw=twice.grid.s_base_mw * 1e290,
    )
    extra = [twice, twice]
    extra.insert(draw(st.integers(0, 2)), diverging)
    cells += extra
    ends += [False, False, True]
    return cells, metrics, ends


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


def stepped_batches(cells, settings, monkeypatch):
    """The (cells, samples) of each _step_cells call made in evaluating
    cells, and the results."""
    calls = []
    step_cells = simulator._step_cells

    def recording(batch, dt, event_time_s, n_samples):
        calls.append((len(batch.f0), n_samples))
        return step_cells(batch, dt, event_time_s, n_samples)

    monkeypatch.setattr(simulator, "_step_cells", recording)
    return calls, evaluate_scenarios(cells, settings)


def test_soc_rows_equal_the_per_step_clip():
    # The kernel's SoC rows under a held step, against simulate's per-step
    # rule: starts at the bounds and next to them, and steps of both signs,
    # some crossing a bound within the rows and some too small to move.
    eps = 2.0**-52
    starts = [0.0, 5e-324, eps, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - eps / 2.0, 1.0]
    steps = [0.0, -0.0, eps, -eps, 1e-4, -1e-4, 7.3e-3, -7.3e-3, 0.3, -0.3]
    starts, steps = np.array(list(itertools.product(starts, steps))).T
    soc = np.empty((40, len(starts)))
    soc[0] = starts
    simulator._soc_rows(soc, steps)
    for cell, (x, step) in enumerate(zip(starts.tolist(), steps.tolist())):
        expected = [x]
        for _ in range(len(soc) - 1):
            expected.append(min(1.0, max(0.0, expected[-1] + step)))
        assert soc[:, cell].tobytes() == np.array(expected).tobytes(), (x, step)


def test_gates_are_checked_per_chunk_not_per_sample(monkeypatch):
    # In quiet_late_event no cell triggers and the SoC stays above the
    # reserve, so the only gate change is the event side, inside a chunk.
    # Each pass calls the latch rule once per chunk, and for the change once
    # per span checked as the span doubles from one sample back to a chunk;
    # not once per sample.
    cells = quiet_late_event_cells()
    for c in cells:
        traj = simulate(c)
        assert traj.latch_time_s is None
        assert min(traj.mean_soc) > c.fleet.vehicle.soc_reserve
    first = cells[0]
    event_k = next(k for k in itertools.count() if k * first.step_s >= first.event_time_s)
    assert event_k % simulator._CHUNK_SAMPLES != 0
    calls = []
    latched = simulator.latched

    def counting(*args):
        calls.append(None)
        return latched(*args)

    monkeypatch.setattr(simulator, "latched", counting)
    passes, _ = stepped_batches(cells, MetricsConfig(), monkeypatch)
    chunks = sum(math.ceil(n / simulator._CHUNK_SAMPLES) for _, n in passes)
    samples = sum(n for _, n in passes)
    assert len(passes) == 2 and all(n > event_k for _, n in passes)
    per_change = 2 + math.log2(simulator._CHUNK_SAMPLES)
    assert chunks <= len(calls) <= chunks + per_change * len(passes) < samples / 4


def replay_extent(cells, settings, monkeypatch):
    """The samples the settling replay of cells steps, and the samples it
    must step: to the end of the block holding each cell's nadir and, for a
    cell that settles after leaving the band, its last sample outside it."""
    calls, _ = stepped_batches(cells, settings, monkeypatch)
    assert len(calls) == 2, "one main pass and one replay"
    (_, n), (_, replayed) = calls
    chunk = simulator._CHUNK_SAMPLES
    block = chunk * math.ceil(n / (simulator._SETTLING_BLOCKS * chunk))
    needed = 0
    for c in cells:
        m = evaluate(simulate(c), settings)
        needed = max(needed, round(m.nadir_time_s / c.step_s) + 1)
        if m.settling_time_s is not None:
            needed = max(needed, round(m.settling_time_s / c.step_s))
    return replayed, min(n, block * math.ceil(needed / block)), n


def test_replay_stops_at_the_last_block_a_metric_needs(monkeypatch):
    # mixed_cells: two cells never settle, and their last block must not
    # set the replay's end.
    replayed, needed, n = replay_extent(mixed_cells(), MIXED_METRICS, monkeypatch)
    assert replayed == needed < n
    # No cell leaves the band: the replay ends with the nadirs' blocks.
    replayed, needed, n = replay_extent(quiet_late_event_cells(), MetricsConfig(), monkeypatch)
    assert replayed == needed < n


def day_cells(strategy):
    """The bundled day profile under one charging strategy, at levels 0 and
    1 in both modes: 384 cells, many of them the same integration."""
    cfg = load_config_file(REFERENCE_CONFIG)
    cfg["event"].update(step_s=0.05, horizon_s=10.0)
    return scenario_grid(
        scenario_from_config(cfg), [0.0, 1.0], list(ControlMode), [strategy],
        day=bundled_day_profile(),
    )


def test_each_distinct_cell_is_stepped_once(monkeypatch):
    cells = day_cells(ChargingStrategy.IMMEDIATE)
    distinct = len({repr(simulator._cell(s)) for s in cells})
    calls, _ = stepped_batches(cells, MetricsConfig(), monkeypatch)
    assert [n for n, _ in calls] == [distinct, distinct]
    assert distinct < len(cells)


def test_cells_differing_only_in_a_signed_zero_are_both_stepped(monkeypatch):
    # 0.0 == -0.0, but the cells' bits differ, so neither stands for the other.
    zero = default_scenario(disturbance_mw=0.0, horizon_s=10.0, step_s=0.05)
    cells = [zero, replace(zero, disturbance_mw=-0.0), zero]
    calls, results = stepped_batches(cells, MetricsConfig(), monkeypatch)
    assert [n for n, _ in calls] == [2, 2]
    assert results == [evaluate(simulate(c)) for c in cells]


@pytest.mark.parametrize(
    "strategy", [ChargingStrategy.DELAYED, ChargingStrategy.CONSTANT_MINIMUM_POWER]
)
def test_day_grids_of_many_distinct_cells_equal_simulate(strategy):
    cells = day_cells(strategy)
    assert evaluate_scenarios(cells) == [evaluate(simulate(c)) for c in cells]


def streamed_rocof(first, settings, f, edges, monkeypatch):
    """The RoCoF that _grid_metrics gives for one cell's samples f, fed to
    it in chunks that start at 0, at each of edges and, as the kernel's do,
    at each multiple of _CHUNK_SAMPLES."""
    chunk = simulator._CHUNK_SAMPLES

    def feed(cells, dt, event_time_s, n_samples):
        cuts = {*range(0, n_samples, chunk), *(e for e in edges if e < n_samples)}
        bounds = sorted({*cuts, n_samples})
        for lo, hi in zip(bounds, bounds[1:]):
            yield lo, f[lo:hi, None]

    monkeypatch.setattr(simulator, "_step_cells", feed)
    return simulator._grid_metrics(batch_of(first), first, settings)[0].rocof_hz_per_s


@pytest.mark.parametrize("centre", ["first", "last"])
def test_metric_streams_scan_the_rocof_window_to_its_edge_centres(centre, monkeypatch):
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
        assert streamed_rocof(first, settings, f, edges, monkeypatch) == reference


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


def reference_daily_cells(strategy):
    base = scenario_from_config(load_config_file(REFERENCE_CONFIG))
    base = replace(base, fleet=replace(base.fleet, strategy=strategy))
    axes = simulator.ScenarioAxes()
    day = bundled_day_profile()
    return base, axes, day, scenario_grid(base, axes.levels, axes.modes, day=day)


@pytest.mark.parametrize("strategy", list(ChargingStrategy))
def test_daily_cells_equal_the_cells_built_from_each_rows_mix(strategy):
    # Each cell once carried its row's mix, from which _cell derived the
    # grid; now the row's grid is derived once and the cell carries it.
    base, axes, day, cells = reference_daily_cells(strategy)
    from_mix = [
        replace(
            base,
            mix=row.mix,
            clock_min=row.clock_min,
            fleet=replace(base.fleet, strategy=strategy),
            controller=replace(base.controller, mode=mode, participation=level),
        )
        for row in day.rows
        for mode in axes.modes
        for level in axes.levels
    ]
    assert len(cells) == len(from_mix) == 960
    assert [repr(simulator._cell(c)) for c in cells] == [
        repr(simulator._cell(c)) for c in from_mix
    ]
    keys = [(c.clock_min, c.fleet, c.controller) for c in cells]
    assert keys == [(c.clock_min, c.fleet, c.controller) for c in from_mix]


def test_the_cells_of_a_day_row_share_its_grid_and_carry_no_mix():
    _, axes, day, cells = reference_daily_cells(ChargingStrategy.IMMEDIATE)
    per_row = len(axes.levels) * len(axes.modes)
    for i, row in enumerate(day.rows):
        row_cells = cells[i * per_row : (i + 1) * per_row]
        assert all(c.grid is row_cells[0].grid for c in row_cells)
        assert all(c.mix is None for c in row_cells)
        assert row_cells[0].grid.h_eff_s == effective_inertia(row.mix)


def test_a_daily_grid_derives_each_rows_grid_once(monkeypatch):
    derive, calls = simulator.grid_from_mix, []

    def counted(*args):
        calls.append(args)
        return derive(*args)

    base = scenario_from_config(load_config_file(REFERENCE_CONFIG))
    day = bundled_day_profile()
    monkeypatch.setattr(simulator, "grid_from_mix", counted)
    cells = scenario_grid(base, [0.2, 0.4, 0.6, 0.8, 1.0], list(ControlMode), day=day)
    list(map(simulator._cell, cells))
    assert len(cells) == 960
    assert len(calls) == 96


@pytest.mark.parametrize(
    "axes, message",
    [
        (([], [ControlMode.V1G], None), "levels must be nonempty"),
        (([1.5], [ControlMode.V1G], None), "participation level 1.5 outside [0, 1]"),
        (([-0.1], [ControlMode.V1G], None), "participation level -0.1 outside [0, 1]"),
        (([1.0], [], None), "modes must be nonempty"),
        (([1.0], [ControlMode.V1G], []), "strategies must be nonempty"),
    ],
)
def test_scenario_grid_checks_its_axes(axes, message):
    with pytest.raises(ValueError) as exc:
        scenario_grid(default_scenario(), *axes)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        simulator.ScenarioAxes(*(a for a in axes if a is not None))
    assert str(exc.value) == message
