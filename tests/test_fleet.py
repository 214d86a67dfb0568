"""Fleet charging model: strategy windows, SoC trajectories, aggregate
profiles, and the energy identities that tie the three strategies together."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fleetfreq.fleet import (
    ChargingStrategy,
    FleetConfig,
    FleetState,
    InfeasibleChargingWindow,
    ProfileSettings,
    VehicleClass,
    charging_power_at,
    charging_profile,
    charging_window,
    fleet_state_at,
    soc_at,
)

ALL_STRATEGIES = list(ChargingStrategy)


def minutes(hhmm: str) -> float:
    h, m = hhmm.split(":")
    return 60.0 * int(h) + float(m)


# ---------------------------------------------------------------------------
# charging windows


def test_window_immediate():
    w = charging_window(ChargingStrategy.IMMEDIATE, VehicleClass())
    assert (w.start_min, w.end_min, w.power_kw) == (minutes("16:00"), minutes("23:00"), 100.0)
    assert w.duration_min == 7 * 60.0


def test_window_delayed():
    w = charging_window(ChargingStrategy.DELAYED, VehicleClass())
    assert (w.start_min, w.end_min, w.power_kw) == (minutes("23:00"), minutes("06:00"), 100.0)
    assert w.duration_min == 7 * 60.0


def test_window_constant_minimum_power():
    w = charging_window(ChargingStrategy.CONSTANT_MINIMUM_POWER, VehicleClass())
    assert (w.start_min, w.end_min) == (minutes("16:00"), minutes("06:00"))
    # 700 kWh over the 14 h dwell.
    assert w.power_kw == pytest.approx(50.0)
    assert w.duration_min == 14 * 60.0


def test_window_infeasible_names_deficit():
    big = VehicleClass(battery_kwh=3000.0)  # needs 2400 kWh, only 1400 fits
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InfeasibleChargingWindow, match="deficit 1000.0 kWh"):
            charging_window(strategy, big)


# ---------------------------------------------------------------------------
# instantaneous power


def test_power_inside_and_outside_windows():
    v = VehicleClass()
    assert charging_power_at(minutes("20:00"), ChargingStrategy.IMMEDIATE, v) == 100.0
    assert charging_power_at(minutes("20:00"), ChargingStrategy.DELAYED, v) == 0.0
    assert charging_power_at(minutes("20:00"), ChargingStrategy.CONSTANT_MINIMUM_POWER, v) == 50.0
    for strategy in ALL_STRATEGIES:
        assert charging_power_at(minutes("12:00"), strategy, v) == 0.0


def test_power_window_boundaries_half_open():
    v = VehicleClass()
    assert charging_power_at(minutes("16:00"), ChargingStrategy.IMMEDIATE, v) == 100.0
    assert charging_power_at(minutes("23:00"), ChargingStrategy.IMMEDIATE, v) == 0.0
    assert charging_power_at(minutes("23:00"), ChargingStrategy.DELAYED, v) == 100.0
    assert charging_power_at(minutes("05:59"), ChargingStrategy.DELAYED, v) == 100.0


def test_power_clock_domain():
    with pytest.raises(ValueError):
        charging_power_at(1440.0, ChargingStrategy.IMMEDIATE, VehicleClass())


# ---------------------------------------------------------------------------
# SoC


def test_soc_reaches_full_at_window_end():
    v = VehicleClass()
    # 0.2 + 100 kW * 7 h / 875 kWh = 1.0
    assert soc_at(minutes("23:00"), ChargingStrategy.IMMEDIATE, v) == pytest.approx(1.0)


def test_soc_full_at_shift_start_for_all_strategies():
    v = VehicleClass()
    for strategy in ALL_STRATEGIES:
        assert soc_at(v.shift_start_min, strategy, v) == pytest.approx(1.0)


def test_soc_constant_strategy_midwindow():
    v = VehicleClass()
    # 0.2 + 50 kW * 7 h / 875 kWh = 0.6 at 23:00.
    got = soc_at(minutes("23:00"), ChargingStrategy.CONSTANT_MINIMUM_POWER, v)
    assert got == pytest.approx(0.6)


def test_soc_immediate_evening_peak():
    got = soc_at(minutes("20:00"), ChargingStrategy.IMMEDIATE, VehicleClass())
    assert got == pytest.approx(0.2 + 100.0 * 4.0 / 875.0)


def test_soc_delayed_holds_return_level():
    got = soc_at(minutes("20:00"), ChargingStrategy.DELAYED, VehicleClass())
    assert got == pytest.approx(0.2)


def test_soc_trajectory_shape_and_bounds():
    v = VehicleClass()
    for strategy in ALL_STRATEGIES:
        fleet = FleetConfig(vehicle=v, strategy=strategy)
        clocks, _, _, soc = charging_profile(fleet, ProfileSettings(1.0))
        soc = np.asarray(soc)
        assert len(clocks) == 1440
        assert np.all(soc >= 0.0) and np.all(soc <= 1.0)
        # Continuity: no jump can exceed one minute at the fastest rate.
        max_rate = max(
            v.charger_kw / 60.0 / v.battery_kwh,
            (1.0 - v.soc_return) / v.shift_min,
        )
        assert np.max(np.abs(np.diff(soc))) <= max_rate + 1e-12
        # Non-decreasing through the depot dwell (16:00 wraps to 06:00).
        dwell = np.concatenate([soc[960:], soc[:360]])
        assert np.all(np.diff(dwell) >= -1e-12)


def test_soc_trajectory_step_must_divide_day():
    with pytest.raises(ValueError):
        ProfileSettings(7.0)


# ---------------------------------------------------------------------------
# energy identities


def test_energy_conservation_all_strategies():
    v = VehicleClass()
    step_min = 1.0
    for strategy in ALL_STRATEGIES:
        clocks = np.arange(0.0, 1440.0, step_min)
        powers = np.array([charging_power_at(c, strategy, v) for c in clocks])
        energy = float(np.sum(powers) * step_min / 60.0)
        quad_tol = v.charger_kw * step_min / 60.0  # one step of quadrature
        assert abs(energy - v.energy_need_kwh) <= quad_tol
        assert energy == pytest.approx(700.0, abs=quad_tol)


feasible_vehicle_st = st.builds(
    VehicleClass,
    battery_kwh=st.floats(100.0, 900.0),
    charger_kw=st.floats(80.0, 400.0),
    discharge_kw=st.floats(50.0, 400.0),
    soc_return=st.floats(0.0, 0.6),
    soc_reserve=st.floats(0.0, 1.0),
    shift_start_min=st.sampled_from([300.0, 360.0, 420.0]),
    shift_end_min=st.sampled_from([900.0, 960.0, 1020.0]),
)


@given(vehicle=feasible_vehicle_st)
def test_strategy_equivalence_properties(vehicle):
    # Always feasible: worst case 900 kWh need at 80 kW fits the 12 h dwell.
    windows = {s: charging_window(s, vehicle) for s in ALL_STRATEGIES}
    for w in windows.values():
        assert w.power_kw * w.duration_min / 60.0 == pytest.approx(
            vehicle.energy_need_kwh, rel=1e-9, abs=1e-9
        )
    imm, dlay, const = (
        windows[ChargingStrategy.IMMEDIATE],
        windows[ChargingStrategy.DELAYED],
        windows[ChargingStrategy.CONSTANT_MINIMUM_POWER],
    )
    assert imm.power_kw == dlay.power_kw
    assert const.power_kw <= imm.power_kw + 1e-12


@given(vehicle=feasible_vehicle_st)
def test_soc_full_at_shift_start_property(vehicle):
    for strategy in ALL_STRATEGIES:
        assert soc_at(vehicle.shift_start_min, strategy, vehicle) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# aggregate profile and fleet state


def test_aggregate_profile_empty_fleet():
    _, _, mw, _ = charging_profile(FleetConfig(n_vehicles=0), ProfileSettings())
    assert np.all(np.asarray(mw) == 0.0)


def test_aggregate_profile_evening_peak():
    clocks, _, mw, _ = charging_profile(FleetConfig(n_vehicles=15000), ProfileSettings())
    i = int(np.where(np.asarray(clocks) == minutes("20:00"))[0][0])
    assert mw[i] == pytest.approx(1500.0)


def test_aggregate_profile_linear_in_fleet_size():
    _, _, mw1, _ = charging_profile(FleetConfig(n_vehicles=3000), ProfileSettings())
    _, _, mw2, _ = charging_profile(FleetConfig(n_vehicles=6000), ProfileSettings())
    assert np.allclose(np.asarray(mw2), 2.0 * np.asarray(mw1))


def test_aggregate_daily_energy_identity():
    step = 15.0
    for strategy in ALL_STRATEGIES:
        fleet = FleetConfig(n_vehicles=15000, strategy=strategy)
        _, _, mw, _ = charging_profile(fleet, ProfileSettings(step))
        energy_mwh = float(np.sum(np.asarray(mw)) * step / 60.0)
        assert energy_mwh == pytest.approx(15000 * 0.7, rel=1e-9)


def test_fleet_state_on_shift():
    state = fleet_state_at(minutes("12:00"), FleetConfig())
    assert state.plugged_count == 0
    assert state.charging_power_kw == 0.0


def test_fleet_state_evening_peak():
    state = fleet_state_at(minutes("20:00"), FleetConfig(n_vehicles=15000))
    assert state.plugged_count == 15000
    assert state.charging_power_kw == 100.0
    assert state.mean_soc == pytest.approx(0.2 + 400.0 / 875.0)


def test_fleet_state_after_window():
    state = fleet_state_at(minutes("05:00"), FleetConfig(n_vehicles=15000))
    assert state.plugged_count == 15000
    assert state.charging_power_kw == 0.0
    assert state.mean_soc == pytest.approx(1.0)


def test_fleet_state_of_an_empty_fleet():
    # Inside the immediate charging window: nothing plugged, so no power.
    state = fleet_state_at(minutes("20:00"), FleetConfig(n_vehicles=0))
    assert (state.plugged_count, state.charging_power_kw) == (0, 0.0)
    assert state.mean_soc == fleet_state_at(minutes("20:00"), FleetConfig()).mean_soc


def test_fleet_state_validation():
    with pytest.raises(ValueError):
        FleetState(0.0, 0, 50.0, 0.5)  # power without plugged vehicles
    with pytest.raises(ValueError):
        FleetState(0.0, 10, -1.0, 0.5)
    with pytest.raises(ValueError):
        FleetState(0.0, 10, 0.0, 1.5)


def test_vehicle_validation():
    with pytest.raises(ValueError):
        VehicleClass(battery_kwh=0.0)
    with pytest.raises(ValueError):
        VehicleClass(soc_return=1.2)
    with pytest.raises(ValueError):
        VehicleClass(shift_start_min=360.0, shift_end_min=360.0)


def test_fleet_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(n_vehicles=-1)
    assert FleetConfig(strategy="delayed").strategy is ChargingStrategy.DELAYED
