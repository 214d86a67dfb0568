"""Event latch and commanded fleet power: threshold semantics, mode
dominance, participation scaling, and the SoC mobility guard."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fleetfreq.controller import (
    ControlMode,
    ControllerConfig,
    ev_power_command,
    latched,
    soc_rate_under_command,
)
from fleetfreq.fleet import FleetConfig, FleetState
from fleetfreq.simulator import default_scenario, simulate


def make_config(**overrides):
    base = dict(participation=1.0, mode=ControlMode.V1G)
    base.update(overrides)
    return ControllerConfig(**base)


CHARGING_PEAK = FleetState(1200.0, 15000, 100.0, 0.2 + 400.0 / 875.0)
IDLE_AT_DEPOT = FleetState(1200.0, 15000, 0.0, 0.5)
FLEET = FleetConfig(n_vehicles=15000)
TRIGGERED = True
ABOVE_RESERVE = True
THRESHOLD = ControllerConfig().threshold_hz


# ---------------------------------------------------------------------------
# event detection


def test_nominal_frequency_does_not_trigger():
    assert not latched(60.0, THRESHOLD, False, True)


def test_crossing_triggers_and_records_time():
    assert latched(59.69, THRESHOLD, False, True)
    # simulate records the first sample below the threshold.
    traj = simulate(default_scenario(horizon_s=2.0))
    i = int(np.argmax(np.asarray(traj.frequency_hz) < THRESHOLD))
    assert i > 0
    assert traj.latch_time_s == traj.times_s[i]


def test_threshold_itself_does_not_trigger():
    assert not latched(59.7, THRESHOLD, False, True)


def test_latch_holds_through_recovery():
    assert latched(60.1, THRESHOLD, True, True)


@given(frequency=st.floats(0.1, 120.0))
def test_latch_is_one_shot(frequency):
    assert latched(frequency, THRESHOLD, True, True)


def test_release_policy_without_latch():
    assert not latched(60.0, THRESHOLD, True, False)
    assert latched(59.6, THRESHOLD, True, False)


def test_latch_consistency_validated():
    # simulate reports the first trigger time, or None if the latch never
    # switched on; a release without latch_on keeps the time.
    base = default_scenario(horizon_s=10.0)
    runs = {
        "never": replace(base, disturbance_mw=0.0),
        "held": base,
        "released": replace(base, controller=replace(base.controller, latch_on=False)),
    }
    for name, scenario in runs.items():
        traj = simulate(scenario)
        below = np.asarray(traj.frequency_hz) < THRESHOLD
        assert traj.frequency_hz[-1] >= THRESHOLD, name
        assert bool(below.any()) == (name != "never"), name
        if name == "never":
            assert traj.latch_time_s is None
        else:
            assert traj.latch_time_s == traj.times_s[np.argmax(below)], name


@pytest.mark.parametrize("latch_on", [True, False])
@pytest.mark.parametrize("disturbance_mw", [0.0, 1800.0], ids=["never", "triggers"])
def test_latch_time_is_where_the_iterated_latch_first_holds(latch_on, disturbance_mw):
    # simulate finds the latch time after the run; the latch iterated over
    # the samples, as the step loop iterates it, switches on there first.
    base = default_scenario(horizon_s=10.0, disturbance_mw=disturbance_mw)
    traj = simulate(replace(base, controller=replace(base.controller, latch_on=latch_on)))
    triggered, first = False, None
    for t, f in zip(traj.times_s, traj.frequency_hz):
        triggered = latched(f, THRESHOLD, triggered, latch_on)
        if triggered and first is None:
            first = t
    assert traj.latch_time_s == first
    assert (first is None) == (disturbance_mw == 0.0)


# ---------------------------------------------------------------------------
# commanded power


def test_untriggered_command_is_zero():
    assert ev_power_command(False, ABOVE_RESERVE, make_config(), CHARGING_PEAK, FLEET) == 0.0


def test_zero_participation_command_is_zero():
    config = make_config(participation=0.0, mode=ControlMode.V2G)
    assert ev_power_command(TRIGGERED, ABOVE_RESERVE, config, CHARGING_PEAK, FLEET) == 0.0


def test_v1g_sheds_charging_load():
    config = make_config(mode=ControlMode.V1G)
    got = ev_power_command(TRIGGERED, ABOVE_RESERVE, config, CHARGING_PEAK, FLEET)
    assert got == pytest.approx(1500.0)


def test_v2g_sheds_and_injects():
    config = make_config(mode=ControlMode.V2G)
    got = ev_power_command(TRIGGERED, ABOVE_RESERVE, config, CHARGING_PEAK, FLEET)
    assert got == pytest.approx(3000.0)


def test_v2g_injection_only_when_not_charging():
    config = make_config(mode=ControlMode.V2G)
    got = ev_power_command(TRIGGERED, ABOVE_RESERVE, config, IDLE_AT_DEPOT, FLEET)
    assert got == pytest.approx(1500.0)


def test_v2g_soc_guard_blocks_injection():
    # At or below the reserve, V2G only sheds, as V1G does.
    config = make_config(mode=ControlMode.V2G)
    for state, shed_mw in ((CHARGING_PEAK, 1500.0), (IDLE_AT_DEPOT, 0.0)):
        v2g = ev_power_command(TRIGGERED, False, config, state, FLEET)
        v1g = ev_power_command(TRIGGERED, False, make_config(), state, FLEET)
        assert v2g == v1g == pytest.approx(shed_mw)


def test_v2g_without_shed_flag():
    config = make_config(mode=ControlMode.V2G, v2g_includes_shed=False)
    got = ev_power_command(TRIGGERED, ABOVE_RESERVE, config, CHARGING_PEAK, FLEET)
    assert got == pytest.approx(1500.0)


state_st = st.tuples(
    st.integers(0, 20000), st.floats(0.0, 100.0), st.floats(0.0, 1.0)
).map(
    lambda t: FleetState(1200.0, t[0], t[1] if t[0] > 0 else 0.0, t[2])
)
participation_st = st.floats(0.0, 1.0)


@given(state=state_st, above=st.booleans(), participation=participation_st)
# The injection share * discharge_kw underflows to 0.0 here.
@example(state=FleetState(1200.0, 1, 0.0, 1.0), above=True, participation=5e-324)
def test_mode_dominance(state, above, participation):
    v1g = ev_power_command(
        TRIGGERED, above, make_config(participation=participation), state, FLEET
    )
    v2g = ev_power_command(
        TRIGGERED,
        above,
        make_config(participation=participation, mode=ControlMode.V2G),
        state,
        FLEET,
    )
    assert v2g >= v1g
    injection_mw = participation * state.plugged_count / 1000.0 * FLEET.vehicle.discharge_kw
    if participation > 0.0 and state.plugged_count > 0 and above and injection_mw > 0.0:
        assert v2g > v1g


@given(state=state_st, above=st.booleans(), p1=participation_st, p2=participation_st)
def test_command_monotone_in_participation(state, above, p1, p2):
    lo, hi = sorted((p1, p2))
    for mode in ControlMode:
        c_lo = ev_power_command(
            TRIGGERED, above, make_config(participation=lo, mode=mode), state, FLEET
        )
        c_hi = ev_power_command(
            TRIGGERED, above, make_config(participation=hi, mode=mode), state, FLEET
        )
        assert c_lo <= c_hi + 1e-12


@given(
    plugged=st.integers(1, 10000),
    k=st.integers(1, 4),
    power=st.floats(0.0, 100.0),
    above=st.booleans(),
    participation=participation_st,
)
def test_command_linear_in_plugged_count(plugged, k, power, above, participation):
    config = make_config(participation=participation, mode=ControlMode.V2G)
    base = FleetState(1200.0, plugged, power, 0.8)
    scaled = FleetState(1200.0, k * plugged, power, 0.8)
    c1 = ev_power_command(TRIGGERED, above, config, base, FLEET)
    c2 = ev_power_command(TRIGGERED, above, config, scaled, FLEET)
    assert c2 == pytest.approx(k * c1, rel=1e-12, abs=1e-12)


@given(state=state_st, above=st.booleans(), participation=participation_st)
def test_v1g_never_exceeds_charging_load(state, above, participation):
    config = make_config(participation=participation)
    got = ev_power_command(TRIGGERED, above, config, state, FLEET)
    load_mw = state.plugged_count * state.charging_power_kw / 1000.0
    assert got <= load_mw + 1e-12


# ---------------------------------------------------------------------------
# SoC rate


def test_soc_rate_idle():
    assert soc_rate_under_command(0.0, IDLE_AT_DEPOT, FLEET) == 0.0


def test_soc_rate_v2g_injection():
    # 100 kW per vehicle out of an 875 kWh battery.
    command = 15000 * 100.0 / 1000.0
    rate = soc_rate_under_command(command, IDLE_AT_DEPOT, FLEET)
    assert rate == pytest.approx(-100.0 / (875.0 * 3600.0), rel=1e-12)
    assert rate == pytest.approx(-3.175e-5, abs=1e-8)


def test_soc_rate_full_shed_is_zero():
    command = 15000 * 100.0 / 1000.0  # suspend the whole charging load
    assert soc_rate_under_command(command, CHARGING_PEAK, FLEET) == pytest.approx(0.0)


def test_soc_rate_plain_charging_is_positive():
    rate = soc_rate_under_command(0.0, CHARGING_PEAK, FLEET)
    assert rate == pytest.approx(100.0 / (875.0 * 3600.0), rel=1e-12)


def test_soc_rate_unplugged():
    parked = FleetState(720.0, 0, 0.0, 0.5)
    assert soc_rate_under_command(0.0, parked, FLEET) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(participation=1.5)
    with pytest.raises(ValueError):
        ControllerConfig(threshold_hz=0.0)
    assert ControllerConfig(mode="v2g").mode is ControlMode.V2G
