"""Config sections: typed coercion of every field, bad values rejected with
exit 2 and the field named, and the scenario echo round trip."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fleetfreq.cli import main
from fleetfreq.config import scenario_from_config, scenario_to_config
from fleetfreq.controller import ControlMode, ControllerConfig
from fleetfreq.fleet import ChargingStrategy, FleetConfig, VehicleClass
from fleetfreq.grid import GenerationMix, GenerationSource, GridParameters
from fleetfreq.simulator import Scenario


@pytest.mark.parametrize(
    "cfg_text, field",
    [
        ('{"grid": {"h_eff_s": NaN}}', "grid.h_eff_s"),
        ('{"grid": {"droop_pu": Infinity}}', "grid.droop_pu"),
        ('{"controller": {"latch_on": "false"}}', "controller.latch_on"),
        ('{"fleet": {"n_vehicles": 1.7}}', "fleet.n_vehicles"),
        ('{"fleet": {"strategy": 3}}', "fleet.strategy"),
        ('{"fleet": {"vehicle": {"shift_end_min": "25:00"}}}', "fleet.vehicle.shift_end_min"),
        ('{"event": {"clock_min": [1200]}}', "event.clock_min"),
        ('{"mix": [{"source": "gas", "h_seconds": NaN, "power_mw": 1}]}', "mix[1].h_seconds"),
        ('{"metrics": {"tail_fraction": "0.05"}}', "metrics.tail_fraction"),
        ('{"metrics": {"tail_fraction": 2}}', "metrics: tail_fraction"),
        ('{"metrics": {"settling_band_hz": 0}}', "metrics: settling_band_hz"),
        ('{"metrics": {"rocof_window_s": -0.5}}', "metrics: rocof_window_s"),
        ('{"sweep": {"levels": "0.2"}}', "sweep.levels"),
        ('{"sweep": {"modes": "v1g"}}', "sweep.modes"),
        ('{"sweep": {"strategies": ["immediate", "overnight"]}}', "sweep.strategies[1]"),
    ],
)
def test_bad_value_exits_2_naming_the_field(tmp_path, capsys, cfg_text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw):
    f_nominal = draw(st.sampled_from([50.0, 60.0]))
    grid = GridParameters(
        h_eff_s=draw(_floats(0.5, 10.0)),
        s_base_mw=draw(_floats(100.0, 1e5)),
        f_nominal_hz=f_nominal,
        damping_pu=draw(_floats(0.0, 5.0)),
        droop_pu=draw(_floats(0.01, 0.2)),
        t_governor_s=draw(_floats(0.05, 2.0)),
        t_turbine_s=draw(_floats(0.05, 2.0)),
        t_ev_s=draw(_floats(0.01, 1.0)),
    )
    shift_start, shift_end = draw(
        st.lists(st.integers(0, 1439), min_size=2, max_size=2, unique=True)
    )
    vehicle = VehicleClass(
        battery_kwh=draw(_floats(10.0, 2000.0)),
        charger_kw=draw(_floats(1.0, 500.0)),
        discharge_kw=draw(_floats(1.0, 500.0)),
        soc_return=draw(_floats(0.0, 1.0)),
        soc_reserve=draw(_floats(0.0, 1.0)),
        shift_start_min=float(shift_start),
        shift_end_min=float(shift_end),
        charging_efficiency=draw(_floats(0.01, 1.0)),
    )
    fleet = FleetConfig(
        n_vehicles=draw(st.integers(0, 100_000)),
        vehicle=vehicle,
        strategy=draw(st.sampled_from(list(ChargingStrategy))),
    )
    controller = ControllerConfig(
        threshold_hz=f_nominal - draw(_floats(0.01, 2.0)),
        participation=draw(_floats(0.0, 1.0)),
        mode=draw(st.sampled_from(list(ControlMode))),
        latch_on=draw(st.booleans()),
        v2g_includes_shed=draw(st.booleans()),
    )
    source = st.builds(
        GenerationSource,
        st.sampled_from(["coal", "gas", "hydro", "wind"]),
        _floats(0.1, 10.0),
        _floats(1.0, 1e4),
    )
    sources = draw(st.none() | st.lists(source, min_size=1, max_size=4))
    step_s = draw(st.sampled_from([0.001, 0.01, 0.02, 0.05]))
    horizon_s = step_s * draw(st.integers(10, 5000))
    scenario = Scenario(
        grid=grid,
        fleet=fleet,
        controller=controller,
        mix=None if sources is None else GenerationMix(tuple(sources)),
        disturbance_mw=draw(_floats(0.0, 5000.0)),
        event_time_s=draw(_floats(0.0, horizon_s * 0.99)),
        clock_min=draw(_floats(0.0, 1439.99)),
        horizon_s=horizon_s,
        step_s=step_s,
    )
    # The echo states the grid the run used, which a mix overrides.
    return replace(scenario, grid=scenario.resolved_grid())


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_scenario_config_roundtrip(scenario):
    echo = json.loads(json.dumps(scenario_to_config(scenario)))
    assert scenario_from_config(echo) == scenario
