"""Config sections: typed coercion of every field, bad values rejected with
exit 2 and the field named, and the scenario echo round trip."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fleetfreq.cli import main
from fleetfreq.config import (
    day_profile_from_value,
    day_profile_to_value,
    mix_from_value,
    scenario_from_config,
    scenario_to_config,
)
from fleetfreq.controller import ControlMode, ControllerConfig
from fleetfreq.fleet import ChargingStrategy, FleetConfig, VehicleClass
from fleetfreq.grid import GenerationMix, GenerationSource, GridParameters
from fleetfreq.simulator import Scenario, bundled_day_profile

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


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
        ('{"sweep": {"strategies": ["immediate", "overnight"]}}', "sweep.strategies[2]"),
        ('{"mix": [{"h_seconds": 5, "power_mw": 1}]}', "mix[1].source"),
        ('{"mix": [{"source": 7, "h_seconds": 5, "power_mw": 1}]}', "mix[1].source"),
        ('{"fleet": {"n_vehicles": 5}, "fleet": {"strategy": "delayed"}}', "key 'fleet'"),
        ('{"grid": {"h_eff_s": 5, "h_eff_s": 6}}', "key 'h_eff_s'"),
        ('{"profile": {"step_min": 7}}', "profile: step_min"),
        ('{"profile": {"step_min": -1}}', "profile: step_min"),
        (
            '{"event": {"horizon_s": 10}, "metrics": {"rocof_window_s": 100}}',
            "metrics.rocof_window_s",
        ),
        (
            '{"event": {"step_s": 0.05, "horizon_s": 10}, "metrics": {"rocof_window_s": 0.05}}',
            "metrics.rocof_window_s",
        ),
        ('{"event": {"event_time_s": 9.9, "horizon_s": 10}}', "metrics.rocof_window_s"),
    ],
)
def test_bad_value_exits_2_naming_the_field(tmp_path, capsys, cfg_text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / "out.csv"
    command = "profile" if '"profile"' in cfg_text else "sweep"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
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
    # The echo states the grid the run used: with a mix, the one it derives.
    return Scenario(
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


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_scenario_config_roundtrip(scenario):
    echo = json.loads(json.dumps(scenario_to_config(scenario)))
    assert scenario_from_config(echo) == scenario


# ---------------------------------------------------------------------------
# tables: the same rows as a CSV file and as JSON rows

MISSING = object()
MIX_ROWS = [
    {"source": "gas", "h_seconds": 4.9, "power_mw": 8000.0},
    {"source": "wind", "h_seconds": 0.0, "power_mw": 2000.0},
]


def both_forms(tmp_path, rows, column=None, json_cell=None, csv_cell=None):
    """The rows as JSON rows and as a CSV file, with one cell of the first
    row replaced (MISSING drops the JSON key and the CSV column)."""
    json_rows, csv_rows = [dict(r) for r in rows], [dict(r) for r in rows]
    if json_cell is MISSING:
        del json_rows[0][column]
        for row in csv_rows:
            del row[column]
    elif column is not None:
        json_rows[0][column], csv_rows[0][column] = json_cell, csv_cell
    lines = [",".join(csv_rows[0]), *(",".join(map(str, r.values())) for r in csv_rows)]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return json_rows, path


def read_both(read, json_rows, path) -> list[str]:
    """The error text that reading each form raised."""
    errors = []
    for value in (json_rows, path):
        with pytest.raises(ValueError) as exc:
            read(value)
        errors.append(str(exc.value))
    return errors


def number_cells(column):
    """Bad number cells (JSON, CSV) and the text both errors must hold. A
    CSV cell is text, so a JSON string "5" is matched with the CSV "abc"."""
    found = f"{column} must be a finite number, got"
    return [
        (column, float("nan"), "nan", f"{found} nan"),
        (column, "abc", "abc", f"{found} 'abc'"),
        (column, "5", "abc", found),
        (column, MISSING, MISSING, column),
    ]


def test_mix_and_day_profile_read_equal_from_both_forms(tmp_path):
    json_rows, path = both_forms(tmp_path, MIX_ROWS)
    mix = GenerationMix(
        (GenerationSource("gas", 4.9, 8000.0), GenerationSource("wind", 0.0, 2000.0))
    )
    assert mix_from_value(json_rows) == mix_from_value(path) == mix
    day = bundled_day_profile()
    json_rows, path = both_forms(tmp_path, day_profile_to_value(day))
    assert day_profile_from_value(json_rows) == day_profile_from_value(path) == day


@pytest.mark.parametrize(
    "column, json_cell, csv_cell, found",
    [
        ("source", " ", " ", "source must be a non-empty string, got ' '"),
        *number_cells("h_seconds"),
        *number_cells("power_mw"),
    ],
)
def test_bad_mix_cell_named_alike_in_both_forms(tmp_path, column, json_cell, csv_cell, found):
    json_rows, path = both_forms(tmp_path, MIX_ROWS, column, json_cell, csv_cell)
    from_json, from_csv = read_both(mix_from_value, json_rows, path)
    assert found in from_json and found in from_csv
    if json_cell is not MISSING:
        assert from_json.startswith(f"mix[1].{column}")
        assert f"data row 1: {column}" in from_csv


@pytest.mark.parametrize("column, json_cell, csv_cell, found", number_cells("wind_solar_mw"))
def test_bad_day_profile_cell_named_alike_in_both_forms(
    tmp_path, column, json_cell, csv_cell, found
):
    rows = day_profile_to_value(bundled_day_profile())
    json_rows, path = both_forms(tmp_path, rows, column, json_cell, csv_cell)
    from_json, from_csv = read_both(day_profile_from_value, json_rows, path)
    assert found in from_json and found in from_csv
    if json_cell is not MISSING:
        assert from_json.startswith(f"day_profile[1].{column}")
        assert f"data row 1: {column}" in from_csv


def test_source_names_are_stripped_in_both_forms(tmp_path):
    json_rows, path = both_forms(tmp_path, [dict(MIX_ROWS[0], source=" gas ")])
    mix = GenerationMix((GenerationSource("gas", 4.9, 8000.0),))
    assert mix_from_value(json_rows) == mix_from_value(path) == mix


@pytest.mark.parametrize("key", ["h_eff_s", "s_base_mw"])
def test_grid_value_against_the_mix_exits_2(tmp_path, capsys, key):
    cfg = json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    cfg["grid"] = {key: 1000.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert f"grid.{key} is 1000.0, but the mix gives" in capsys.readouterr().err
    assert not out.exists()


def test_h_preset_against_the_mix_exits_2(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    args = ["simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out)]
    assert main([*args, "--h-preset", "table2_reported"]) == 2
    err = capsys.readouterr().err
    assert "grid.h_eff_s is 6.4, but the mix gives 3.99432677760968" in err
    assert not out.exists()


def test_h_preset_equal_to_the_mix_is_accepted(tmp_path):
    plain, preset = tmp_path / "plain.csv", tmp_path / "preset.csv"
    args = ["simulate", "--config", str(REFERENCE_CONFIG), "--horizon", "10"]
    assert main([*args, "--out", str(plain)]) == 0
    assert main([*args, "--out", str(preset), "--h-preset", "table2_weighted"]) == 0
    assert plain.read_bytes() == preset.read_bytes()
