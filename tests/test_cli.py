"""Command-line surface: CSV formats, header echo round-trips, determinism
across runs and worker counts, exit codes, and atomic output behavior."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fleetfreq
from fleetfreq.cli import FLAGS, main
from fleetfreq.config import day_profile_from_value, day_profile_to_value
from fleetfreq.controller import ControlMode
from fleetfreq.grid import CALIFORNIA_LOW_INERTIA_MIX, grid_from_preset
from fleetfreq.simulator import bundled_day_profile, default_scenario, simulate

from day_profiles import day_profile_csv_text, synthetic_california_day


REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def read_rows(path):
    """Data rows of an output CSV as list of string lists."""
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    header = data[0].split(",")
    return header, [l.split(",") for l in data[1:]]


def read_config(path):
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# config = "):
            return json.loads(line[len("# config = "):])
    raise AssertionError("no config line in output")


def column(path, name):
    header, rows = read_rows(path)
    i = header.index(name)
    return [row[i] for row in rows]


# ---------------------------------------------------------------------------
# profile


def test_profile_immediate_window(tmp_path):
    out = tmp_path / "prof.csv"
    assert main(["profile", "--out", str(out), "--strategy", "immediate"]) == 0
    header, rows = read_rows(out)
    assert header == ["clock_min", "per_vehicle_kw", "aggregate_mw", "mean_soc"]
    assert len(rows) == 96
    by_clock = {float(r[0]): float(r[1]) for r in rows}
    assert by_clock[1200.0] == 100.0  # 20:00 inside 16:00-23:00
    assert by_clock[960.0] == 100.0
    assert by_clock[1380.0] == 0.0  # 23:00, window closed
    assert by_clock[720.0] == 0.0  # noon, on shift


def test_profile_constant_strategy(tmp_path):
    out = tmp_path / "prof.csv"
    assert main(["profile", "--out", str(out), "--strategy", "constant"]) == 0
    _, rows = read_rows(out)
    for row in rows:
        clock, per_vehicle = float(row[0]), float(row[1])
        in_dwell = clock >= 960.0 or clock < 360.0
        assert per_vehicle == (50.0 if in_dwell else 0.0)


def test_profile_daily_energy_identity(tmp_path):
    for strategy in ("immediate", "delayed", "constant"):
        out = tmp_path / f"{strategy}.csv"
        assert main(["profile", "--out", str(out), "--strategy", strategy]) == 0
        mw = np.array([float(v) for v in column(out, "aggregate_mw")])
        energy_mwh = mw.sum() * 15.0 / 60.0
        assert energy_mwh == pytest.approx(15000 * 0.7, rel=1e-9)


def test_profile_roundtrip_from_header(tmp_path):
    out1 = tmp_path / "a.csv"
    assert main(["profile", "--out", str(out1), "--strategy", "delayed", "--step-min", "5"]) == 0
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(read_config(out1)), encoding="utf-8")
    out2 = tmp_path / "b.csv"
    assert main(["profile", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_profile_unknown_strategy_lists_valid(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code = main(["profile", "--out", str(out), "--strategy", "overnight"])
    assert code == 2
    err = capsys.readouterr().err
    assert "immediate" in err and "delayed" in err and "constant" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_flat_without_disturbance(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"event": {"disturbance_mw": 0.0}}), encoding="utf-8")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    f_values = set(column(out, "f_hz"))
    assert f_values == {"60.000000"}


def test_simulate_steady_state_tail(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--out", str(out), "--participation", "0"]) == 0
    header, rows = read_rows(out)
    assert header == ["t_s", "f_hz", "p_mech_pu", "p_ev_pu", "mean_soc"]
    assert len(rows) == 6001
    assert float(rows[-1][0]) == 60.0
    assert float(rows[-1][1]) == pytest.approx(59.741, abs=1e-3)


def test_simulate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--out", str(out1)]) == 0
    assert main(["simulate", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rows_are_the_trajectory_at_six_decimals(tmp_path):
    out = tmp_path / "traj.csv"
    args = ["--mode", "v2g", "--participation", "100", "--step", "0.05", "--horizon", "10"]
    assert main(["simulate", "--out", str(out), *args]) == 0
    scenario = default_scenario(step_s=0.05, horizon_s=10.0)
    scenario = replace(
        scenario,
        controller=replace(scenario.controller, mode=ControlMode.V2G, participation=1.0),
    )
    traj = simulate(scenario)
    arrays = (traj.times_s, traj.frequency_hz, traj.p_mech_pu, traj.p_ev_pu, traj.mean_soc)
    expected = [",".join(f"{x:.6f}" for x in row) for row in zip(*arrays)]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "t_s,f_hz,p_mech_pu,p_ev_pu,mean_soc"
    assert lines[3:] == expected
    assert traj.latch_time_s is not None  # the run exercises the V2G command


def test_simulate_h_preset_flag(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--out", str(out), "--h-preset", "table2_weighted"]) == 0
    cfg = read_config(out)
    assert cfg["grid"]["h_eff_s"] == pytest.approx(3.9943267776096825, rel=1e-12)
    assert cfg["grid"]["s_base_mw"] == pytest.approx(19830.0)


def test_simulate_mix_flag_derives_inertia(tmp_path):
    mix = tmp_path / "mix.csv"
    mix.write_text(
        "source,h_seconds,power_mw\ngas,5.0,10000\nwind,0,10000\n", encoding="utf-8"
    )
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--out", str(out), "--mix", str(mix)]) == 0
    cfg = read_config(out)
    assert cfg["grid"]["h_eff_s"] == pytest.approx(2.5)
    assert cfg["grid"]["s_base_mw"] == pytest.approx(20000.0)
    assert len(cfg["mix"]) == 2


@pytest.mark.parametrize("form", ["csv", "json"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("wind,0,2000", "mix: generation mix has no inertia"),
        ("gas,4.9,0", "mix: generation mix total power must be > 0 MW"),
    ],
    ids=["inverter-only", "no-power"],
)
def test_a_mix_that_cannot_set_the_grid_is_named_as_the_mix(tmp_path, capsys, form, row, message):
    # The mix sets h_eff_s and s_base_mw, so the fault is the mix's, not a
    # grid key the user never gave.
    if form == "csv":
        mix = tmp_path / "mix.csv"
        mix.write_text(f"source,h_seconds,power_mw\n{row}\n", encoding="utf-8")
        given = ["--mix", str(mix)]
    else:
        source, h_seconds, power_mw = row.split(",")
        value = [{"source": source, "h_seconds": float(h_seconds), "power_mw": float(power_mw)}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mix": value}), encoding="utf-8")
        given = ["--config", str(cfg)]
    out = tmp_path / "traj.csv"
    assert main(["simulate", *given, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "h_eff_s" not in err and "s_base_mw" not in err
    assert not out.exists()


def test_simulate_roundtrip_from_header(tmp_path):
    out1 = tmp_path / "a.csv"
    assert (
        main(
            [
                "simulate", "--out", str(out1),
                "--h-preset", "table2_weighted",
                "--participation", "60", "--mode", "v2g",
                "--strategy", "constant", "--clock", "21:30",
                "--step", "0.02", "--horizon", "20",
            ]
        )
        == 0
    )
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(read_config(out1)), encoding="utf-8")
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("clock", [(), ("--clock", "12:00")], ids=["plugged", "on-shift"])
def test_simulate_infeasible_fleet_exit_3(tmp_path, capsys, clock):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"fleet": {"vehicle": {"battery_kwh": 3000.0}}}), encoding="utf-8"
    )
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), *clock])
    assert code == 3
    assert "deficit" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid": {"h_eff": 5}}', encoding="utf-8")  # misspelled key
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not out.exists()


# A JSON true, false or null is named as JSON spells it, not as Python does.
@pytest.mark.parametrize(
    "command, config, message",
    [
        ("simulate", {"fleet": {"n_vehicles": True}}, "n_vehicles must be a finite number, got true"),
        ("simulate", {"fleet": {"n_vehicles": None}}, "n_vehicles must be a finite number, got null"),
        ("simulate", {"controller": {"latch_on": None}}, "latch_on must be true or false, got null"),
        ("simulate", {"controller": {"mode": False}}, "controller.mode: unknown mode false"),
        (
            "simulate",
            {"mix": [{"source": "gas", "h_seconds": 4.9}]},
            "mix[1].power_mw must be a finite number, got null",
        ),
        (
            "simulate",
            {"mix": [{"source": None, "h_seconds": 4.9, "power_mw": 8000.0}]},
            "mix[1].source must be a non-empty string, got null",
        ),
        ("sweep", {"sweep": {"levels": False}}, "sweep.levels must be a list, got false"),
    ],
)
def test_a_json_literal_is_named_as_json(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A step count that overflows to inf, or that rounds to 0, does not divide
# its span: exit 2 naming the keys, with no traceback and no output.
@pytest.mark.parametrize(
    "command, flag, value",
    [
        *(
            (command, flag, value)
            for command in ("simulate", "sweep", "daily")
            for flag, value in (("--horizon", "1e308"), ("--step", "1e-320"))
        ),
        ("profile", "--step-min", "1e-320"),
        ("profile", "--step-min", "1e13"),
    ],
)
def test_a_step_count_that_is_not_whole_exit_2(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    assert main([command, flag, value, "--out", str(out)]) == 2
    message = (
        "profile: step_min must divide 24 h"
        if command == "profile"
        else "event: step_s must divide horizon_s"
    )
    assert message in capsys.readouterr().err
    assert not out.exists()


# Runs fleetfreq.cli.main(argv) in an interpreter where importing numpy
# raises ImportError, and exits with its code.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import fleetfreq, fleetfreq.cli
sys.exit(fleetfreq.cli.main(sys.argv[1:]))
"""


def run_python(*argv, drop=()):
    """A fresh interpreter run with argv, fleetfreq's source on its path and
    the environment variables named in drop removed."""
    path = [str(Path(fleetfreq.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name in drop:
        env.pop(name, None)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def run_without_numpy(*argv):
    return run_python("-c", WITHOUT_NUMPY, *argv)


NUMPY_FREE = {
    "simulate": (
        ["--config", str(REFERENCE_CONFIG), "--mode", "v2g", "--participation", "100"],
        '{"event": {"step_s": -1}}',
        "event: step_s must be > 0",
    ),
    "profile": (
        ["--config", str(REFERENCE_CONFIG), "--strategy", "delayed", "--step-min", "5"],
        '{"profile": {"step_min": -1}}',
        "profile: step_min must be > 0",
    ),
}


@pytest.mark.parametrize("command", list(NUMPY_FREE))
def test_simulate_runs_without_numpy(command, tmp_path):
    # simulate, profile and their exit-2 paths load no numpy: only a grid or
    # a metric does.
    args, bad_config, message = NUMPY_FREE[command]
    plain, bare = tmp_path / "plain.csv", tmp_path / "bare.csv"
    assert main([command, *args, "--out", str(plain)]) == 0
    run = run_without_numpy(command, *args, "--out", str(bare))
    assert run.returncode == 0, run.stderr
    assert bare.read_bytes() == plain.read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(bad_config, encoding="utf-8")
    run = run_without_numpy(command, "--config", str(cfg), "--out", str(tmp_path / "bad.csv"))
    assert run.returncode == 2
    assert message in run.stderr


def test_simulate_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "traj.csv"
    assert main(["simulate", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp" not in err


def test_simulate_divergence_exit_4(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"event": {"step_s": 1.0, "horizon_s": 600.0}}), encoding="utf-8"
    )
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    assert "non-finite state" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_clock_accepts_plain_minutes(tmp_path):
    minutes, hhmm = tmp_path / "minutes.csv", tmp_path / "hhmm.csv"
    common = ["simulate", "--horizon", "10", "--participation", "100"]
    assert main([*common, "--out", str(minutes), "--clock", "1200"]) == 0
    assert main([*common, "--out", str(hhmm), "--clock", "20:00"]) == 0
    assert minutes.read_bytes() == hhmm.read_bytes()


@pytest.mark.parametrize("clock", ["1440", "-5", "nan"])
def test_simulate_bad_clock_exit_2(tmp_path, capsys, clock):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--out", str(out), f"--clock={clock}"]) == 2
    assert "clock" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_checks_the_metrics_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"metrics": {"tail_fraction": 2}}', encoding="utf-8")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "metrics: tail_fraction" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, threshold, nominal",
    [
        ({"controller": {"threshold_hz": 60}}, "60.0", "60.0"),
        ({"controller": {"threshold_hz": 61}}, "61.0", "60.0"),
        ({"grid": {"f_nominal_hz": 1e-300}}, "59.7", "1e-300"),
    ],
    ids=["at", "above", "tiny-nominal"],
)
def test_threshold_at_or_above_nominal_names_both_keys(tmp_path, capsys, config, threshold, nominal):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert (
        f"controller.threshold_hz ({threshold}) must be below grid.f_nominal_hz ({nominal})"
        in capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["mix", "day_profile"])
def test_non_finite_csv_number_exit_2_naming_the_row(tmp_path, capsys, kind, value):
    out = tmp_path / "out.csv"
    if kind == "mix":
        path = tmp_path / "mix.csv"
        path.write_text(
            f"source,h_seconds,power_mw\ngas,{value},10000\nwind,0,10000\n",
            encoding="utf-8",
        )
        args = ["simulate", "--out", str(out), "--mix", str(path)]
        row, column = "data row 1", "h_seconds"
    else:
        lines = day_profile_csv_text(bundled_day_profile()).splitlines()
        cells = lines[5].split(",")
        cells[5] = value  # wind_solar_mw of data row 5
        lines[5] = ",".join(cells)
        path = tmp_path / "day.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = daily_args(out, ["--day-profile", str(path)])
        row, column = "data row 5", "wind_solar_mw"
    assert main(args) == 2
    err = capsys.readouterr().err
    assert path.name in err and row in err
    assert f"{column} must be a finite number, got {value}" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def sweep_args(tmp_path, out_name, extra=()):
    out = tmp_path / out_name
    args = [
        "sweep", "--out", str(out),
        "--levels", "20,40,60,80,100",
        "--modes", "v1g,v2g",
        "--strategy", "immediate",
        "--h-preset", "table2_weighted",
    ]
    args.extend(extra)
    return out, args


def test_sweep_grid_cardinality_and_order(tmp_path):
    out, args = sweep_args(tmp_path, "sweep.csv")
    assert main(args) == 0
    header, rows = read_rows(out)
    assert header[:5] == ["scenario_id", "mode", "participation", "strategy", "clock_min"]
    assert len(rows) == 10
    ids = [r[0] for r in rows]
    assert ids == sorted(ids) or ids[0].startswith("immediate-v1g")
    assert ids[0] == "immediate-v1g-p020"
    assert ids[-1] == "immediate-v2g-p100"


def test_sweep_nadir_monotone_and_mode_dominant(tmp_path):
    out, args = sweep_args(tmp_path, "sweep.csv")
    assert main(args) == 0
    header, rows = read_rows(out)
    nadir_i = header.index("nadir_hz")
    v1g = [float(r[nadir_i]) for r in rows if r[1] == "v1g"]
    v2g = [float(r[nadir_i]) for r in rows if r[1] == "v2g"]
    assert v1g == sorted(v1g)
    for lo, hi in zip(v1g, v2g):
        assert hi >= lo


def test_sweep_deterministic_across_workers(tmp_path):
    out1, args1 = sweep_args(tmp_path, "w1.csv", ["--workers", "1"])
    out2, args2 = sweep_args(tmp_path, "w2.csv", ["--workers", "2"])
    assert main(args1) == 0
    assert main(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_roundtrip_from_header(tmp_path):
    out1, args = sweep_args(tmp_path, "a.csv", ["--step", "0.02", "--horizon", "20"])
    assert main(args) == 0
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(read_config(out1)), encoding="utf-8")
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_minus_zero_level_reads_as_zero(tmp_path):
    out1 = tmp_path / "a.csv"
    args = [
        "sweep", "--config", str(REFERENCE_CONFIG), "--levels=-0", "--modes", "v1g",
        "--strategy", "immediate", "--step", "0.05", "--horizon", "10",
    ]
    assert main([*args, "--out", str(out1)]) == 0
    assert column(out1, "participation") == ["0.000000"]
    assert '"levels":[0.0]' in out1.read_text(encoding="utf-8")
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(read_config(out1)), encoding="utf-8")
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_workers_must_be_positive(tmp_path, capsys):
    out, args = sweep_args(tmp_path, "sweep.csv", ["--workers", "-3"])
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "daily"])
def test_grid_levels_sharing_a_scenario_id_rejected(tmp_path, capsys, command):
    out = tmp_path / "grid.csv"
    code = main([command, "--out", str(out), "--levels", "20,20.4", "--modes", "v1g"])
    assert code == 2
    assert "p020" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, first_id",
    [("sweep", "immediate-v1g-p020"), ("daily", "immediate-v1g-p020-m0000")],
)
def test_grid_divergence_exit_4_names_the_cell(tmp_path, capsys, command, first_id):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "event": {"step_s": 1.0, "horizon_s": 600.0},
                "metrics": {"rocof_window_s": 2.0},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"integration failed: {first_id}: non-finite state at step" in err
    assert not out.exists()


def test_sweep_default_grid_is_30_cells(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), "--step", "0.05", "--horizon", "10"]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 30  # 3 strategies x 2 modes x 5 levels


def test_sweep_of_an_empty_fleet_runs_at_the_charging_peak(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fleet": {"n_vehicles": 0}}', encoding="utf-8")
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--config", str(cfg), "--out", str(out), "--levels", "0,100"]
    assert main(args + ["--step", "0.05", "--horizon", "10"]) == 0
    header, rows = read_rows(out)
    assert len(rows) == 12  # 3 strategies x 2 modes x 2 levels
    metrics = header.index("nadir_hz")
    assert {tuple(r[metrics:]) for r in rows} == {tuple(rows[0][metrics:])}


# ---------------------------------------------------------------------------
# daily


def daily_args(out, extra=()):
    args = [
        "daily", "--out", str(out),
        "--levels", "100", "--modes", "v1g",
        "--step", "0.05", "--horizon", "10",
    ]
    args.extend(extra)
    return args


def test_daily_bundled_profile_row_count(tmp_path):
    out = tmp_path / "daily.csv"
    assert main(daily_args(out)) == 0
    header, rows = read_rows(out)
    assert len(rows) == 96
    clocks = [float(r[header.index("clock_min")]) for r in rows]
    assert clocks == [15.0 * i for i in range(96)]


def test_daily_on_shift_equals_zero_participation(tmp_path):
    out_full = tmp_path / "full.csv"
    out_none = tmp_path / "none.csv"
    assert main(daily_args(out_full)) == 0
    assert main(daily_args(out_none, ["--levels", "0"])) == 0
    header, rows_full = read_rows(out_full)
    _, rows_none = read_rows(out_none)
    nadir_i = header.index("nadir_hz")
    clock_i = header.index("clock_min")
    for full, none in zip(rows_full, rows_none):
        clock = float(full[clock_i])
        if 360.0 <= clock < 960.0:  # fleet on shift, nothing plugged
            assert full[nadir_i] == none[nadir_i]


@pytest.mark.parametrize(
    "flag, value",
    [("--mix", "mix.csv"), ("--h-preset", "table2_weighted"), ("--clock", "03:00")],
)
def test_daily_has_no_inertia_flags(tmp_path, capsys, flag, value):
    # Each day-profile row sets its cell's mix and clock, so these flags
    # would change only the echoed header.
    out = tmp_path / "daily.csv"
    with pytest.raises(SystemExit) as exc:
        main(daily_args(out, [flag, value]))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_daily_duplicate_clock_rejected(tmp_path, capsys):
    text = day_profile_csv_text(bundled_day_profile())
    lines = text.splitlines()
    lines[10] = lines[9]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "daily.csv"
    code = main(daily_args(out, ["--day-profile", str(bad)]))
    assert code == 2
    err = capsys.readouterr().err
    assert "duplicate clock_min" in err and "row" in err
    assert not out.exists()


@pytest.mark.parametrize("form", ["csv", "json"])
def test_daily_row_without_inertia_is_named_by_its_row(tmp_path, capsys, form):
    # Row 38 (09:15) keeps its wind and solar and loses every inertial source.
    rows = day_profile_to_value(bundled_day_profile())
    for source in CALIFORNIA_LOW_INERTIA_MIX.sources:
        if source.inertia_s > 0.0:
            rows[37][f"{source.name}_mw"] = 0.0
    assert rows[37]["wind_solar_mw"] > 0.0
    if form == "csv":
        day = tmp_path / "day.csv"
        lines = [",".join(rows[0]), *(",".join(map(repr, row.values())) for row in rows)]
        day.write_text("\n".join(lines) + "\n", encoding="utf-8")
        given, where = ["--day-profile", str(day)], f"day_profile: {day}: data row 38: "
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"daily": {"day_profile": rows}}), encoding="utf-8")
        given, where = ["--config", str(cfg)], "day_profile[38]: "
    out = tmp_path / "daily.csv"
    assert main(daily_args(out, given)) == 2
    err = capsys.readouterr().err
    assert f"config error: {where}generation mix has no inertia" in err
    assert "h_eff_s" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("sweep", {}, ["--levels", "150"], "sweep: participation level 1.5 outside [0, 1]"),
        ("sweep", {"sweep": {"modes": []}}, [], "sweep: modes must be nonempty"),
        ("sweep", {"sweep": {"strategies": []}}, [], "sweep: strategies must be nonempty"),
        ("daily", {"daily": {"levels": []}}, [], "daily: levels must be nonempty"),
        ("daily", {}, ["--levels", "-5"], "daily: participation level -0.05 outside [0, 1]"),
    ],
)
def test_a_bad_grid_axis_is_named_by_its_section(tmp_path, capsys, command, config, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_daily_profile_csv_equals_its_json_echo(tmp_path):
    out = tmp_path / "daily.csv"
    assert main(daily_args(out)) == 0
    echoed = read_config(out)["daily"]["day_profile"]
    assert day_profile_from_value(echoed) == bundled_day_profile()


def test_daily_json_duplicate_clock_rejected(tmp_path, capsys):
    out = tmp_path / "daily.csv"
    assert main(daily_args(out)) == 0
    cfg = read_config(out)
    rows = cfg["daily"]["day_profile"]
    rows[9]["clock_min"] = rows[8]["clock_min"]
    cfg_path = tmp_path / "dup.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out2 = tmp_path / "dup.csv"
    assert main(["daily", "--config", str(cfg_path), "--out", str(out2)]) == 2
    err = capsys.readouterr().err
    assert "duplicate clock_min" in err and "row 10" in err
    assert not out2.exists()


def test_daily_wrong_row_count_rejected(tmp_path, capsys):
    text = day_profile_csv_text(bundled_day_profile())
    lines = text.splitlines()
    del lines[20:30]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "daily.csv"
    assert main(daily_args(out, ["--day-profile", str(bad)])) == 2
    assert "96" in capsys.readouterr().err


def test_daily_roundtrip_from_header(tmp_path):
    out1 = tmp_path / "a.csv"
    assert main(daily_args(out1)) == 0
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(read_config(out1)), encoding="utf-8")
    out2 = tmp_path / "b.csv"
    assert main(["daily", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_daily_2000_rows_match_sweep(tmp_path):
    # At 20:00 the bundled day profile is the reference mix, so the daily
    # cells there are the immediate-strategy sweep cells.
    common = ["--config", str(REFERENCE_CONFIG), "--horizon", "10", "--levels", "100"]
    daily, sweep = tmp_path / "daily.csv", tmp_path / "sweep.csv"
    assert main(["daily", "--out", str(daily), *common]) == 0
    assert main(["sweep", "--out", str(sweep), "--strategy", "immediate", *common]) == 0
    header, daily_rows = read_rows(daily)
    _, sweep_rows = read_rows(sweep)
    clock_i = header.index("clock_min")
    nadir_i = header.index("nadir_hz")
    at_2000 = {
        (r[1], r[2]): r[nadir_i:] for r in daily_rows if float(r[clock_i]) == 1200.0
    }
    assert len(sweep_rows) == len(at_2000) == 2
    for r in sweep_rows:
        assert at_2000[(r[1], r[2])] == r[nadir_i:]


# ---------------------------------------------------------------------------
# flags


def flag_case(command, flag, tmp_path):
    """A flag's text and the config that gives its converted value."""
    if flag == "--mix":
        path = tmp_path / "mix.csv"
        path.write_text(
            "source,h_seconds,power_mw\ngas,5.0,10000\nwind,0,10000\n", encoding="utf-8"
        )
        return str(path), {"mix": str(path)}
    if flag == "--day-profile":
        path = tmp_path / "day.csv"
        path.write_text(
            day_profile_csv_text(synthetic_california_day(5000.0)), encoding="utf-8"
        )
        return str(path), {"daily": {"day_profile": str(path)}}
    if flag == "--h-preset":
        grid = grid_from_preset("table2_weighted")
        keys = {"h_eff_s": grid.h_eff_s, "s_base_mw": grid.s_base_mw}
        return "table2_weighted", {"grid": keys}
    if flag == "--strategy" and command == "sweep":
        return "delayed,constant", {"sweep": {"strategies": ["delayed", "constant"]}}
    return {
        "--step": ("0.04", {"event": {"step_s": 0.04}}),
        "--horizon": ("8", {"event": {"horizon_s": 8.0}}),
        "--clock": ("21:30", {"event": {"clock_min": 1290.0}}),
        "--strategy": ("delayed", {"fleet": {"strategy": "delayed"}}),
        "--mode": ("v2g", {"controller": {"mode": "v2g"}}),
        "--participation": ("60", {"controller": {"participation": 0.6}}),
        "--levels": ("30,70", {command: {"levels": [0.3, 0.7]}}),
        "--modes": ("v2g", {command: {"modes": ["v2g"]}}),
        "--step-min": ("5", {"profile": {"step_min": 5.0}}),
    }[flag]


@pytest.mark.parametrize(
    "command, flag", [(c, f.flag) for c, flags in FLAGS.items() for f in flags]
)
def test_flag_equals_its_config_key(tmp_path, command, flag):
    base = {}
    if command != "profile":
        base["event"] = {"step_s": 0.05, "horizon_s": 10.0}
    if command in ("sweep", "daily"):
        base[command] = {"levels": [1.0], "modes": ["v1g"]}
    text, given = flag_case(command, flag, tmp_path)
    merged = {name: dict(value) for name, value in base.items()}
    for name, value in given.items():
        if isinstance(value, dict):
            merged.setdefault(name, {}).update(value)
        else:
            merged[name] = value
    base_cfg, merged_cfg = tmp_path / "base.json", tmp_path / "merged.json"
    base_cfg.write_text(json.dumps(base), encoding="utf-8")
    merged_cfg.write_text(json.dumps(merged), encoding="utf-8")
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    assert main([command, "--config", str(base_cfg), flag, text, "--out", str(by_flag)]) == 0
    assert main([command, "--config", str(merged_cfg), "--out", str(by_config)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()


# ---------------------------------------------------------------------------
# process


SMALL_SWEEP = [
    "sweep", "--config", str(REFERENCE_CONFIG), "--levels", "100", "--modes", "v1g",
    "--strategy", "immediate", "--step", "0.05", "--horizon", "10",
]


def test_cli_program_exit_codes(tmp_path):
    # python -m fleetfreq.cli runs entry(), as the console script does.
    by_main, by_program = tmp_path / "main.csv", tmp_path / "program.csv"
    assert main([*SMALL_SWEEP, "--out", str(by_main)]) == 0
    run = run_python("-m", "fleetfreq.cli", *SMALL_SWEEP, "--out", str(by_program))
    assert run.returncode == 0, run.stderr
    assert by_program.read_bytes() == by_main.read_bytes()

    missing = tmp_path / "missing.json"
    run = run_python(
        "-m", "fleetfreq.cli", "sweep", "--config", str(missing), "--out", str(tmp_path / "x.csv")
    )
    assert run.returncode == 2
    assert "config error" in run.stderr


@pytest.mark.parametrize("given", [None, "3"])
def test_main_sets_one_blas_thread_unless_given(tmp_path, monkeypatch, given):
    # setenv first, so that the undo also removes the value main sets.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main([*SMALL_SWEEP, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == (given or "1")


# Runs fleetfreq.cli.main(argv), checks that it loaded numpy, and prints the
# number of the process's threads.
COUNT_THREADS = """
import os, sys
import fleetfreq.cli
code = fleetfreq.cli.main(sys.argv[1:])
assert "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")))
sys.exit(code)
"""


def test_grid_run_loads_numpy_without_a_blas_worker(tmp_path):
    # OpenBLAS starts no worker thread on a single CPU, and only Linux lists
    # a process's threads under /proc/self/task.
    if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs /proc/self/task and at least 2 CPUs")
    # An in-process main may have set OPENBLAS_NUM_THREADS in this process.
    run = run_python(
        "-c", COUNT_THREADS, *SMALL_SWEEP, "--out", str(tmp_path / "sweep.csv"),
        drop=("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1"
