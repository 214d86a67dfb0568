"""Command-line surface: CSV formats, header echo round-trips, determinism
across runs and worker counts, exit codes, and atomic output behavior."""

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import fleetfreq
from fleetfreq.cli import FLAGS, main, write_atomic
from fleetfreq.config import day_profile_from_value, day_profile_to_value
from fleetfreq.controller import ControlMode
from fleetfreq.grid import CALIFORNIA_LOW_INERTIA_MIX, grid_from_preset
from fleetfreq.simulator import (
    BUNDLED_DAY_PROFILE,
    bundled_day_profile,
    default_scenario,
    simulate,
)

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
        message = message.replace("mix: ", f"mix: {mix}: ", 1)  # a CSV is named by its file
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


# Spreadsheets save CSV with a byte-order mark and CRLF line ends, and may
# leave lines of blank cells; the table read from them is the plain file's.
@pytest.mark.parametrize(
    "saved",
    [
        "\ufeffsource,h_seconds,power_mw\r\ngas,4.9,8000\r\nwind,0,2000\r\n",
        "source,h_seconds,power_mw\ngas,4.9,8000\n   \nwind,0,2000\n",
        "source,h_seconds,power_mw\ngas,4.9,8000\n,,\nwind,0,2000\n",
    ],
    ids=["bom-crlf", "spaces-line", "commas-line"],
)
def test_a_spreadsheet_mix_csv_runs_as_the_plain_one(tmp_path, saved):
    plain = "source,h_seconds,power_mw\ngas,4.9,8000\nwind,0,2000\n"
    outs = []
    for name, text in [("plain", plain), ("saved", saved)]:
        mix = tmp_path / f"{name}.csv"
        mix.write_bytes(text.encode("utf-8"))
        out = tmp_path / f"{name}-traj.csv"
        args = ["simulate", "--mix", str(mix), "--step", "0.05", "--horizon", "10"]
        assert main([*args, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_a_mix_csv_that_is_not_utf8_is_named_by_its_file(tmp_path, capsys):
    mix = tmp_path / "mix.csv"
    mix.write_bytes("# café\nsource,h_seconds,power_mw\ngas,4.9,8000\n".encode("latin-1"))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--mix", str(mix), "--out", str(out)]) == 2
    assert f"config error: mix: {mix}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_named_by_its_file(tmp_path, capsys):
    cfg = tmp_path / "lat.json"
    cfg.write_bytes('{"mix": "café.csv"}'.encode("latin-1"))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"fleetfreq: config error: config {cfg}: not UTF-8 text (byte 0xe9)\n"
    assert not out.exists()


def test_a_config_saved_with_a_byte_order_mark_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes("\ufeff".encode("utf-8") + REFERENCE_CONFIG.read_bytes())
    outs = []
    for name, path in [("plain", REFERENCE_CONFIG), ("bom", cfg)]:
        out = tmp_path / f"{name}.csv"
        args = ["simulate", "--config", str(path), "--step", "0.05", "--horizon", "10"]
        assert main([*args, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


# List items count from 1, as table rows and CSV data rows do.
@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sweep", {"sweep": {"levels": [0.5, None]}}, "sweep.levels[2] must be a finite number"),
        (
            "simulate",
            {
                "mix": [
                    {"source": "gas", "h_seconds": 4.9, "power_mw": 8000.0},
                    {"source": "wind", "h_seconds": 0.0},
                ]
            },
            "mix[2].power_mw must be a finite number",
        ),
    ],
)
def test_the_second_item_is_named_2(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A null section is not an object, so it is rejected as any other non-object
# section is; only the mix, a table, may be null.
@pytest.mark.parametrize(
    "command, section", [("simulate", "fleet"), ("simulate", "event"), ("sweep", "sweep")]
)
def test_a_null_section_exit_2_naming_it(tmp_path, capsys, command, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: None}), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: section '{section}' must be an object" in capsys.readouterr().err
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


def python_env(drop=()) -> dict:
    """This environment with fleetfreq's source on the path and the
    variables named in drop removed."""
    path = [str(Path(fleetfreq.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name in drop:
        env.pop(name, None)
    return env


def run_python(*argv, drop=(), timeout=120):
    """A fresh interpreter run with argv in python_env(drop)."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=python_env(drop),
        timeout=timeout,
    )


def run_without_numpy(*argv):
    return run_python("-c", WITHOUT_NUMPY, *argv)


# More steps than a run may take exit 2, naming the keys and the cap, before
# any step and with no output. In a fresh interpreter, so that a run without
# the cap fails the test at the timeout rather than running on.
@pytest.mark.parametrize(
    "command, flag, value, keys",
    [
        *(
            (command, "--horizon", "1e9", "event: horizon_s / step_s is 100,000,000,000 steps")
            for command in ("simulate", "sweep", "daily")
        ),
        ("profile", "--step-min", "1e-9", "profile: 24 h / step_min is 1,440,000,000,000 steps"),
    ],
)
def test_a_run_over_the_step_cap_exit_2(tmp_path, command, flag, value, keys):
    out = tmp_path / "out.csv"
    run = run_python("-m", "fleetfreq.cli", command, flag, value, "--out", str(out), timeout=30)
    assert run.returncode == 2, run.stderr
    assert f"{keys}; a run may take at most 10,000,000" in run.stderr
    assert list(tmp_path.iterdir()) == []


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
    # The rows before the divergence went to a temp file, which is gone.
    assert list(tmp_path.iterdir()) == [cfg]


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
    err = capsys.readouterr().err
    assert "p020" in err
    assert f"config error: {command}: " in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "daily"])
def test_a_repeated_grid_mode_is_named_by_its_section(tmp_path, capsys, command):
    out = tmp_path / "grid.csv"
    code = main([command, "--out", str(out), "--levels", "20", "--modes", "v1g,V1G"])
    assert code == 2
    assert f"config error: {command}: grid cells share scenario_id 'immediate-v1g-p020" in (
        capsys.readouterr().err
    )
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


def test_a_day_profile_saved_by_a_spreadsheet_runs_as_the_bundled_one(tmp_path):
    bundled = tmp_path / "bundled.csv"
    assert main(daily_args(bundled)) == 0
    text = resources.files("fleetfreq").joinpath("data", BUNDLED_DAY_PROFILE).read_bytes()
    day = tmp_path / "day.csv"
    day.write_bytes(b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"))
    out = tmp_path / "daily.csv"
    assert main(daily_args(out, ["--day-profile", str(day)])) == 0
    assert out.read_bytes() == bundled.read_bytes()  # the header echoes the rows as JSON


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


# DayProfile's own checks (the row count, each clock) name the table as its
# cell errors do: by its file for a CSV, as day_profile for JSON rows.
@pytest.mark.parametrize("form", ["csv", "json"])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("short", "day profile needs exactly 96 rows, got 43"),
        ("duplicate", "day profile row 10: duplicate clock_min 120 (first at row 9)"),
        ("off-grid", "day profile row 4: expected clock_min 45, got 46"),
    ],
)
def test_a_day_profile_shape_error_names_the_table(tmp_path, capsys, form, fault, message):
    rows = day_profile_to_value(bundled_day_profile())
    if fault == "short":
        rows = rows[:43]
    elif fault == "duplicate":
        rows[9]["clock_min"] = rows[8]["clock_min"]
    else:
        rows[3]["clock_min"] = 46.0
    if form == "csv":
        day = tmp_path / "day.csv"
        lines = [",".join(rows[0]), *(",".join(map(repr, row.values())) for row in rows)]
        day.write_text("\n".join(lines) + "\n", encoding="utf-8")
        given, where = ["--day-profile", str(day)], f"day_profile: {day}: "
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"daily": {"day_profile": rows}}), encoding="utf-8")
        given, where = ["--config", str(cfg)], "day_profile: "
    out = tmp_path / "daily.csv"
    assert main(daily_args(out, given)) == 2
    assert f"config error: {where}{message}\n" in capsys.readouterr().err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# writing


def test_a_failure_while_making_lines_leaves_no_file(tmp_path):
    def lines():
        yield "1\n"
        yield "2\n"
        raise ValueError("bad row")

    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="bad row"):
        write_atomic(out, "# header\n", lines())
    assert list(tmp_path.iterdir()) == []

    out.write_text("kept\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad row"):
        write_atomic(out, "# header\n", lines())
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text(encoding="utf-8") == "kept\n"


def _traced_peak(argv) -> int:
    """Traced bytes main(argv) allocates at its peak, above what it started with."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    assert main(argv) == 0
    return tracemalloc.get_traced_memory()[1] - before


def test_simulate_memory_does_not_grow_with_samples(tmp_path):
    # Each sample is stepped, formatted and written before the next, so no
    # trajectory exists: 60,000 more samples add less than 2 B each, where
    # a trajectory's five array('d') entries would add 40 B.
    def run(step):
        return _traced_peak(["simulate", "--step", step, "--out", str(tmp_path / "traj.csv")])

    tracemalloc.start()
    try:
        run("0.01")  # warm-up: imports and first-use caches
        extra = run("0.0005") - run("0.001")
    finally:
        tracemalloc.stop()
    assert extra < 2 * 60_000, extra / 60_000


def test_sigterm_during_a_streamed_simulate_leaves_no_file(tmp_path):
    # A run of 10,000,001 samples, stopped once its temp file exists: the
    # rows stream into that file while the run steps.
    out = tmp_path / "big.csv"
    argv = ["simulate", "--step", "0.0001", "--horizon", "1000", "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "fleetfreq.cli", *argv], env=python_env(), stderr=subprocess.PIPE
    )
    try:
        deadline = time.monotonic() + 60.0
        while not list(tmp_path.glob(".big.csv.*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert b"Traceback" not in proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--step", "0.05", "--horizon", "10"],
        ["sweep", "--step", "0.05", "--horizon", "10"],
        ["daily", "--levels", "100", "--modes", "v1g", "--step", "0.05", "--horizon", "10"],
        ["profile", "--step-min", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_closing_message_counts_the_data_lines(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    what = "cells" if argv[0] in ("sweep", "daily") else "samples"
    assert capsys.readouterr().err == f"wrote {out} ({len(rows)} {what})\n"
