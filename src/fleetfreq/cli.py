"""Command-line front end.

Four subcommands: simulate (one trajectory), sweep (participation grid),
daily (96-interval nadir scan), and profile (24 h fleet load). Outputs are
deterministic CSV files whose header block echoes the fully resolved run
configuration; feeding that JSON back as --config reproduces the file
byte for byte. Exit codes: 0 success, 2 config error, 3 infeasible charging
window, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import __version__
from .config import (
    canonical_json,
    day_profile_from_value,
    day_profile_to_value,
    from_section,
    load_config_file,
    metrics_from_config,
    scenario_from_config,
    scenario_to_config,
    to_section,
    _section,
)
from .fleet import FleetConfig, InfeasibleChargingWindow, ProfileSettings, charging_profile
from .grid import INERTIA_PRESETS, grid_from_preset
from .metrics import FrequencyMetrics, MetricsConfig
from .simulator import (
    IntegrationError,
    Scenario,
    ScenarioAxes,
    bundled_day_profile,
    evaluate_scenarios,
    scenario_grid,
    simulate,
)

TRAJECTORY_COLUMNS = "t_s,f_hz,p_mech_pu,p_ev_pu,mean_soc"
METRICS_COLUMNS = (
    "scenario_id,mode,participation,strategy,clock_min,"
    "nadir_hz,nadir_s,rocof_hzps,overshoot_hz,settling_s,f_ss_hz"
)
PROFILE_COLUMNS = "clock_min,per_vehicle_kw,aggregate_mw,mean_soc"


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_atomic(path: str | Path, header: str, lines: Iterable[str]) -> None:
    """Write the header, then the lines (each ending in a newline) one at a
    time as they are made, via a temp file and rename; no partial file
    survives a failure, one raised while making a line included. An OSError
    names path, not the temp file, which the caller never asked for."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(header)
                fh.writelines(lines)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _write(args, command: str, echo: dict, columns: str, lines: Iterable[str], what: str) -> int:
    """Write --out: the header echoing the resolved config, the column names,
    then the lines; what counts them for the closing message."""
    header = f"# fleetfreq {command}\n# config = {canonical_json(echo)}\n{columns}\n"
    write_atomic(args.out, header, lines)
    print(f"wrote {args.out} ({what})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# flags


class Flag(NamedTuple):
    """A command-line flag and the config key it sets.

    convert only changes units or shape; the config section readers check
    the value. A flag without a section sets a top-level key, and one
    without a key sets each key of the dict that convert returns.
    """

    flag: str
    section: str | None
    key: str | None
    convert: Callable
    help: str
    choices: tuple[str, ...] | None = None


def _number(text: str):
    """A number, or the text itself (HH:MM, or a value the reader rejects)."""
    try:
        return float(text)
    except ValueError:
        return text


def _fraction(percent: str):
    value = _number(percent)
    return value / 100.0 if isinstance(value, float) else value


def _items(text: str) -> list[str]:
    return [part for part in text.split(",") if part.strip()]


def _fractions(percents: str) -> list:
    return [_fraction(part) for part in _items(percents)]


def _h_preset(name: str) -> dict:
    return to_section(grid_from_preset(name), ("h_eff_s", "s_base_mw"))


_TIME_FLAGS = (
    Flag("--step", "event", "step_s", _number, "integration step in seconds"),
    Flag("--horizon", "event", "horizon_s", _number, "simulation horizon in seconds"),
)
# daily has no inertia flags and no --clock: each day-profile row sets its
# cell's mix and clock.
_INERTIA_FLAGS = (
    Flag(
        "--h-preset", "grid", None, _h_preset,
        "effective-inertia preset for the bundled California mix (h_eff_s, s_base_mw)",
        tuple(INERTIA_PRESETS),
    ),
    Flag("--mix", None, "mix", str, "generation mix CSV (source,h_seconds,power_mw)"),
)
_CLOCK = Flag("--clock", "event", "clock_min", _number, "time of day, HH:MM or minutes")
_STRATEGY = Flag(
    "--strategy", "fleet", "strategy", str, "charging strategy (immediate|delayed|constant)"
)
_PERCENTS = "comma-separated participation percents"
_MODES = "comma-separated modes (v1g,v2g)"

FLAGS: dict[str, tuple[Flag, ...]] = {
    "simulate": (
        *_TIME_FLAGS,
        *_INERTIA_FLAGS,
        _CLOCK,
        _STRATEGY,
        Flag("--mode", "controller", "mode", str, "control mode (v1g|v2g)"),
        Flag(
            "--participation", "controller", "participation", _fraction,
            "participation in percent",
        ),
    ),
    "sweep": (
        *_TIME_FLAGS,
        *_INERTIA_FLAGS,
        _CLOCK,
        Flag("--levels", "sweep", "levels", _fractions, _PERCENTS),
        Flag("--modes", "sweep", "modes", _items, _MODES),
        Flag("--strategy", "sweep", "strategies", _items, "comma-separated strategies"),
    ),
    "daily": (
        *_TIME_FLAGS,
        _STRATEGY,
        Flag("--levels", "daily", "levels", _fractions, _PERCENTS),
        Flag("--modes", "daily", "modes", _items, _MODES),
        Flag(
            "--day-profile", "daily", "day_profile", str,
            "day profile CSV (default: bundled synthetic)",
        ),
    ),
    "profile": (
        _STRATEGY,
        Flag("--step-min", "profile", "step_min", _number, "profile step in minutes"),
    ),
}


def _load_cfg(args) -> dict:
    """The --config dict (empty without one) with every given flag laid over it."""
    cfg = load_config_file(args.config) if args.config else {}
    for flag in FLAGS[args.command]:
        text = getattr(args, flag.flag[2:].replace("-", "_"))
        if text is None:
            continue
        value = flag.convert(text)
        if flag.section is None:
            cfg[flag.key] = value
            continue
        section = cfg[flag.section] = dict(_section(cfg, flag.section))
        if flag.key is None:
            section.update(value)
        else:
            section[flag.key] = value
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    scenario = scenario_from_config(cfg)
    metrics_from_config(cfg)  # checked, though a trajectory has no metrics
    traj = simulate(scenario)
    arrays = (traj.times_s, traj.frequency_hz, traj.p_mech_pu, traj.p_ev_pu, traj.mean_soc)
    lines = ("%.6f,%.6f,%.6f,%.6f,%.6f\n" % row for row in zip(*arrays))
    echo = scenario_to_config(scenario)
    what = f"{len(traj.times_s)} samples"
    return _write(args, "simulate", echo, TRAJECTORY_COLUMNS, lines, what)


def _metrics_row(scenario_id: str, s: Scenario, m: FrequencyMetrics) -> str:
    settling = "" if m.settling_time_s is None else _fmt(m.settling_time_s)
    return ",".join(
        (
            scenario_id,
            s.controller.mode.value,
            _fmt(s.controller.participation),
            s.fleet.strategy.value,
            _fmt(s.clock_min),
            _fmt(m.nadir_hz),
            _fmt(m.nadir_time_s),
            _fmt(m.rocof_hz_per_s),
            _fmt(m.overshoot_hz),
            settling,
            _fmt(m.f_steady_state_hz),
        )
    )


def _scenario_id(s: Scenario, with_clock: bool) -> str:
    """<strategy>-<mode>-pNNN, plus -mNNNN (the clock) when asked."""
    c = s.controller
    level = int(round(c.participation * 100.0))
    sid = f"{s.fleet.strategy.value}-{c.mode.value}-p{level:03d}"
    return f"{sid}-m{int(round(s.clock_min)):04d}" if with_clock else sid


def _write_grid(
    args, command: str, echo: dict, scenarios: list[Scenario], settings: MetricsConfig
) -> int:
    """Evaluate a scenario grid and write one metrics row per cell, in grid order.

    Every row needs its own scenario_id, so a grid whose cells share one
    (levels closer than a whole percent, a repeated mode or strategy) is
    rejected before any cell runs. A divergence names the first diverged
    cell's scenario_id.
    """
    ids = [_scenario_id(s, with_clock=command == "daily") for s in scenarios]
    shared = [sid for sid, n in Counter(ids).items() if n > 1]
    if shared:
        raise ValueError(
            f"{command}: grid cells share scenario_id {shared[0]!r}: levels must differ by "
            "a whole percent and modes and strategies must not repeat"
        )
    try:
        results = evaluate_scenarios(scenarios, settings)
    except IntegrationError as exc:
        exc.args = (f"{ids[exc.cell]}: {exc}",)
        raise
    lines = (_metrics_row(sid, s, m) + "\n" for sid, s, m in zip(ids, scenarios, results))
    return _write(args, command, echo, METRICS_COLUMNS, lines, f"{len(ids)} cells")


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    base = scenario_from_config(cfg)
    settings = metrics_from_config(cfg)
    axes = from_section(_section(cfg, "sweep"), ScenarioAxes(), "sweep")
    scenarios = scenario_grid(base, axes.levels, axes.modes, axes.strategies)

    echo = scenario_to_config(base)
    echo["metrics"] = to_section(settings)
    echo["sweep"] = to_section(axes)
    return _write_grid(args, "sweep", echo, scenarios, settings)


def cmd_daily(args) -> int:
    cfg = _load_cfg(args)
    base = scenario_from_config(cfg)
    settings = metrics_from_config(cfg)
    daily_cfg = dict(_section(cfg, "daily"))
    day_value = daily_cfg.pop("day_profile", None)
    axes = from_section(daily_cfg, ScenarioAxes(), "daily", ("levels", "modes"))
    day = (
        bundled_day_profile()
        if day_value is None
        else day_profile_from_value(day_value)
    )
    scenarios = scenario_grid(base, axes.levels, axes.modes, day=day)

    echo = scenario_to_config(base)
    echo["metrics"] = to_section(settings)
    echo["daily"] = to_section(axes, ("levels", "modes"))
    echo["daily"]["day_profile"] = day_profile_to_value(day)
    return _write_grid(args, "daily", echo, scenarios, settings)


def cmd_profile(args) -> int:
    cfg = _load_cfg(args)
    fleet = from_section(_section(cfg, "fleet"), FleetConfig(), "fleet")
    profile = from_section(_section(cfg, "profile"), ProfileSettings(), "profile")
    series = charging_profile(fleet, profile)
    lines = (",".join(map(_fmt, row)) + "\n" for row in zip(*series))

    echo = {"fleet": to_section(fleet), "profile": to_section(profile)}
    return _write(args, "profile", echo, PROFILE_COLUMNS, lines, f"{len(series[0])} samples")


# ---------------------------------------------------------------------------
# parser


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetfreq",
        description="Primary frequency response experiments for heavy-duty EV fleets.",
    )
    parser.add_argument("--version", action="version", version=f"fleetfreq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "simulate": (cmd_simulate, "integrate one contingency scenario"),
        "sweep": (cmd_sweep, "participation sweep over strategies and modes"),
        "daily": (cmd_daily, "nadir scan over a 96-interval day profile"),
        "profile": (cmd_profile, "24 h fleet charging profile"),
    }
    for command, (func, help_text) in commands.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--out", required=True, help="output CSV path")
        for flag in FLAGS[command]:
            where = ".".join(filter(None, (flag.section, flag.key)))
            p.add_argument(flag.flag, choices=flag.choices, help=f"{flag.help} [{where}]")
        if command in ("sweep", "daily"):
            p.add_argument(
                "--workers",
                type=_worker_count,
                default=1,
                help="ignored, kept for compatibility (n >= 1): all cells run "
                "together in one process",
            )
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    # No step calls BLAS: the grid kernel uses elementwise ufuncs only. So
    # numpy, first imported inside evaluate_scenarios, loads OpenBLAS without
    # its worker thread, which would otherwise start with the import and spin
    # beside the kernel. A value the user set wins; once numpy is loaded this
    # does nothing. It is set here, not in entry, so that a caller of main
    # runs the same process set-up as the console script.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleChargingWindow as exc:
        print(f"fleetfreq: infeasible charging window: {exc}", file=sys.stderr)
        return 3
    except IntegrationError as exc:
        print(f"fleetfreq: integration failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"fleetfreq: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fleetfreq: i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
