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

from . import __version__
from .config import (
    ConfigError,
    DEFAULT_PROFILE_STEP_MIN,
    ScenarioAxes,
    canonical_json,
    check_sections,
    day_profile_from_value,
    day_profile_to_value,
    from_section,
    load_config_file,
    metrics_from_config,
    parse_clock_min,
    parse_h_preset,
    parse_levels,
    parse_mode,
    parse_modes,
    parse_strategies,
    parse_strategy,
    scenario_from_config,
    scenario_to_config,
    to_section,
    _number,
    _section,
    _take,
)
from .fleet import (
    FleetConfig,
    InfeasibleChargingWindow,
    _day_clocks,
    charging_power_at,
    soc_at,
)
from .grid import CALIFORNIA_LOW_INERTIA_MIX
from .metrics import FrequencyMetrics
from .simulator import (
    IntegrationError,
    Scenario,
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


def write_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file and rename; no partial file survives a failure."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _header(command: str, cfg: dict) -> list[str]:
    return [f"# fleetfreq {command}", f"# config = {canonical_json(cfg)}"]


def _apply(cfg: dict, section: str, key: str, value) -> None:
    if value is None:
        return
    cfg.setdefault(section, {})
    if not isinstance(cfg[section], dict):
        raise ConfigError(f"section {section!r} must be an object")
    cfg = cfg[section]
    cfg[key] = value


def _load_cfg(args) -> dict:
    cfg = load_config_file(args.config) if args.config else {}
    check_sections(cfg)
    return cfg


def _apply_scenario_flags(cfg: dict, args) -> None:
    if getattr(args, "h_preset", None) is not None:
        h = parse_h_preset(args.h_preset)
        _apply(cfg, "grid", "h_eff_s", h)
        _apply(cfg, "grid", "s_base_mw", CALIFORNIA_LOW_INERTIA_MIX.total_power_mw)
    if getattr(args, "mix", None) is not None:
        cfg["mix"] = args.mix
    if getattr(args, "step", None) is not None:
        _apply(cfg, "event", "step_s", args.step)
    if getattr(args, "horizon", None) is not None:
        _apply(cfg, "event", "horizon_s", args.horizon)
    if getattr(args, "clock", None) is not None:
        _apply(cfg, "event", "clock_min", _clock_flag(args.clock))


def _clock_flag(text: str) -> float:
    """--clock: HH:MM, or a plain number of minutes since midnight."""
    if ":" in text:
        return parse_clock_min(text)
    try:
        minutes = float(text)
    except ValueError:
        raise ConfigError(f"bad clock {text!r}: expected HH:MM or minutes") from None
    return parse_clock_min(minutes)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    _apply_scenario_flags(cfg, args)
    if args.strategy is not None:
        _apply(cfg, "fleet", "strategy", parse_strategy(args.strategy).value)
    if args.mode is not None:
        _apply(cfg, "controller", "mode", parse_mode(args.mode).value)
    if args.participation is not None:
        if not 0.0 <= args.participation <= 100.0:
            raise ConfigError("participation must lie in [0, 100] percent")
        _apply(cfg, "controller", "participation", args.participation / 100.0)
    scenario = scenario_from_config(cfg)
    metrics_from_config(cfg)  # checked, though a trajectory has no metrics
    traj = simulate(scenario)
    lines = _header("simulate", scenario_to_config(scenario))
    lines.append(TRAJECTORY_COLUMNS)
    for i in range(len(traj)):
        lines.append(
            ",".join(
                (
                    _fmt(traj.times_s[i]),
                    _fmt(traj.frequency_hz[i]),
                    _fmt(traj.p_mech_pu[i]),
                    _fmt(traj.p_ev_pu[i]),
                    _fmt(traj.mean_soc[i]),
                )
            )
        )
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(traj)} samples)", file=sys.stderr)
    return 0


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
    args, command: str, echo: dict, scenarios: list[Scenario], metric_cfg: dict
) -> int:
    """Evaluate a scenario grid and write one metrics row per cell, in grid order.

    Every row needs its own scenario_id, so a grid whose cells share one
    (levels closer than a whole percent, a repeated mode or strategy) is
    rejected before any cell runs.
    """
    ids = [_scenario_id(s, with_clock=command == "daily") for s in scenarios]
    shared = [sid for sid, n in Counter(ids).items() if n > 1]
    if shared:
        raise ConfigError(
            f"grid cells share scenario_id {shared[0]!r}: levels must differ by "
            "a whole percent and modes and strategies must not repeat"
        )
    results = evaluate_scenarios(scenarios, **metric_cfg)
    lines = _header(command, echo)
    lines.append(METRICS_COLUMNS)
    lines.extend(_metrics_row(sid, s, m) for sid, s, m in zip(ids, scenarios, results))
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(scenarios)} cells)", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    _apply_scenario_flags(cfg, args)
    if args.levels is not None:
        _apply(cfg, "sweep", "levels", parse_levels(args.levels))
    if args.modes is not None:
        _apply(cfg, "sweep", "modes", [m.value for m in parse_modes(args.modes)])
    if args.strategy is not None:
        _apply(
            cfg, "sweep", "strategies", [s.value for s in parse_strategies(args.strategy)]
        )
    base = scenario_from_config(cfg)
    metric_cfg = metrics_from_config(cfg)
    axes = from_section(_section(cfg, "sweep"), ScenarioAxes(), "sweep")
    scenarios = scenario_grid(base, axes.levels, axes.modes, axes.strategies)

    echo = scenario_to_config(base)
    echo["metrics"] = metric_cfg
    echo["sweep"] = to_section(axes)
    return _write_grid(args, "sweep", echo, scenarios, metric_cfg)


def cmd_daily(args) -> int:
    cfg = _load_cfg(args)
    _apply_scenario_flags(cfg, args)
    if args.strategy is not None:
        _apply(cfg, "fleet", "strategy", parse_strategy(args.strategy).value)
    if args.levels is not None:
        _apply(cfg, "daily", "levels", parse_levels(args.levels))
    if args.modes is not None:
        _apply(cfg, "daily", "modes", [m.value for m in parse_modes(args.modes)])
    if args.day_profile is not None:
        _apply(cfg, "daily", "day_profile", args.day_profile)
    base = scenario_from_config(cfg)
    metric_cfg = metrics_from_config(cfg)
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
    echo["metrics"] = metric_cfg
    echo["daily"] = to_section(axes, ("levels", "modes"))
    echo["daily"]["day_profile"] = day_profile_to_value(day)
    return _write_grid(args, "daily", echo, scenarios, metric_cfg)


def cmd_profile(args) -> int:
    cfg = _load_cfg(args)
    if args.strategy is not None:
        _apply(cfg, "fleet", "strategy", parse_strategy(args.strategy).value)
    if args.step_min is not None:
        _apply(cfg, "profile", "step_min", args.step_min)
    fleet = from_section(_section(cfg, "fleet"), FleetConfig(), "fleet")
    profile_cfg = _take(
        _section(cfg, "profile"), {"step_min": DEFAULT_PROFILE_STEP_MIN}, "profile"
    )
    step_min = _number(profile_cfg["step_min"], "profile.step_min")
    clocks = _day_clocks(step_min)

    echo = {"fleet": to_section(fleet), "profile": {"step_min": step_min}}
    lines = _header("profile", echo)
    lines.append(PROFILE_COLUMNS)
    for clock in clocks:
        per_vehicle = charging_power_at(clock, fleet.strategy, fleet.vehicle)
        lines.append(
            ",".join(
                (
                    _fmt(clock),
                    _fmt(per_vehicle),
                    _fmt(fleet.n_vehicles * per_vehicle / 1000.0),
                    _fmt(soc_at(clock, fleet.strategy, fleet.vehicle)),
                )
            )
        )
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(clocks)} samples)", file=sys.stderr)
    return 0


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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--out", required=True, help="output CSV path")

    def scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--step", type=float, help="integration step in seconds")
        p.add_argument("--horizon", type=float, help="simulation horizon in seconds")
        p.add_argument(
            "--h-preset",
            choices=("table2_reported", "table2_weighted"),
            help="named effective-inertia preset for the bundled California mix",
        )
        p.add_argument("--mix", help="generation mix CSV (source,h_seconds,power_mw)")
        p.add_argument("--clock", help="time of day, HH:MM or minutes")

    def workers_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=_worker_count,
            default=1,
            help="ignored, kept for compatibility (n >= 1): all cells run "
            "together in one process",
        )

    p = sub.add_parser("simulate", help="integrate one contingency scenario")
    common(p)
    scenario_flags(p)
    p.add_argument("--strategy", help="charging strategy (immediate|delayed|constant)")
    p.add_argument("--mode", help="control mode (v1g|v2g)")
    p.add_argument("--participation", type=float, help="participation in percent")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="participation sweep over strategies and modes")
    common(p)
    scenario_flags(p)
    p.add_argument("--levels", help="comma-separated participation percents")
    p.add_argument("--modes", help="comma-separated modes (v1g,v2g)")
    p.add_argument("--strategy", help="comma-separated strategies to sweep")
    workers_flag(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("daily", help="nadir scan over a 96-interval day profile")
    common(p)
    scenario_flags(p)
    p.add_argument("--strategy", help="charging strategy for the scan")
    p.add_argument("--levels", help="comma-separated participation percents")
    p.add_argument("--modes", help="comma-separated modes (v1g,v2g)")
    p.add_argument("--day-profile", help="day profile CSV (default: bundled synthetic)")
    workers_flag(p)
    p.set_defaults(func=cmd_daily)

    p = sub.add_parser("profile", help="24 h fleet charging profile")
    common(p)
    p.add_argument("--strategy", help="charging strategy (immediate|delayed|constant)")
    p.add_argument("--step-min", type=float, help="profile step in minutes")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"fleetfreq: config error: {exc}", file=sys.stderr)
        return 2
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
