"""Run configuration: JSON schema, defaults, and round-trip serialization.

Every output file echoes its fully resolved configuration in the header so a
run can be reproduced from the output alone. The loader accepts the same
shape back, with omitted keys falling back to the documented defaults.
Sections that mirror a dataclass are read and written from its fields: each
given value is coerced by the field's type, and a value that does not fit is
rejected with the field named.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .controller import ControlMode, ControllerConfig
from .fleet import ChargingStrategy, FleetConfig
from .grid import (
    GenerationMix,
    GenerationSource,
    INERTIA_PRESETS,
    grid_from_preset,
    load_mix_csv,
)
from .metrics import MetricsConfig
from .simulator import (
    DAY_PROFILE_HEADER,
    DayProfile,
    DayProfileRow,
    Scenario,
    _mix_from_day_values,
    load_day_profile_csv,
)

DEFAULT_PROFILE_STEP_MIN = 15.0

# Scenario fields read from and echoed to the "event" section; the other
# Scenario fields have sections of their own.
EVENT_KEYS = ("disturbance_mw", "event_time_s", "clock_min", "horizon_s", "step_s")
# Fields holding a time of day, given as minutes or "HH:MM".
CLOCK_FIELDS = {"clock_min", "shift_start_min", "shift_end_min"}


class ConfigError(ValueError):
    """A configuration file or flag value is invalid."""


def parse_clock_min(value) -> float:
    """Accept minutes-since-midnight or an HH:MM string."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad clock {value!r}: expected HH:MM or minutes")
        try:
            hours, minutes = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad clock {value!r}: {exc}") from exc
        if not (0 <= hours < 24 and 0 <= minutes < 60):
            raise ConfigError(f"bad clock {value!r}: out of range")
        return 60.0 * hours + float(minutes)
    clock = _number(value, "clock")
    if not 0.0 <= clock < 1440.0:
        raise ConfigError(f"clock {clock:g} outside [0, 1440) minutes")
    return clock


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _take(section: dict, known: dict, where: str) -> dict:
    """Overlay section onto known defaults, rejecting unknown keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    merged = dict(known)
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
        merged[key] = value
    return merged


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return value


# ---------------------------------------------------------------------------
# section <-> object


@dataclass(frozen=True)
class ScenarioAxes:
    """The "sweep" and "daily" sections: the axes of a scenario grid.

    Levels are participation fractions. daily has no strategies (it scans
    the fleet's own) and adds a day profile, which keeps its own shape.
    """

    levels: list[float] = field(default_factory=lambda: [0.2, 0.4, 0.6, 0.8, 1.0])
    modes: list[ControlMode] = field(default_factory=lambda: list(ControlMode))
    strategies: list[ChargingStrategy] = field(
        default_factory=lambda: list(ChargingStrategy)
    )


def _number(value, where: str) -> float:
    """A finite JSON number, as a float."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _parsed(parse, value, where: str):
    try:
        return parse(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _coerce(tp, value, where: str):
    """A JSON value as a field of type tp."""
    if tp is float:
        return _number(value, where)
    if tp is int:
        number = _number(value, where)
        if not number.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(number)
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    if get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        (item,) = get_args(tp)
        return [_coerce(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    return _parsed(_ENUM_PARSERS[tp], value, where)


def from_section(section: dict, base, where: str, names=None):
    """Overlay a config section onto `base`, a dataclass instance.

    Only the fields in `names` (default: all of them) are accepted as keys.
    Nested dataclasses are sections of their own, clock fields go through
    parse_clock_min, and every other value is coerced by its field's type.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"section {where!r} must be an object")
    hints = get_type_hints(type(base))
    known = names or [f.name for f in fields(base)]
    values = {}
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
        at = f"{where}.{key}"
        if is_dataclass(hints[key]):
            values[key] = from_section(value, getattr(base, key), at)
        elif key in CLOCK_FIELDS:
            values[key] = _parsed(parse_clock_min, value, at)
        else:
            values[key] = _coerce(hints[key], value, at)
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def to_section(obj, names=None) -> dict:
    """The config section of a dataclass instance; the inverse of from_section."""
    names = names or [f.name for f in fields(obj)]
    return {name: _plain(getattr(obj, name)) for name in names}


def _plain(value):
    if is_dataclass(value):
        return to_section(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def mix_to_value(mix: GenerationMix | None):
    if mix is None:
        return None
    return [
        {"source": s.name, "h_seconds": s.inertia_s, "power_mw": s.power_mw}
        for s in mix.sources
    ]


def mix_from_value(value) -> GenerationMix | None:
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return load_mix_csv(value)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"mix: {exc}") from exc
    if not isinstance(value, list):
        raise ConfigError("mix must be null, a CSV path, or a list of sources")
    sources = []
    for i, entry in enumerate(value, start=1):
        where = f"mix[{i}]"
        entry = _take(entry, dict.fromkeys(("source", "h_seconds", "power_mw")), where)
        h_seconds = _number(entry["h_seconds"], f"{where}.h_seconds")
        power_mw = _number(entry["power_mw"], f"{where}.power_mw")
        try:
            sources.append(GenerationSource(str(entry["source"]), h_seconds, power_mw))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        return GenerationMix(tuple(sources))
    except ValueError as exc:
        raise ConfigError(f"mix: {exc}") from exc


def day_profile_to_value(day: DayProfile) -> list[dict]:
    rows = []
    for row in day.rows:
        by_name = {f"{s.name}_mw": s.power_mw for s in row.mix.sources}
        entry = {"clock_min": row.clock_min}
        entry.update({col: by_name[col] for col in DAY_PROFILE_HEADER[1:]})
        rows.append(entry)
    return rows


def day_profile_from_value(value) -> DayProfile:
    if isinstance(value, str):
        try:
            return load_day_profile_csv(value)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"day_profile: {exc}") from exc
    if not isinstance(value, list):
        raise ConfigError("day_profile must be a CSV path or a list of rows")
    rows = []
    for i, entry in enumerate(value, start=1):
        where = f"day_profile[{i}]"
        entry = _take(entry, dict.fromkeys(DAY_PROFILE_HEADER), where)
        values = {
            col: _number(entry[col], f"{where}.{col}") for col in DAY_PROFILE_HEADER
        }
        clock = values.pop("clock_min")
        try:
            rows.append(DayProfileRow(clock, _mix_from_day_values(values)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        return DayProfile(tuple(rows))
    except ValueError as exc:
        raise ConfigError(f"day_profile: {exc}") from exc


# ---------------------------------------------------------------------------
# parsing helpers


def parse_strategy(value) -> ChargingStrategy:
    try:
        return ChargingStrategy(str(value).strip().lower())
    except ValueError:
        valid = ", ".join(s.value for s in ChargingStrategy)
        raise ConfigError(f"unknown strategy {value!r} (valid: {valid})") from None


def parse_mode(value) -> ControlMode:
    try:
        return ControlMode(str(value).strip().lower())
    except ValueError:
        valid = ", ".join(m.value for m in ControlMode)
        raise ConfigError(f"unknown mode {value!r} (valid: {valid})") from None


_ENUM_PARSERS = {ControlMode: parse_mode, ChargingStrategy: parse_strategy}


def parse_levels(text: str) -> list[float]:
    """Comma-separated participation percentages, e.g. '20,40,60,80,100'."""
    levels = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            pct = float(part)
        except ValueError as exc:
            raise ConfigError(f"bad participation level {part!r}") from exc
        if not 0.0 <= pct <= 100.0:
            raise ConfigError(f"participation level {pct:g} outside [0, 100] percent")
        levels.append(pct / 100.0)
    if not levels:
        raise ConfigError("no participation levels given")
    return levels


def parse_modes(text: str) -> list[ControlMode]:
    modes = [parse_mode(part) for part in text.split(",") if part.strip()]
    if not modes:
        raise ConfigError("no modes given")
    return modes


def parse_strategies(text: str) -> list[ChargingStrategy]:
    strategies = [parse_strategy(part) for part in text.split(",") if part.strip()]
    if not strategies:
        raise ConfigError("no strategies given")
    return strategies


def parse_h_preset(name: str) -> float:
    if name not in INERTIA_PRESETS:
        valid = ", ".join(sorted(INERTIA_PRESETS))
        raise ConfigError(f"unknown inertia preset {name!r} (valid: {valid})")
    return INERTIA_PRESETS[name]


def load_config_file(path: str | Path) -> dict:
    try:
        with Path(path).open(encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# full scenario resolution


KNOWN_SECTIONS = {
    "grid",
    "mix",
    "fleet",
    "controller",
    "event",
    "metrics",
    "sweep",
    "daily",
    "profile",
}


def check_sections(cfg: dict) -> None:
    for key in cfg:
        if key not in KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section {key!r}")


def scenario_from_config(cfg: dict) -> Scenario:
    """Build the base scenario from a config dict, defaults applied."""
    check_sections(cfg)
    base = Scenario(
        grid=from_section(
            _section(cfg, "grid"), grid_from_preset("table2_reported"), "grid"
        ),
        mix=mix_from_value(cfg.get("mix")),
        fleet=from_section(_section(cfg, "fleet"), FleetConfig(), "fleet"),
        controller=from_section(
            _section(cfg, "controller"), ControllerConfig(), "controller"
        ),
    )
    return from_section(_section(cfg, "event"), base, "event", EVENT_KEYS)


def metrics_from_config(cfg: dict) -> dict:
    """Keyword arguments of evaluate_scenarios, from the "metrics" section."""
    return to_section(from_section(_section(cfg, "metrics"), MetricsConfig(), "metrics"))


def scenario_to_config(scenario: Scenario) -> dict:
    # The grid section echoes the resolved parameters (mix-derived inertia
    # and base included) so the header states what the run actually used;
    # feeding it back together with the mix re-derives the same values.
    return {
        "grid": to_section(scenario.resolved_grid()),
        "mix": mix_to_value(scenario.mix),
        "fleet": to_section(scenario.fleet),
        "controller": to_section(scenario.controller),
        "event": to_section(scenario, EVENT_KEYS),
    }
