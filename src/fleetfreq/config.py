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
from dataclasses import astuple, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .fleet import ChargingStrategy
from .grid import (
    MIX_COLUMNS,
    GenerationMix,
    GenerationSource,
    finite_number,
    inertial_mix,
    read_table,
    shown,
)
from .metrics import MetricsConfig
from .simulator import (
    DAY_PROFILE_COLUMNS,
    DayProfile,
    Scenario,
    day_profile_values,
    default_scenario,
    read_day_profile,
)

# Scenario fields read from and echoed to the "event" section; the other
# Scenario fields have sections of their own.
EVENT_KEYS = ("disturbance_mw", "event_time_s", "clock_min", "horizon_s", "step_s")
# Fields holding a time of day, given as minutes or "HH:MM".
CLOCK_FIELDS = {"clock_min", "shift_start_min", "shift_end_min"}


def parse_clock_min(value) -> float:
    """Accept minutes-since-midnight or an HH:MM string."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad clock {value!r}: expected HH:MM or minutes")
        try:
            hours, minutes = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad clock {value!r}: {exc}") from exc
        if not (0 <= hours < 24 and 0 <= minutes < 60):
            raise ValueError(f"bad clock {value!r}: out of range")
        return 60.0 * hours + float(minutes)
    clock = finite_number(value, "clock")
    if not 0.0 <= clock < 1440.0:
        raise ValueError(f"clock {clock:g} outside [0, 1440) minutes")
    return clock


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"section {name!r} must be an object")
    return value


# ---------------------------------------------------------------------------
# section <-> object


def _coerce(tp, value, where: str):
    """A JSON value as a field of type tp."""
    if tp is float:
        return finite_number(value, where)
    if tp is int:
        number = finite_number(value, where)
        if not number.is_integer():
            raise ValueError(f"{where} must be an integer, got {value!r}")
        return int(number)
    if tp is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{where} must be true or false, got {shown(value)}")
        return value
    if get_origin(tp) is list:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {shown(value)}")
        (item,) = get_args(tp)
        return [_coerce(item, v, f"{where}[{i}]") for i, v in enumerate(value, start=1)]
    # An enum: ChargingStrategy or ControlMode, by its value in any case.
    try:
        return tp(str(value).strip().lower())
    except ValueError:
        noun = "strategy" if tp is ChargingStrategy else "mode"
        valid = ", ".join(member.value for member in tp)
        raise ValueError(f"{where}: unknown {noun} {shown(value)} (valid: {valid})") from None


def from_section(section: dict, base, where: str, names=None):
    """Overlay a config section onto `base`, a dataclass instance.

    Only the fields in `names` (default: all of them) are accepted as keys.
    Nested dataclasses are sections of their own, clock fields go through
    parse_clock_min, and every other value is coerced by its field's type.
    """
    if not isinstance(section, dict):
        raise ValueError(f"section {where!r} must be an object")
    hints = get_type_hints(type(base))
    known = names or [f.name for f in fields(base)]
    values = {}
    for key, value in section.items():
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where}")
        at = f"{where}.{key}"
        if is_dataclass(hints[key]):
            values[key] = from_section(value, getattr(base, key), at)
        elif key in CLOCK_FIELDS:
            try:
                values[key] = parse_clock_min(value)
            except ValueError as exc:
                raise ValueError(f"{at}: {exc}") from None
        else:
            values[key] = _coerce(hints[key], value, at)
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


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
    return [dict(zip(MIX_COLUMNS, astuple(s))) for s in mix.sources]


def mix_from_value(value) -> GenerationMix | None:
    if value is None:
        return None
    return read_table(value, MIX_COLUMNS, GenerationSource, inertial_mix, "mix")


def day_profile_to_value(day: DayProfile) -> list[dict]:
    return [dict(zip(DAY_PROFILE_COLUMNS, day_profile_values(row))) for row in day.rows]


def day_profile_from_value(value) -> DayProfile:
    return read_day_profile(value)


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, rejected if it repeats a key (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeats key {key!r}")
        obj[key] = value
    return obj


def load_config_file(path: str | Path) -> dict:
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a repeated key, or text that is not UTF-8
        raise ValueError(f"config {path} {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must be a JSON object")
    for key in cfg:
        if key not in KNOWN_SECTIONS:
            raise ValueError(f"unknown config section {key!r}")
    return cfg


# ---------------------------------------------------------------------------
# full scenario resolution


def scenario_from_config(cfg: dict) -> Scenario:
    """Build the base scenario from a config dict, overlaid on default_scenario().

    A mix sets h_eff_s and s_base_mw, so a grid section that gives either
    one next to a mix must give the value the mix derives.
    """
    default = default_scenario()
    section = _section(cfg, "grid")
    grid = from_section(section, default.grid, "grid")
    base = replace(
        default,
        grid=grid,
        mix=mix_from_value(cfg.get("mix")),
        fleet=from_section(_section(cfg, "fleet"), default.fleet, "fleet"),
        controller=from_section(_section(cfg, "controller"), default.controller, "controller"),
    )
    for key in ("h_eff_s", "s_base_mw"):
        given, used = getattr(grid, key), getattr(base.grid, key)
        if key in section and given != used:
            raise ValueError(
                f"grid.{key} is {given!r}, but the mix gives {used!r}: "
                "drop one of them or make them equal"
            )
    return from_section(_section(cfg, "event"), base, "event", EVENT_KEYS)


def metrics_from_config(cfg: dict) -> MetricsConfig:
    """The metric settings of evaluate_scenarios, from the "metrics" section."""
    return from_section(_section(cfg, "metrics"), MetricsConfig(), "metrics")


def scenario_to_config(scenario: Scenario) -> dict:
    # The grid section echoes the grid the run used (mix-derived inertia and
    # base included); feeding it back together with the mix re-derives the
    # same values.
    return {
        "grid": to_section(scenario.grid),
        "mix": mix_to_value(scenario.mix),
        "fleet": to_section(scenario.fleet),
        "controller": to_section(scenario.controller),
        "event": to_section(scenario, EVENT_KEYS),
    }
