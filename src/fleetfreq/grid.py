"""Single-area grid model.

Generation mix bookkeeping, effective system inertia, and the continuous-time
right-hand side of the aggregated frequency dynamics: swing equation with
load damping, plus first-order governor, turbine, and EV-actuation lags, all
in per-unit on a configurable power base. Also the reader of the input
tables (generation mix, day profile), CSV or JSON rows, and its cell checks.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class GenerationSource:
    """One generation technology: inertia constant and dispatched power."""

    name: str
    inertia_s: float
    power_mw: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("generation source needs a name")
        if not (math.isfinite(self.inertia_s) and math.isfinite(self.power_mw)):
            raise ValueError(f"{self.name}: inertia constant and power must be finite")
        if self.inertia_s < 0.0:
            raise ValueError(f"{self.name}: inertia constant must be >= 0 s")
        if self.power_mw < 0.0:
            raise ValueError(f"{self.name}: power must be >= 0 MW")


@dataclass(frozen=True)
class GenerationMix:
    """A set of generation sources treated as one aggregated system."""

    sources: tuple[GenerationSource, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ValueError("generation mix must contain at least one source")
        if self.total_power_mw <= 0.0:
            raise ValueError("generation mix total power must be > 0 MW")

    @property
    def total_power_mw(self) -> float:
        return math.fsum(s.power_mw for s in self.sources)


def effective_inertia(mix: GenerationMix) -> float:
    """Power-weighted average of the per-source inertia constants, in seconds.

    Inverter-interfaced sources enter with H = 0 and dilute the average.
    """
    return math.fsum(s.inertia_s * s.power_mw for s in mix.sources) / mix.total_power_mw


def inertial_mix(sources) -> GenerationMix:
    """A GenerationMix that can set a grid's inertia, which must be > 0."""
    mix = GenerationMix(sources)
    if not effective_inertia(mix) > 0.0:
        raise ValueError("generation mix has no inertia: all its power has h_seconds 0")
    return mix


def shown(value) -> str:
    """A config value as an error names it: JSON's true, false and null as
    JSON spells them, any other value by its repr."""
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    return repr(value)


def finite_number(value, where: str) -> float:
    """A finite number, as a float; a bool, a string or a non-finite value is
    rejected with where named. -0 reads as 0.0, so that it is written as 0."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{where} must be a finite number, got {shown(value)}")
    return float(value) + 0.0


def whole_steps(span: float, step: float, error: str = "step must divide span") -> int:
    """The number of steps of size step in span; ValueError(error) unless
    span / step is finite and within 1e-9 of a whole number >= 1."""
    n = span / step
    count = round(n) if math.isfinite(n) else 0
    if count < 1 or abs(n - count) > 1e-9:
        raise ValueError(error)
    return count


def _cell(kind: type, value, where: str):
    """A table cell checked as its column's kind: float or non-empty str."""
    if kind is float:
        return finite_number(value, where)
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"{where} must be a non-empty string, got {shown(value)}")
    return value.strip()


def _from_text(kind: type, text: str):
    """A CSV cell as its JSON counterpart: a float, if it parses as one."""
    if kind is float:
        try:
            return float(text)
        except ValueError:
            pass
    return text


def _csv_rows(path: Path, columns: dict[str, type], where: str) -> list:
    """(location, separator, cells by column) of each data row of a CSV table."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = [
                r
                for r in csv.reader(fh)
                if any(map(str.strip, r)) and not r[0].lstrip().startswith("#")
            ]
    except OSError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except UnicodeDecodeError as exc:  # exc.start counts from a chunk, not the file
        bad = exc.object[exc.start]
        raise ValueError(f"{where}: {path}: not UTF-8 text (byte 0x{bad:02x})") from exc
    if not rows:
        raise ValueError(f"{where}: {path}: empty file")
    header, got = list(columns), [c.strip() for c in rows[0]]
    if got != header:
        raise ValueError(
            f"{where}: {path}: expected header {','.join(header)}, got {','.join(got)}"
        )
    located = []
    for i, row in enumerate(rows[1:], start=1):
        at = f"{where}: {path}: data row {i}"
        if len(row) != len(header):
            raise ValueError(f"{at}: expected {len(header)} columns, got {len(row)}")
        cells = dict(zip(header, map(_from_text, columns.values(), row)))
        located.append((at, ": ", cells))
    return located


def read_table(value, columns: dict[str, type], make_row, make_table, where: str):
    """A table, make_table(rows), of rows each built by make_row(*cells).

    value is a CSV path or a JSON list of objects keyed by column name. In a
    CSV, blank lines, lines of blank cells and lines starting with '#' are
    ignored, the first other line must be the header and every data row must
    be as wide. In both forms every cell passes _cell, a missing JSON key as
    None. Errors name the row (`<where>: <file>: data row i` or `<where>[i]`)
    and the column; a ValueError from make_row gets the row as a prefix, and
    one from make_table the table (`<where>: <file>` or `<where>`).
    """
    if isinstance(value, list):
        named = where
        rows = [(f"{where}[{i}]", ".", row) for i, row in enumerate(value, start=1)]
    elif isinstance(value, (str, Path)):
        named = f"{where}: {Path(value)}"
        rows = _csv_rows(Path(value), columns, where)
    else:
        raise ValueError(f"{where} must be a CSV path or a list of rows")
    table = []
    for at, sep, row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{at} must be an object")
        for key in row:
            if key not in columns:
                raise ValueError(f"unknown key {key!r} in {at}")
        cells = [
            _cell(kind, row.get(name), f"{at}{sep}{name}") for name, kind in columns.items()
        ]
        try:
            table.append(make_row(*cells))
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from exc
    try:
        return make_table(table)
    except ValueError as exc:
        raise ValueError(f"{named}: {exc}") from exc


# The columns of a generation mix table, one row per source.
MIX_COLUMNS = {"source": str, "h_seconds": float, "power_mw": float}


# California generation mix during a critical low-inertia evening hour
# (2021-02-28 20:00): high renewable share, dispatchable generation at its
# daily minimum. Wind/solar and "other" are inverter-interfaced, H = 0.
CALIFORNIA_LOW_INERTIA_MIX = GenerationMix(
    (
        GenerationSource("coal", 2.6, 1166.0),
        GenerationSource("natural_gas", 4.9, 12996.0),
        GenerationSource("nuclear", 4.1, 1147.0),
        GenerationSource("petroleum", 3.6, 88.0),
        GenerationSource("wind_solar", 0.0, 809.0),
        GenerationSource("hydro", 2.4, 3115.0),
        GenerationSource("other", 0.0, 509.0),
    )
)

# Named presets for the bundled California dataset. "table2_reported" is the
# aggregate value published with the dataset (6.4 s); "table2_weighted" is the
# power-weighted average recomputed from the per-source rows (about 3.99 s).
# The two disagree; both are kept so either can be selected explicitly.
INERTIA_PRESETS: dict[str, float] = {
    "table2_reported": 6.4,
    "table2_weighted": effective_inertia(CALIFORNIA_LOW_INERTIA_MIX),
}


@dataclass(frozen=True)
class GridParameters:
    """Aggregated single-area grid parameters, per-unit on s_base_mw."""

    h_eff_s: float
    s_base_mw: float
    f_nominal_hz: float = 60.0
    damping_pu: float = 1.0
    droop_pu: float = 0.05
    t_governor_s: float = 0.2
    t_turbine_s: float = 0.5
    t_ev_s: float = 0.1

    def __post_init__(self) -> None:
        if self.h_eff_s <= 0.0:
            raise ValueError("h_eff_s must be > 0")
        if self.s_base_mw <= 0.0:
            raise ValueError("s_base_mw must be > 0")
        if self.f_nominal_hz <= 0.0:
            raise ValueError("f_nominal_hz must be > 0")
        if self.damping_pu < 0.0:
            raise ValueError("damping_pu must be >= 0")
        if self.droop_pu <= 0.0:
            raise ValueError("droop_pu must be > 0")
        for field in ("t_governor_s", "t_turbine_s", "t_ev_s"):
            if getattr(self, field) <= 0.0:
                raise ValueError(f"{field} must be > 0")


def grid_from_preset(name: str) -> GridParameters:
    """GridParameters for a named inertia preset of the California dataset."""
    if name not in INERTIA_PRESETS:
        valid = ", ".join(sorted(INERTIA_PRESETS))
        raise ValueError(f"unknown inertia preset {name!r} (valid: {valid})")
    return GridParameters(
        h_eff_s=INERTIA_PRESETS[name],
        s_base_mw=CALIFORNIA_LOW_INERTIA_MIX.total_power_mw,
    )


def grid_from_mix(mix: GenerationMix, base: GridParameters) -> GridParameters:
    """Derive h_eff_s and s_base_mw from a mix, keeping base's other parameters."""
    return replace(base, h_eff_s=effective_inertia(mix), s_base_mw=mix.total_power_mw)


def _rhs(
    delta_f: float,
    p_gov: float,
    p_mech: float,
    p_ev: float,
    disturbance_pu: float,
    ev_command_pu: float,
    h_eff_s: float,
    damping: float,
    droop: float,
    t_gov: float,
    t_turb: float,
    t_ev: float,
) -> tuple[float, float, float, float]:
    """Time derivatives of the four grid deviation states, per second.

    Positive disturbance means lost generation; positive command means grid
    support (shed load and/or injection). The mean SoC derivative is owned
    by the fleet coupling in the simulator. Elementwise: the simulator reads
    its affine map off one RK4 step of it, for one cell in floats or for a
    batch in arrays.
    """
    # Swing: 2H d(df)/dt = p_mech + p_ev - disturbance - D*df
    # Governor: TG d(pg)/dt = -df/R - pg
    # Turbine: TT d(pm)/dt = pg - pm
    # EV lag:  TEV d(pev)/dt = command - pev
    return (
        (p_mech + p_ev - disturbance_pu - damping * delta_f) / (2.0 * h_eff_s),
        (-delta_f / droop - p_gov) / t_gov,
        (p_gov - p_mech) / t_turb,
        (ev_command_pu - p_ev) / t_ev,
    )


def steady_state_deviation(net_disturbance_pu: float, params: GridParameters) -> float:
    """Post-primary-response equilibrium frequency deviation, in Hz.

    Closed form for the constant-input equilibrium of the dynamics:
    df_pu = -net_disturbance / (D + 1/R). No integration involved, so this
    doubles as an independent oracle for the simulator's late-horizon state.
    """
    denom = params.damping_pu + 1.0 / params.droop_pu
    return params.f_nominal_hz * (-net_disturbance_pu / denom)
