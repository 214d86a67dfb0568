"""Single-area grid model.

Generation mix bookkeeping, effective system inertia, and the continuous-time
right-hand side of the aggregated frequency dynamics: swing equation with
load damping, plus first-order governor, turbine, and EV-actuation lags, all
in per-unit on a configurable power base.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

MIX_CSV_HEADER = ["source", "h_seconds", "power_mw"]


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
    total = mix.total_power_mw
    if total <= 0.0:
        raise ValueError("effective inertia undefined for zero total power")
    return math.fsum(s.inertia_s * s.power_mw for s in mix.sources) / total


def load_mix_csv(path: str | Path) -> GenerationMix:
    """Read a generation mix from CSV with header source,h_seconds,power_mw.

    Blank lines and lines starting with '#' are ignored.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise ValueError(f"{path}: empty mix file")
    header = [c.strip() for c in rows[0]]
    if header != MIX_CSV_HEADER:
        raise ValueError(
            f"{path}: expected header {','.join(MIX_CSV_HEADER)}, got {','.join(header)}"
        )
    sources = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ValueError(f"{path}: row {i}: expected 3 columns, got {len(row)}")
        try:
            sources.append(
                GenerationSource(row[0].strip(), float(row[1]), float(row[2]))
            )
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from exc
    return GenerationMix(tuple(sources))


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


def grid_from_preset(name: str, **overrides) -> GridParameters:
    """GridParameters for a named inertia preset of the California dataset."""
    if name not in INERTIA_PRESETS:
        valid = ", ".join(sorted(INERTIA_PRESETS))
        raise ValueError(f"unknown inertia preset {name!r} (valid: {valid})")
    return GridParameters(
        h_eff_s=INERTIA_PRESETS[name],
        s_base_mw=CALIFORNIA_LOW_INERTIA_MIX.total_power_mw,
        **overrides,
    )


def grid_from_mix(mix: GenerationMix, base: GridParameters | None = None) -> GridParameters:
    """Derive h_eff_s and s_base_mw from a mix, keeping other parameters."""
    if base is None:
        base = grid_from_preset("table2_reported")
    return replace(base, h_eff_s=effective_inertia(mix), s_base_mw=mix.total_power_mw)


@dataclass(frozen=True)
class GridState:
    """Deviation state of the aggregated grid plus the fleet mean SoC."""

    delta_f_pu: float = 0.0
    p_gov_pu: float = 0.0
    p_mech_pu: float = 0.0
    p_ev_pu: float = 0.0
    mean_soc: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta_f_pu):
            raise ValueError("delta_f_pu must be finite")
        if not 0.0 <= self.mean_soc <= 1.0:
            raise ValueError("mean_soc must lie in [0, 1]")

    def frequency_hz(self, f_nominal_hz: float = 60.0) -> float:
        return f_nominal_hz * (1.0 + self.delta_f_pu)


@dataclass(frozen=True)
class GridStateDerivative:
    """Time derivatives of the four grid deviation states, per second."""

    d_delta_f: float
    d_p_gov: float
    d_p_mech: float
    d_p_ev: float


def _rhs(
    delta_f: float,
    p_gov: float,
    p_mech: float,
    p_ev: float,
    disturbance_pu: float,
    ev_command_pu: float,
    two_h: float,
    damping: float,
    inv_droop: float,
    t_gov: float,
    t_turb: float,
    t_ev: float,
) -> tuple[float, float, float, float]:
    # Swing: 2H d(df)/dt = p_mech + p_ev - disturbance - D*df
    # Governor: TG d(pg)/dt = -df/R - pg
    # Turbine: TT d(pm)/dt = pg - pm
    # EV lag:  TEV d(pev)/dt = command - pev
    return (
        (p_mech + p_ev - disturbance_pu - damping * delta_f) / two_h,
        (-delta_f * inv_droop - p_gov) / t_gov,
        (p_gov - p_mech) / t_turb,
        (ev_command_pu - p_ev) / t_ev,
    )


def swing_derivative(
    state: GridState,
    disturbance_pu: float,
    ev_command_pu: float,
    params: GridParameters,
) -> GridStateDerivative:
    """Right-hand side of the frequency dynamics at the given state.

    Positive disturbance means lost generation; positive command means grid
    support (shed load and/or injection). The mean SoC derivative is owned by
    the fleet coupling in the simulator, not by this function.
    """
    d = _rhs(
        state.delta_f_pu,
        state.p_gov_pu,
        state.p_mech_pu,
        state.p_ev_pu,
        disturbance_pu,
        ev_command_pu,
        2.0 * params.h_eff_s,
        params.damping_pu,
        1.0 / params.droop_pu,
        params.t_governor_s,
        params.t_turbine_s,
        params.t_ev_s,
    )
    return GridStateDerivative(*d)


def to_per_unit(power_mw: float, params: GridParameters) -> float:
    """Convert MW to per-unit on the grid power base."""
    return power_mw / params.s_base_mw


def steady_state_deviation(net_disturbance_pu: float, params: GridParameters) -> float:
    """Post-primary-response equilibrium frequency deviation, in Hz.

    Closed form for the constant-input equilibrium of the dynamics:
    df_pu = -net_disturbance / (D + 1/R). No integration involved, so this
    doubles as an independent oracle for the simulator's late-horizon state.
    """
    denom = params.damping_pu + 1.0 / params.droop_pu
    if denom == 0.0:
        raise ValueError("steady state undefined: D + 1/R must be nonzero")
    return params.f_nominal_hz * (-net_disturbance_pu / denom)
