"""Coupled grid-fleet-controller simulation and experiment drivers.

A contingency scenario is integrated with fixed-step classical RK4. The
disturbance is a pure generation-loss step; the controller threshold check
and command update happen once per step at the step boundary and are held
constant within the step. Participation sweeps and the 96-interval daily
nadir scan are both one scenario grid, evaluated cell by cell (optionally in
a process pool) with results assembled in input-grid order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import (
    ControlMode,
    ControllerConfig,
    EventLatch,
    detect_event,
    ev_power_command,
    soc_rate_under_command,
)
from .fleet import (
    ChargingStrategy,
    FleetConfig,
    FleetState,
    charging_window,
    fleet_state_at,
)
from .grid import (
    GenerationMix,
    GenerationSource,
    GridParameters,
    grid_from_mix,
    grid_from_preset,
    _rhs,
)
from . import metrics as metrics_mod

DAY_PROFILE_HEADER = [
    "clock_min",
    "coal_mw",
    "natural_gas_mw",
    "nuclear_mw",
    "petroleum_mw",
    "wind_solar_mw",
    "hydro_mw",
    "other_mw",
]

# Inertia constants by day-profile column; wind/solar and "other" are
# inverter-interfaced and carry no rotating mass.
DAY_SOURCE_INERTIA_S = {
    "coal_mw": 2.6,
    "natural_gas_mw": 4.9,
    "nuclear_mw": 4.1,
    "petroleum_mw": 3.6,
    "wind_solar_mw": 0.0,
    "hydro_mw": 2.4,
    "other_mw": 0.0,
}

BUNDLED_DAY_PROFILE = "california_day_synthetic.csv"


class IntegrationError(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, step_index: int, time_s: float):
        super().__init__(
            f"non-finite state at step {step_index} (t = {time_s:.4f} s); "
            "check parameters for stiffness or bad magnitudes"
        )
        self.step_index = step_index
        self.time_s = time_s


@dataclass(frozen=True)
class Scenario:
    """One contingency experiment.

    When a generation mix is attached, h_eff_s and s_base_mw are derived from
    it and override the plain grid values.
    """

    grid: GridParameters
    fleet: FleetConfig
    controller: ControllerConfig
    mix: GenerationMix | None = None
    disturbance_mw: float = 1800.0
    event_time_s: float = 0.0
    clock_min: float = 1200.0
    horizon_s: float = 60.0
    step_s: float = 0.01

    def __post_init__(self) -> None:
        if self.step_s <= 0.0:
            raise ValueError("step_s must be > 0")
        if self.horizon_s < 10.0 * self.step_s:
            raise ValueError("horizon_s must cover at least 10 steps")
        n = self.horizon_s / self.step_s
        if abs(n - round(n)) > 1e-9:
            raise ValueError("step_s must divide horizon_s")
        if self.disturbance_mw < 0.0:
            raise ValueError("disturbance_mw must be >= 0")
        if not 0.0 <= self.event_time_s < self.horizon_s:
            raise ValueError("event_time_s must lie in [0, horizon_s)")
        if not 0.0 <= self.clock_min < 1440.0:
            raise ValueError("clock_min must lie in [0, 1440)")
        if self.controller.threshold_hz >= self.grid.f_nominal_hz:
            raise ValueError("threshold_hz must be below nominal frequency")

    def resolved_grid(self) -> GridParameters:
        if self.mix is None:
            return self.grid
        return grid_from_mix(self.mix, self.grid)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state time series of one simulation."""

    times_s: np.ndarray
    frequency_hz: np.ndarray
    p_mech_pu: np.ndarray
    p_ev_pu: np.ndarray
    mean_soc: np.ndarray
    latch_time_s: float | None
    f_nominal_hz: float = 60.0
    event_time_s: float = 0.0

    def __len__(self) -> int:
        return len(self.times_s)


def default_scenario(**overrides) -> Scenario:
    """The documented default: California low-inertia base, reported-inertia
    preset, 1,800 MW loss at t = 0 during the 20:00 charging peak, and no
    enrolled fleet response until participation is raised."""
    base = dict(
        grid=grid_from_preset("table2_reported"),
        fleet=FleetConfig(),
        controller=ControllerConfig(),
    )
    base.update(overrides)
    return Scenario(**base)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate one scenario and return the sampled trajectory.

    Deterministic: identical scenarios produce bit-identical trajectories.
    Fleet availability (plugged count and window charging power) is frozen at
    the scenario clock for the duration of the horizon; the mean SoC evolves
    with the realized command.
    """
    grid = scenario.resolved_grid()
    fleet = scenario.fleet
    controller = scenario.controller
    charging_window(fleet.strategy, fleet.vehicle)  # surface infeasibility early
    fs0 = fleet_state_at(scenario.clock_min, fleet)

    dt = scenario.step_s
    n_steps = int(round(scenario.horizon_s / dt))
    f0 = grid.f_nominal_hz
    s_base = grid.s_base_mw
    two_h = 2.0 * grid.h_eff_s
    damping = grid.damping_pu
    inv_droop = 1.0 / grid.droop_pu
    t_gov = grid.t_governor_s
    t_turb = grid.t_turbine_s
    t_ev = grid.t_ev_s
    dp_pu = scenario.disturbance_mw / s_base
    event_time = scenario.event_time_s
    clock = scenario.clock_min
    plugged = fs0.plugged_count
    charge_kw = fs0.charging_power_kw
    reserve = fleet.vehicle.soc_reserve

    times = np.empty(n_steps + 1)
    freq = np.empty(n_steps + 1)
    p_mech_out = np.empty(n_steps + 1)
    p_ev_out = np.empty(n_steps + 1)
    soc_out = np.empty(n_steps + 1)

    df = pg = pm = pev = 0.0
    soc = fs0.mean_soc
    latch = EventLatch()
    # The command depends on the state only through the latch and the SoC
    # reserve gate, so command and SoC rate are cached per gate combination
    # and still computed by the controller functions themselves.
    cmd_cache: dict[tuple[bool, bool], tuple[float, float]] = {}

    isfinite = math.isfinite
    half = 0.5 * dt
    sixth = dt / 6.0

    for k in range(n_steps + 1):
        t = k * dt
        f = f0 * (1.0 + df)
        latch = detect_event(f, controller, latch, t)
        times[k] = t
        freq[k] = f
        p_mech_out[k] = pm
        p_ev_out[k] = pev
        soc_out[k] = soc
        if k == n_steps:
            break

        gate = (latch.triggered, soc > reserve)
        cached = cmd_cache.get(gate)
        if cached is None:
            fs = FleetState(clock, plugged, charge_kw, min(1.0, max(0.0, soc)))
            cmd_mw = ev_power_command(latch, controller, fs, fleet)
            rate = soc_rate_under_command(cmd_mw, fs, fleet)
            cached = (cmd_mw / s_base, rate)
            cmd_cache[gate] = cached
        cmd_pu, soc_rate = cached
        if soc >= 1.0 and soc_rate > 0.0:
            soc_rate = 0.0
        elif soc <= 0.0 and soc_rate < 0.0:
            soc_rate = 0.0
        d = dp_pu if t >= event_time else 0.0

        k1 = _rhs(df, pg, pm, pev, d, cmd_pu, two_h, damping, inv_droop, t_gov, t_turb, t_ev)
        k2 = _rhs(
            df + half * k1[0], pg + half * k1[1], pm + half * k1[2], pev + half * k1[3],
            d, cmd_pu, two_h, damping, inv_droop, t_gov, t_turb, t_ev,
        )
        k3 = _rhs(
            df + half * k2[0], pg + half * k2[1], pm + half * k2[2], pev + half * k2[3],
            d, cmd_pu, two_h, damping, inv_droop, t_gov, t_turb, t_ev,
        )
        k4 = _rhs(
            df + dt * k3[0], pg + dt * k3[1], pm + dt * k3[2], pev + dt * k3[3],
            d, cmd_pu, two_h, damping, inv_droop, t_gov, t_turb, t_ev,
        )
        df += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        pg += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        pm += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        pev += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        # Command and SoC rate are held over the step, so the SoC update is
        # exact linear integration.
        soc = min(1.0, max(0.0, soc + soc_rate * dt))
        if not (isfinite(df) and isfinite(pg) and isfinite(pm) and isfinite(pev)):
            raise IntegrationError(k + 1, t + dt)

    return Trajectory(
        times_s=times,
        frequency_hz=freq,
        p_mech_pu=p_mech_out,
        p_ev_pu=p_ev_out,
        mean_soc=soc_out,
        latch_time_s=latch.trigger_time_s,
        f_nominal_hz=f0,
        event_time_s=event_time,
    )


# ---------------------------------------------------------------------------
# Scenario grids


def _simulate_metrics(task) -> metrics_mod.FrequencyMetrics:
    scenario, rocof_window_s, settling_band_hz, tail_fraction = task
    traj = simulate(scenario)
    return metrics_mod.evaluate(traj, rocof_window_s, settling_band_hz, tail_fraction)


def evaluate_scenarios(
    scenarios: list[Scenario],
    workers: int = 1,
    rocof_window_s: float = metrics_mod.DEFAULT_ROCOF_WINDOW_S,
    settling_band_hz: float = metrics_mod.DEFAULT_SETTLING_BAND_HZ,
    tail_fraction: float = metrics_mod.DEFAULT_TAIL_FRACTION,
) -> list[metrics_mod.FrequencyMetrics]:
    """Simulate and score a list of scenarios, preserving input order.

    Cells are independent; with workers > 1 they run in a process pool and
    the results are still assembled in input order, so the output does not
    depend on the worker count.
    """
    tasks = [(s, rocof_window_s, settling_band_hz, tail_fraction) for s in scenarios]
    if workers <= 1 or len(tasks) <= 1:
        return [_simulate_metrics(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_simulate_metrics, tasks))


def scenario_grid(
    base: Scenario,
    levels: list[float],
    modes: list[ControlMode],
    strategies: list[ChargingStrategy] | None = None,
    day: DayProfile | None = None,
) -> list[Scenario]:
    """The scenario grid of a participation sweep or a daily scan.

    Cells are ordered clock-major, then by strategy, mode and level. Without
    a day profile there is one clock, the base clock and mix; with one, each
    profile row sets the mix (and so the inertia and power base) and the
    clock (and so the fleet state). strategies=None keeps the base fleet's.
    Each cell's key is in its own scenario: fleet.strategy, clock_min,
    controller.mode and controller.participation.
    """
    if not levels:
        raise ValueError("levels must be nonempty")
    for level in levels:
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"participation level {level} outside [0, 1]")
    if not modes:
        raise ValueError("modes must be nonempty")
    if strategies is None:
        strategies = [base.fleet.strategy]
    if not strategies:
        raise ValueError("strategies must be nonempty")
    if day is None:
        clocks = [(base.clock_min, base.mix)]
    else:
        clocks = [(row.clock_min, row.mix) for row in day.rows]
    return [
        replace(
            base,
            mix=mix,
            clock_min=clock,
            fleet=replace(base.fleet, strategy=strategy),
            controller=replace(base.controller, mode=mode, participation=level),
        )
        for clock, mix in clocks
        for strategy in strategies
        for mode in modes
        for level in levels
    ]


# ---------------------------------------------------------------------------
# Day profiles


@dataclass(frozen=True)
class DayProfileRow:
    clock_min: float
    mix: GenerationMix


@dataclass(frozen=True)
class DayProfile:
    """96 generation mixes, one per 15-minute interval of a day."""

    rows: tuple[DayProfileRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != 96:
            raise ValueError(f"day profile needs exactly 96 rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            expected = 15.0 * i
            if row.clock_min != expected:
                raise ValueError(
                    f"day profile row {i + 1}: expected clock_min {expected:g}, "
                    f"got {row.clock_min:g}"
                )

    def row_at(self, clock_min: float) -> DayProfileRow:
        i = int(clock_min // 15.0)
        return self.rows[i]


def _mix_from_day_values(values: dict[str, float]) -> GenerationMix:
    sources = tuple(
        GenerationSource(col[:-3], DAY_SOURCE_INERTIA_S[col], values[col])
        for col in DAY_PROFILE_HEADER[1:]
    )
    return GenerationMix(sources)


def load_day_profile_csv(path: str | Path) -> DayProfile:
    """Read a 96-row day profile; rejects bad headers, duplicate or
    out-of-order clocks, and wrong row counts, naming the offending row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        raw = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not raw:
        raise ValueError(f"{path}: empty day profile")
    header = [c.strip() for c in raw[0]]
    if header != DAY_PROFILE_HEADER:
        raise ValueError(
            f"{path}: expected header {','.join(DAY_PROFILE_HEADER)}, "
            f"got {','.join(header)}"
        )
    rows = []
    seen: dict[float, int] = {}
    for i, row in enumerate(raw[1:], start=1):
        if len(row) != len(DAY_PROFILE_HEADER):
            raise ValueError(f"{path}: data row {i}: expected 8 columns")
        try:
            clock = float(row[0])
            values = {
                col: float(cell) for col, cell in zip(DAY_PROFILE_HEADER[1:], row[1:])
            }
        except ValueError as exc:
            raise ValueError(f"{path}: data row {i}: {exc}") from exc
        if clock in seen:
            raise ValueError(
                f"{path}: data row {i}: duplicate clock_min {clock:g} "
                f"(first at data row {seen[clock]})"
            )
        seen[clock] = i
        try:
            rows.append(DayProfileRow(clock, _mix_from_day_values(values)))
        except ValueError as exc:
            raise ValueError(f"{path}: data row {i}: {exc}") from exc
    try:
        return DayProfile(tuple(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def synthetic_california_day(solar_peak_mw: float = 6000.0) -> DayProfile:
    """Synthetic daily mix built around the bundled low-inertia evening hour.

    The 20:00 interval reproduces the California dataset exactly. All other
    intervals apply a synthetic midday solar curve (sin^2 between 06:00 and
    19:00) that displaces natural gas one-for-one, so total generation stays
    constant while effective inertia dips through the middle of the day. The
    curve is illustrative, not measured data.
    """
    base = {
        "coal_mw": 1166.0,
        "natural_gas_mw": 12996.0,
        "nuclear_mw": 1147.0,
        "petroleum_mw": 88.0,
        "wind_solar_mw": 809.0,
        "hydro_mw": 3115.0,
        "other_mw": 509.0,
    }
    rows = []
    for i in range(96):
        clock = 15.0 * i
        hours = clock / 60.0
        if 6.0 <= hours <= 19.0:
            solar = solar_peak_mw * math.sin(math.pi * (hours - 6.0) / 13.0) ** 2
        else:
            solar = 0.0
        solar = round(solar, 6)
        values = dict(base)
        values["wind_solar_mw"] = round(base["wind_solar_mw"] + solar, 6)
        values["natural_gas_mw"] = round(base["natural_gas_mw"] - solar, 6)
        rows.append(DayProfileRow(clock, _mix_from_day_values(values)))
    return DayProfile(tuple(rows))


def day_profile_csv_text(day: DayProfile, comments: list[str] | None = None) -> str:
    """Render a day profile in its CSV interchange format."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(DAY_PROFILE_HEADER))
    for row in day.rows:
        by_name = {f"{s.name}_mw": s.power_mw for s in row.mix.sources}
        cells = [f"{row.clock_min:.6f}"] + [
            f"{by_name[col]:.6f}" for col in DAY_PROFILE_HEADER[1:]
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def bundled_day_profile() -> DayProfile:
    """The packaged synthetic California day profile."""
    return load_day_profile_csv(
        Path(resources.files("fleetfreq").joinpath("data", BUNDLED_DAY_PROFILE))
    )
