"""Coupled grid-fleet-controller simulation and experiment drivers.

A contingency scenario is integrated with fixed-step classical RK4. The
disturbance is a pure generation-loss step; the controller threshold check
and command update happen once per step at the step boundary and are held
constant within the step. Participation sweeps and the 96-interval daily
nadir scan are both one scenario grid, whose cells are stepped together as
numpy arrays by the same arithmetic, with results in input-grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .controller import (
    ControlMode,
    ControllerConfig,
    ev_power_command,
    latched,
    soc_rate_under_command,
)
from .fleet import (
    ChargingStrategy,
    FleetConfig,
    fleet_state_at,
)
from .grid import (
    CALIFORNIA_LOW_INERTIA_MIX,
    GenerationMix,
    GenerationSource,
    GridParameters,
    grid_from_mix,
    grid_from_preset,
    read_table,
    _rhs,
)
from . import metrics as metrics_mod

BUNDLED_DAY_PROFILE = "california_day_synthetic.csv"


class IntegrationError(RuntimeError):
    """The integrator produced a non-finite state.

    From evaluate_scenarios, cell is the index of the diverged scenario.
    """

    def __init__(self, step_index: int, time_s: float, cell: int | None = None):
        super().__init__(
            f"non-finite state at step {step_index} (t = {time_s:.4f} s); "
            "check parameters for stiffness or bad magnitudes"
        )
        self.step_index = step_index
        self.time_s = time_s
        self.cell = cell


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
    """Uniformly sampled state time series of one simulation.

    latch_time_s is the first sample time at which the latch was on (the
    trigger time), or None if it never switched on.
    """

    times_s: np.ndarray
    frequency_hz: np.ndarray
    p_mech_pu: np.ndarray
    p_ev_pu: np.ndarray
    mean_soc: np.ndarray
    latch_time_s: float | None
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


class _Cell(NamedTuple):
    """The constants of one integration, shared by simulate and the grid
    kernel: floats for one cell, or one array per field for a batch."""

    f0: float
    two_h: float
    damping: float
    inv_droop: float
    t_gov: float
    t_turb: float
    t_ev: float
    dp_pu: float
    threshold_hz: float
    latch_on: bool
    soc_reserve: float
    soc0: float
    # Per-unit command and mean SoC rate, indexed by the gate
    # 2 * triggered + (soc > soc_reserve).
    commands: tuple[float, float, float, float]
    soc_rates: tuple[float, float, float, float]


def _cell(scenario: Scenario) -> _Cell:
    grid = scenario.resolved_grid()
    fleet = scenario.fleet
    controller = scenario.controller
    fs0 = fleet_state_at(scenario.clock_min, fleet)
    # The command depends on the state only through the latch and the SoC
    # reserve gate, so it is tabulated per gate, still computed by the
    # controller functions themselves. They read the SoC only against the
    # reserve, so SoC 0 stands for "at or below" it and SoC 1 for "above" it
    # (an entry that a reserve of 1 never selects).
    commands, soc_rates = [], []
    for triggered in (False, True):
        for soc in (0.0, 1.0):
            fs = replace(fs0, mean_soc=soc)
            cmd_mw = ev_power_command(triggered, controller, fs, fleet)
            commands.append(cmd_mw / grid.s_base_mw)
            soc_rates.append(soc_rate_under_command(cmd_mw, fs, fleet))
    return _Cell(
        f0=grid.f_nominal_hz,
        two_h=2.0 * grid.h_eff_s,
        damping=grid.damping_pu,
        inv_droop=1.0 / grid.droop_pu,
        t_gov=grid.t_governor_s,
        t_turb=grid.t_turbine_s,
        t_ev=grid.t_ev_s,
        dp_pu=scenario.disturbance_mw / grid.s_base_mw,
        threshold_hz=controller.threshold_hz,
        latch_on=controller.latch_on,
        soc_reserve=fleet.vehicle.soc_reserve,
        soc0=fs0.mean_soc,
        commands=tuple(commands),
        soc_rates=tuple(soc_rates),
    )


def _rk4_step(df, pg, pm, pev, d, cmd_pu, dt, two_h, damping, inv_droop, t_gov, t_turb, t_ev):
    """One classical RK4 step of the four grid deviation states, with the
    disturbance and the command held over the step.

    Elementwise only: simulate passes floats and the grid kernel passes one
    array entry per cell, and each cell gets the same bits either way.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
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
    return (
        df + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        pg + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        pm + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
        pev + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]),
    )


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate one scenario and return the sampled trajectory.

    Deterministic: identical scenarios produce bit-identical trajectories.
    Fleet availability (plugged count and window charging power) is frozen at
    the scenario clock for the duration of the horizon; the mean SoC evolves
    with the realized command.
    """
    c = _cell(scenario)
    dt = scenario.step_s
    n_steps = int(round(scenario.horizon_s / dt))
    event_time = scenario.event_time_s
    f0, dp_pu, reserve = c.f0, c.dp_pu, c.soc_reserve
    threshold_hz, latch_on = c.threshold_hz, c.latch_on
    commands, soc_rates = c.commands, c.soc_rates
    two_h, damping, inv_droop = c.two_h, c.damping, c.inv_droop
    t_gov, t_turb, t_ev = c.t_gov, c.t_turb, c.t_ev

    times = np.arange(n_steps + 1) * dt
    freq = np.empty(n_steps + 1)
    p_mech_out = np.empty(n_steps + 1)
    p_ev_out = np.empty(n_steps + 1)
    soc_out = np.empty(n_steps + 1)

    df = pg = pm = pev = 0.0
    soc = c.soc0
    triggered = False
    latch_time = None
    isfinite = math.isfinite

    for k in range(n_steps + 1):
        t = k * dt
        f = f0 * (1.0 + df)
        triggered = latched(f, threshold_hz, triggered, latch_on)
        if triggered and latch_time is None:
            latch_time = t
        freq[k] = f
        p_mech_out[k] = pm
        p_ev_out[k] = pev
        soc_out[k] = soc
        if k == n_steps:
            break

        gate = 2 * triggered + (soc > reserve)
        d = dp_pu if t >= event_time else 0.0
        df, pg, pm, pev = _rk4_step(
            df, pg, pm, pev, d, commands[gate], dt,
            two_h, damping, inv_droop, t_gov, t_turb, t_ev,
        )
        # Command and SoC rate are held over the step, so the SoC update is
        # exact linear integration; the clip stops charging at full and
        # discharging at empty.
        soc = min(1.0, max(0.0, soc + soc_rates[gate] * dt))
        if not (isfinite(df) and isfinite(pg) and isfinite(pm) and isfinite(pev)):
            raise IntegrationError(k + 1, t + dt)

    return Trajectory(
        times_s=times,
        frequency_hz=freq,
        p_mech_pu=p_mech_out,
        p_ev_pu=p_ev_out,
        mean_soc=soc_out,
        latch_time_s=latch_time,
        event_time_s=event_time,
    )


# ---------------------------------------------------------------------------
# Scenario grids

# The settling scan keeps each cell's frequency range per block of samples,
# so that only the samples up to the last block outside the band need a
# second pass. More blocks shorten that pass but cost memory per cell: at 64
# the 960-cell daily grid peaked 1.3 MB higher than at 16, for the same pass.
_SETTLING_BLOCKS = 16


def _step_cells(cells: _Cell, dt: float, event_time_s: float, n_samples: int, observe):
    """Step a batch of cells together with the arithmetic of simulate.

    Calls observe(k, f) with every cell's frequency at sample k, for k in
    range(n_samples), and returns the deviation states at the last sample.
    The latch is a mask, advanced by the rule simulate uses.
    """
    n = len(cells.f0)
    rows = np.arange(n)
    df = pg = pm = pev = np.zeros(n)
    soc = cells.soc0
    triggered = np.zeros(n, dtype=bool)
    for k in range(n_samples):
        t = k * dt
        f = cells.f0 * (1.0 + df)
        triggered = latched(f, cells.threshold_hz, triggered, cells.latch_on)
        observe(k, f)
        if k == n_samples - 1:
            break
        gate = 2 * triggered + (soc > cells.soc_reserve)
        d = cells.dp_pu if t >= event_time_s else 0.0
        df, pg, pm, pev = _rk4_step(
            df, pg, pm, pev, d, cells.commands[rows, gate], dt,
            cells.two_h, cells.damping, cells.inv_droop,
            cells.t_gov, cells.t_turb, cells.t_ev,
        )
        soc = np.minimum(1.0, np.maximum(0.0, soc + cells.soc_rates[rows, gate] * dt))
    return df, pg, pm, pev


class _MetricStreams:
    """What metrics.evaluate reads from a trajectory, gathered sample by
    sample for a batch of cells on the time grid of `first` without keeping
    their trajectories.

    Built before the batch runs, so that a metric setting the time grid
    cannot serve is rejected first.
    """

    def __init__(self, first: Scenario, n_cells: int, settings: metrics_mod.MetricsConfig):
        dt, event_time_s = first.step_s, first.event_time_s
        self.dt, self.event_time_s = dt, event_time_s
        n_samples = int(round(first.horizon_s / dt)) + 1
        self.times = times = np.arange(n_samples) * dt
        self.f_min = np.full(n_cells, np.inf)
        self.i_min = np.zeros(n_cells, dtype=np.int64)
        # The highest sample after the current minimum; -inf while none.
        self.f_max_after = np.full(n_cells, -np.inf)
        self.i0, self.i1, step = metrics_mod.rocof_window(
            times, event_time_s, settings.rocof_window_s
        )
        self.two_steps = 2.0 * step
        self.rocof = np.full(n_cells, np.inf)
        self.prev = self.prev2 = None
        n_tail = metrics_mod.tail_count(n_samples, settings.tail_fraction)
        self.tail = np.empty((n_cells, n_tail))
        self.tail_start = n_samples - n_tail
        self.block = -(-n_samples // _SETTLING_BLOCKS)
        n_blocks = -(-n_samples // self.block)
        self.block_min = np.full((n_blocks, n_cells), np.inf)
        self.block_max = np.full((n_blocks, n_cells), -np.inf)

    def __call__(self, k: int, f: np.ndarray) -> None:
        lower = f < self.f_min
        self.f_min = np.minimum(self.f_min, f)
        self.i_min = np.where(lower, k, self.i_min)
        self.f_max_after = np.where(lower, -np.inf, np.maximum(self.f_max_after, f))
        # The centered difference about sample k - 1.
        if self.i0 < k <= self.i1 + 1:
            self.rocof = np.minimum(self.rocof, (f - self.prev2) / self.two_steps)
        self.prev2, self.prev = self.prev, f
        if k >= self.tail_start:
            self.tail[:, k - self.tail_start] = f
        b = k // self.block
        np.minimum(self.block_min[b], f, out=self.block_min[b])
        np.maximum(self.block_max[b], f, out=self.block_max[b])

    def results(self, cells: _Cell, band_hz: float) -> list[metrics_mod.FrequencyMetrics]:
        """The metrics of every cell, once all samples of `cells` were seen."""
        times = self.times
        f_ss = np.array([np.mean(row) for row in self.tail])
        # The last block holding a sample outside the band, or -1. Exact,
        # because rounding keeps f - f_ss monotone in f, so a block's extremes
        # bound the deviation of all its samples.
        outside = (np.abs(self.block_max - f_ss) > band_hz) | (
            np.abs(self.block_min - f_ss) > band_hz
        )
        last_block = np.where(
            outside.any(axis=0), len(outside) - 1 - np.argmax(outside[::-1], axis=0), -1
        )
        ends_outside = np.abs(self.tail[:, -1] - f_ss) > band_hz
        # The settling sample of the other cells lies in that block: replay
        # them up to its end.
        replay = np.flatnonzero((last_block >= 0) & ~ends_outside)
        last_outside = np.full(len(f_ss), -1)
        if len(replay):
            replay_f_ss = f_ss[replay]
            replay_last = np.full(len(replay), -1)

            def track(k: int, f: np.ndarray) -> None:
                nonlocal replay_last
                replay_last = np.where(np.abs(f - replay_f_ss) > band_hz, k, replay_last)

            n_samples = min(len(times), (int(last_block[replay].max()) + 1) * self.block)
            subset = _Cell(*(field[replay] for field in cells))
            _step_cells(subset, self.dt, self.event_time_s, n_samples, track)
            last_outside[replay] = replay_last

        results = []
        for c in range(len(f_ss)):
            if last_block[c] < 0:
                settling = float(times[0])
            elif ends_outside[c]:
                settling = None
            else:
                settling = float(times[last_outside[c] + 1])
            f_max_after = self.f_max_after[c]
            results.append(
                metrics_mod.FrequencyMetrics(
                    nadir_hz=float(self.f_min[c]),
                    nadir_time_s=float(times[self.i_min[c]]),
                    rocof_hz_per_s=float(self.rocof[c]),
                    overshoot_hz=(
                        0.0
                        if f_max_after == -np.inf
                        else max(0.0, float(f_max_after - f_ss[c]))
                    ),
                    settling_time_s=settling,
                    f_steady_state_hz=float(f_ss[c]),
                )
            )
        return results


def evaluate_scenarios(
    scenarios: list[Scenario], settings: metrics_mod.MetricsConfig = metrics_mod.MetricsConfig()
) -> list[metrics_mod.FrequencyMetrics]:
    """Simulate and score a list of scenarios, preserving input order.

    Every result equals metrics.evaluate(simulate(cell)) with the same
    settings, bit for bit. The cells must share one time grid (step, horizon
    and event time). They are stepped together as arrays by the arithmetic
    of simulate, which is elementwise, so a cell's result does not depend on
    the batch it runs in. The time grid, the settings and every cell are
    checked before any cell runs. A divergence is reported as the
    IntegrationError of the first diverged cell in input order, with its
    index as the error's cell.
    """
    if not scenarios:
        return []
    grids = [(s.step_s, s.horizon_s, s.event_time_s) for s in scenarios]
    for i, grid in enumerate(grids):
        if grid != grids[0]:
            raise ValueError(
                "scenarios must share one time grid (step_s, horizon_s, event_time_s): "
                f"scenario {i} has {grid}, scenario 0 has {grids[0]}"
            )
    streams = _MetricStreams(scenarios[0], len(scenarios), settings)
    batch = _Cell(*(np.array(f) for f in zip(*map(_cell, scenarios))))
    # A non-finite state stays non-finite under these updates, so one check
    # after the last step finds every cell that simulate stops.
    with np.errstate(over="ignore", invalid="ignore"):
        state = _step_cells(
            batch, streams.dt, streams.event_time_s, len(streams.times), streams
        )
    finite = np.isfinite(np.array(state)).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        try:
            simulate(scenarios[i])
        except IntegrationError as exc:
            raise IntegrationError(exc.step_index, exc.time_s, i) from None
        raise RuntimeError("grid kernel diverged where simulate did not")
    return streams.results(batch, settings.settling_band_hz)


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


# The columns of a day profile, all numbers: the clock, then the power of
# each source of the bundled California mix, which gives every row its
# inertia constants.
DAY_PROFILE_COLUMNS = dict.fromkeys(
    ["clock_min", *(f"{s.name}_mw" for s in CALIFORNIA_LOW_INERTIA_MIX.sources)], float
)


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
        seen: dict[float, int] = {}
        for i, row in enumerate(self.rows, start=1):
            if row.clock_min in seen:
                raise ValueError(
                    f"day profile row {i}: duplicate clock_min {row.clock_min:g} "
                    f"(first at row {seen[row.clock_min]})"
                )
            seen[row.clock_min] = i
            expected = 15.0 * (i - 1)
            if row.clock_min != expected:
                raise ValueError(
                    f"day profile row {i}: expected clock_min {expected:g}, "
                    f"got {row.clock_min:g}"
                )


def day_profile_row(clock_min: float, *powers: float) -> DayProfileRow:
    """A day-profile row from its values, in DAY_PROFILE_COLUMNS order."""
    sources = tuple(
        GenerationSource(s.name, s.inertia_s, power)
        for s, power in zip(CALIFORNIA_LOW_INERTIA_MIX.sources, powers, strict=True)
    )
    return DayProfileRow(clock_min, GenerationMix(sources))


def day_profile_values(row: DayProfileRow) -> list[float]:
    """The values of a day-profile row, in DAY_PROFILE_COLUMNS order; the
    arguments of day_profile_row."""
    by_name = {s.name: s.power_mw for s in row.mix.sources}
    return [row.clock_min, *(by_name[s.name] for s in CALIFORNIA_LOW_INERTIA_MIX.sources)]


def bundled_day_profile() -> DayProfile:
    """The packaged synthetic California day profile."""
    path = Path(resources.files("fleetfreq").joinpath("data", BUNDLED_DAY_PROFILE))
    return DayProfile(read_table(path, DAY_PROFILE_COLUMNS, day_profile_row, "day_profile"))
