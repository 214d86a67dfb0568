"""Coupled grid-fleet-controller simulation and experiment drivers.

A contingency scenario is integrated with fixed-step classical RK4. The
disturbance is a pure generation-loss step; the controller threshold check
and command update happen once per step at the step boundary and are held
constant within the step. The model is linear, so each RK4 step is taken as
one affine map per cell, built once from grid._rhs. Participation sweeps and
the 96-interval daily nadir scan are both one scenario grid, whose cells are
stepped together as numpy arrays by the same arithmetic, with results in
input-grid order. The grid kernel updates its state in place and hands the
metrics the frequencies of a chunk of samples at a time, which the metrics
fold in with exact reductions, keeping only the RoCoF window and the tail.

simulate is pure Python and returns its series as array('d') buffers. numpy
is imported inside the functions that step a grid or score it, so a single
trajectory runs without loading it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

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

if TYPE_CHECKING:
    import numpy as np

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
            raise ValueError(
                f"controller.threshold_hz ({self.controller.threshold_hz!r}) must be "
                f"below grid.f_nominal_hz ({self.grid.f_nominal_hz!r})"
            )

    def resolved_grid(self) -> GridParameters:
        if self.mix is None:
            return self.grid
        return grid_from_mix(self.mix, self.grid)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state time series of one simulation.

    simulate gives the five series as array('d') buffers; np.asarray(series)
    views one as a float64 array without a copy, for numpy operations.
    latch_time_s is the first sample time at which the latch was on (the
    trigger time), or None if it never switched on.
    """

    times_s: array
    frequency_hz: array
    p_mech_pu: array
    p_ev_pu: array
    mean_soc: array
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
    # 2 * triggered + (soc > soc_reserve); in a batch, one row per gate.
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


def _matmul(a, b):
    """The product of a 4x4 matrix and a matrix of 4 rows, both given as
    lists of rows, with each entry summed in a fixed order."""
    return [
        [
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] + a[i][3] * b[3][j]
            for j in range(len(b[0]))
        ]
        for i in range(4)
    ]


def _affine_map(c: _Cell, dt):
    """One classical RK4 step of the four grid deviation states, as the map
    x -> phi x + offsets[event][gate].

    The model is linear and the disturbance (0 before the event, dp_pu from
    it) and the command of the gate are held over the step, so RK4 is exactly
    phi = I + hA psi and offset = psi (hB_d d + hB_c cmd), with
    psi = I + hA/2 (I + hA/3 (I + hA/4)) (the RK4 stability polynomial). The
    columns of hA and the input vectors hB_d and hB_c come from _rhs on unit
    states and unit inputs, so _rhs stays the one definition of the model.

    phi is a 4x4 list of rows, each offset a list of 4 values. Elementwise
    only: simulate passes floats and the grid kernel one array per field,
    and each cell's map has the same bits either way.
    """
    model = (c.two_h, c.damping, c.inv_droop, c.t_gov, c.t_turb, c.t_ev)
    eye = [[float(i == j) for j in range(4)] for i in range(4)]
    # Column j of hA is h times the derivative at unit state j; the columns
    # of hB are h times the derivatives at a unit disturbance and command.
    columns = (_rhs(*unit, 0.0, 0.0, *model) for unit in eye)
    ha = [[dt * a for a in row] for row in zip(*columns)]
    unit_d = _rhs(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, *model)
    unit_cmd = _rhs(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, *model)
    hb = [[dt * d, dt * cmd] for d, cmd in zip(unit_d, unit_cmd)]
    # Horner form; each comprehension drops the product it sums, which keeps
    # a batch's temporaries few.
    psi = eye
    for m in (4.0, 3.0, 2.0):
        psi = [
            [eye[i][j] + p / m for j, p in enumerate(row)]
            for i, row in enumerate(_matmul(ha, psi))
        ]
    phi = [[eye[i][j] + p for j, p in enumerate(row)] for i, row in enumerate(_matmul(ha, psi))]
    g = _matmul(psi, hb)
    offsets = [
        [[g_d * d + g_c * c.commands[gate] for g_d, g_c in g] for gate in range(4)]
        for d in (0.0, c.dp_pu)
    ]
    return phi, offsets


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
    f0, reserve, soc_rates = c.f0, c.soc_reserve, c.soc_rates
    threshold_hz, latch_on = c.threshold_hz, c.latch_on
    phi, offsets = _affine_map(c, dt)
    (p00, p01, p02, p03), (p10, p11, p12, p13) = phi[:2]
    (p20, p21, p22, p23), (p30, p31, p32, p33) = phi[2:]

    series = [array("d") for _ in range(5)]
    put_t, put_f, put_pm, put_pev, put_soc = (buf.append for buf in series)

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
        put_t(t)
        put_f(f)
        put_pm(pm)
        put_pev(pev)
        put_soc(soc)
        if k == n_steps:
            break

        gate = 2 * triggered + (soc > reserve)
        o0, o1, o2, o3 = offsets[t >= event_time][gate]
        df, pg, pm, pev = (
            p00 * df + p01 * pg + p02 * pm + p03 * pev + o0,
            p10 * df + p11 * pg + p12 * pm + p13 * pev + o1,
            p20 * df + p21 * pg + p22 * pm + p23 * pev + o2,
            p30 * df + p31 * pg + p32 * pm + p33 * pev + o3,
        )
        # Command and SoC rate are held over the step, so the SoC update is
        # exact linear integration; the clip stops charging at full and
        # discharging at empty.
        soc = min(1.0, max(0.0, soc + soc_rates[gate] * dt))
        if not (isfinite(df) and isfinite(pg) and isfinite(pm) and isfinite(pev)):
            raise IntegrationError(k + 1, t + dt)

    return Trajectory(*series, latch_time_s=latch_time, event_time_s=event_time)


# ---------------------------------------------------------------------------
# Scenario grids

# The settling scan keeps each cell's frequency range per block of samples,
# so that only the samples up to the last block outside the band need a
# second pass. More blocks shorten that pass but cost memory per cell: at 64
# the 960-cell daily grid peaked 1.3 MB higher than at 16, for the same pass.
_SETTLING_BLOCKS = 16

# The kernel builds its cells' affine maps this many cells at a time, which
# bounds the map's temporaries: on the 960-cell daily grid the stepping peak
# (tracemalloc) was 0.77 MB with one map for all cells and 0.60 MB with this.
_MAP_CELLS = 128

# The kernel hands the observer this many samples of every cell at a time.
# Longer chunks save calls per sample but cost memory: `fleetfreq daily` on
# the 960-cell reference grid peaked at 34.85 MB resident at 16, 35.35 MB at
# 32 and 37.1 MB at 64, against 34.2 MB when the observer took one sample per
# call.
_CHUNK_SAMPLES = 16


def _step_cells(cells: _Cell, dt: float, event_time_s: float, n_samples: int, observe):
    """Step a batch of cells together with the arithmetic of simulate.

    Writes every cell's frequency at each sample into a samples x cells
    buffer and calls observe(k0, f) with it once per chunk of
    _CHUNK_SAMPLES samples (the last chunk may be shorter): row r of f holds
    sample k0 + r, for k0 + r in range(n_samples). The rows are only valid
    during the call. Returns the deviation states at the last sample, shape
    (4, cells).

    The latch is a mask, advanced by the rule simulate uses. Each step is
    the cells' _affine_map, broadcast: column j of every cell's phi times
    state j, summed over j in row order, which is simulate's ((a+b)+c)+d,
    plus the offset of the cell's event side and gate. These are elementwise
    IEEE multiplies and adds, so every cell gets the bits simulate gives it,
    whatever the batch. The offsets and the SoC steps are gathered again
    only when the event side or a cell's gate changes; the state, the SoC
    and the clip are updated in place.
    """
    import numpy as np

    n = len(cells.f0)
    # phi_cols[j][i] is phi[i][j] of every cell. The offsets (per event side)
    # and the SoC steps are flat, so that entry 4 * cell + gate is the cell's.
    phi_cols = np.empty((4, 4, n))
    offs = np.empty((2, 4, n, 4))
    for lo in range(0, n, _MAP_CELLS):
        part = slice(lo, lo + _MAP_CELLS)
        phi, offsets = _affine_map(_Cell(*(field[..., part] for field in cells)), dt)
        phi_cols[..., part] = np.transpose(phi, (1, 0, 2))
        offs[:, :, part] = np.transpose(offsets, (0, 2, 3, 1))
    offs = tuple(offs.reshape(2, 4, 4 * n))
    # rate * dt per table entry has the bits of the gathered rate times dt.
    soc_steps = cells.soc_rates.T.ravel() * dt
    base = 4 * np.arange(n)
    x = np.zeros((4, n))
    df, x_cols = x[0], x[:, None, :]
    prod = np.empty((4, 4, n))
    off = np.empty((4, n))
    soc_step = np.empty(n)
    soc = cells.soc0.copy()
    # Each cell's gate: triggered, and SoC above reserve.
    gate = np.zeros((2, n), dtype=bool)
    triggered, above = gate
    chunk = np.empty((min(_CHUNK_SAMPLES, n_samples), n))
    rows = list(chunk)
    held_side = held_gate = None
    j = 0
    for k in range(n_samples):
        f = rows[j]
        np.multiply(cells.f0, np.add(1.0, df, out=f), out=f)
        triggered[...] = latched(f, cells.threshold_hz, triggered, cells.latch_on)
        j += 1
        if j == len(rows) or k == n_samples - 1:
            observe(k + 1 - j, chunk[:j])
            j = 0
        if k == n_samples - 1:
            break
        side = k * dt >= event_time_s
        np.greater(soc, cells.soc_reserve, out=above)
        if side is not held_side or (gate != held_gate).any():
            held_side, held_gate = side, gate.copy()
            index = base + 2 * triggered + above
            offs[side].take(index, axis=1, out=off)
            soc_steps.take(index, out=soc_step)
        np.multiply(phi_cols, x_cols, out=prod)
        np.add.reduce(prod, axis=0, out=x)
        x += off
        # Command and SoC rate are held over the step; the clip as simulate's.
        soc += soc_step
        np.maximum(0.0, soc, out=soc)
        np.minimum(1.0, soc, out=soc)
    return x


class _MetricStreams:
    """What metrics.evaluate reads from a trajectory, folded in one chunk of
    samples at a time for a batch of cells on the time grid of `first`,
    keeping only the RoCoF window and the tail. Every fold is an exact
    reduction (a min, a max, a first argmin, a copy), so chunking does not
    change a bit.

    Built before the batch runs, so that a metric setting the time grid
    cannot serve is rejected first. numpy is bound here, once per grid, for
    the calls made at every chunk.
    """

    def __init__(self, first: Scenario, n_cells: int, settings: metrics_mod.MetricsConfig):
        import numpy as np

        self.np = np
        dt, event_time_s = first.step_s, first.event_time_s
        self.dt, self.event_time_s = dt, event_time_s
        n_samples = int(round(first.horizon_s / dt)) + 1
        self.times = times = np.arange(n_samples) * dt
        self.f_min = np.full(n_cells, np.inf)
        self.i_min = np.zeros(n_cells, dtype=np.int64)
        # The highest sample after the current minimum; -inf while none.
        self.f_max_after = np.full(n_cells, -np.inf)
        i0, i1, self.step = metrics_mod.rocof_window(times, event_time_s, settings.rocof_window_s)
        n_tail = metrics_mod.tail_count(n_samples, settings.tail_fraction)
        # The samples kept per cell, as (first sample, cells x samples): the
        # RoCoF window with its outer neighbours, and the tail.
        self.window = np.empty((n_cells, i1 - i0 + 3))
        self.tail = np.empty((n_cells, n_tail))
        self.recorded = ((i0 - 1, self.window), (n_samples - n_tail, self.tail))
        self.block = -(-n_samples // _SETTLING_BLOCKS)
        n_blocks = -(-n_samples // self.block)
        self.block_min = np.full((n_blocks, n_cells), np.inf)
        self.block_max = np.full((n_blocks, n_cells), -np.inf)

    def __call__(self, k0: int, f: np.ndarray) -> None:
        """Fold in samples k0, k0 + 1, ..., given as the rows of f."""
        np = self.np
        k1 = k0 + len(f)
        low, high = f.min(axis=0), f.max(axis=0)
        lower = low < self.f_min
        if lower.any():
            first = f.argmin(axis=0)
            after = np.where(np.arange(len(f))[:, None] > first, f, -np.inf).max(axis=0)
            self.f_max_after = np.where(lower, after, np.maximum(self.f_max_after, high))
            self.i_min = np.where(lower, k0 + first, self.i_min)
            np.minimum(self.f_min, low, out=self.f_min)
        else:
            np.maximum(self.f_max_after, high, out=self.f_max_after)
        for start, kept in self.recorded:
            lo, hi = max(start, k0), min(start + kept.shape[1], k1)
            if lo < hi:
                kept[:, lo - start : hi - start] = f[lo - k0 : hi - k0].T
        for b in range(k0 // self.block, (k1 - 1) // self.block + 1):
            lo, hi = max(k0, b * self.block), min(k1, (b + 1) * self.block)
            if hi - lo < len(f):  # the chunk straddles a block edge
                part = f[lo - k0 : hi - k0]
                low, high = part.min(axis=0), part.max(axis=0)
            np.minimum(self.block_min[b], low, out=self.block_min[b])
            np.maximum(self.block_max[b], high, out=self.block_max[b])

    def results(self, cells: _Cell, band_hz: float) -> list[metrics_mod.FrequencyMetrics]:
        """The metrics of every cell, once all samples of `cells` were seen."""
        np = self.np
        n = len(self.times)
        # evaluate's centred differences about the window's samples i0..i1.
        w = self.window
        slopes = w[:, 2:] - w[:, :-2]
        slopes /= 2.0 * self.step
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
        last_outside = np.where(ends_outside, n - 1, -1)
        # The last sample outside the band of the other cells lies in that
        # block: replay them up to its end.
        replay = np.flatnonzero((last_block >= 0) & ~ends_outside)
        if len(replay):
            replay_f_ss = f_ss[replay]
            replay_last = last_outside[replay]

            def track(k0: int, f: np.ndarray) -> None:
                out = np.abs(f - replay_f_ss) > band_hz
                last = k0 + len(f) - 1 - np.argmax(out[::-1], axis=0)
                np.copyto(replay_last, last, where=out.any(axis=0))

            n_samples = min(n, (int(last_block[replay].max()) + 1) * self.block)
            subset = _Cell(*(field[..., replay] for field in cells))
            _step_cells(subset, self.dt, self.event_time_s, n_samples, track)
            last_outside[replay] = replay_last

        times = self.times.tolist()
        columns = zip(
            self.f_min.tolist(),
            self.i_min.tolist(),
            slopes.min(axis=1).tolist(),
            np.maximum(0.0, self.f_max_after - f_ss).tolist(),
            (last_outside + 1).tolist(),
            f_ss.tolist(),
        )
        return [
            metrics_mod.FrequencyMetrics(
                nadir_hz=nadir,
                nadir_time_s=times[i],
                rocof_hz_per_s=rocof,
                overshoot_hz=overshoot,
                settling_time_s=times[settled] if settled < n else None,
                f_steady_state_hz=ss,
            )
            for nadir, i, rocof, overshoot, settled, ss in columns
        ]


def evaluate_scenarios(
    scenarios: list[Scenario], settings: metrics_mod.MetricsConfig = metrics_mod.MetricsConfig()
) -> list[metrics_mod.FrequencyMetrics]:
    """Simulate and score a list of scenarios, preserving input order.

    Every result equals metrics.evaluate(simulate(cell), settings), bit for
    bit. The cells must share one time grid (step, horizon and event time).
    They are stepped together as arrays by the arithmetic of simulate, which
    is elementwise, so a cell's result does not depend on the batch it runs
    in. The time grid, the settings and every cell are checked before any
    cell runs; a rocof window that the time grid cannot hold is named as
    metrics.rocof_window_s, its config key. A divergence is reported as the
    IntegrationError of the first diverged cell in input order, with its
    index as the error's cell.
    """
    import numpy as np

    if not scenarios:
        return []
    grids = [(s.step_s, s.horizon_s, s.event_time_s) for s in scenarios]
    for i, grid in enumerate(grids):
        if grid != grids[0]:
            raise ValueError(
                "scenarios must share one time grid (step_s, horizon_s, event_time_s): "
                f"scenario {i} has {grid}, scenario 0 has {grids[0]}"
            )
    try:
        streams = _MetricStreams(scenarios[0], len(scenarios), settings)
    except ValueError as exc:  # the rocof window does not fit the time grid
        raise ValueError(f"metrics.rocof_window_s: {exc}") from None
    batch = _Cell(*(np.array(f).T for f in zip(*map(_cell, scenarios))))
    # A non-finite state stays non-finite under these updates, so one check
    # after the last step finds every cell that simulate stops.
    with np.errstate(over="ignore", invalid="ignore"):
        state = _step_cells(
            batch, streams.dt, streams.event_time_s, len(streams.times), streams
        )
    finite = np.isfinite(state).all(axis=0)
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
