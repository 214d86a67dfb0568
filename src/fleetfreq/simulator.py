"""Coupled grid-fleet-controller simulation and experiment drivers.

A contingency scenario is integrated with fixed-step classical RK4. The
disturbance is a pure generation-loss step; the controller threshold check
and command update happen once per step at the step boundary and are held
constant within the step. The model is linear, so each RK4 step is taken as
one affine map per cell, read off one RK4 step of grid._rhs from each unit
state and from rest under each held input. Participation sweeps and
the 96-interval daily nadir scan are both one scenario grid. Cells with the
same constants are the same integration, so each distinct cell is stepped
once, all of them together as numpy arrays by the same arithmetic, and the
results are scattered back to input-grid order. The grid kernel is a
generator: it steps a chunk of samples at a time under the gate (latch, SoC
reserve, event side) held at the chunk's start, checks the chunk's gates
together afterwards, steps on again from the first sample whose gate
changed, and yields the chunk's frequencies. One function scores a batch
in two plain loops over the kernel: the first copies the RoCoF window and
the tail and keeps each block's range, and one replay, to the last block a
metric needs, finds the nadir's sample, the overshoot and the settling
time.

simulate is pure Python and returns its series as array('d') buffers. numpy
is imported inside the functions that step a grid or score it, so a single
trajectory runs without loading it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
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
    inertial_mix,
    read_table,
    whole_steps,
    _rhs,
)
from . import metrics as metrics_mod

if TYPE_CHECKING:
    import numpy as np

BUNDLED_DAY_PROFILE = "california_day_synthetic.csv"


class IntegrationError(RuntimeError):
    """The integrator produced a non-finite state.

    From evaluate_scenarios, cell is the index of the diverged scenario; from
    the grid kernel, its column in the batch.
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
    it and override the given grid's, so grid is always the grid the run uses.
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
        if self.mix is not None:
            object.__setattr__(self, "grid", grid_from_mix(self.mix, self.grid))
        if self.step_s <= 0.0:
            raise ValueError("step_s must be > 0")
        if self.horizon_s < 10.0 * self.step_s:
            raise ValueError("horizon_s must cover at least 10 steps")
        whole_steps(self.horizon_s, self.step_s, "step_s must divide horizon_s")
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
    h_eff_s: float
    damping: float
    droop: float
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
    grid = scenario.grid
    fleet = scenario.fleet
    controller = scenario.controller
    fs0 = fleet_state_at(scenario.clock_min, fleet)
    # The command depends on the state only through the gate, so it is
    # tabulated per gate, still computed by the controller functions.
    commands, soc_rates = [], []
    for triggered in (False, True):
        for above_reserve in (False, True):
            cmd_mw = ev_power_command(triggered, above_reserve, controller, fs0, fleet)
            commands.append(cmd_mw / grid.s_base_mw)
            soc_rates.append(soc_rate_under_command(cmd_mw, fs0, fleet))
    return _Cell(
        f0=grid.f_nominal_hz,
        h_eff_s=grid.h_eff_s,
        damping=grid.damping_pu,
        droop=grid.droop_pu,
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


def _affine_map(c: _Cell, dt):
    """One classical RK4 step of the four grid deviation states, as the map
    x -> phi x + offsets[event][gate].

    The model is linear and the disturbance (0 before the event, dp_pu from
    it) and the command of the gate are held over the step, so the step is
    exactly affine, and the map is read off the step itself: column j of phi
    is one step of _rhs from unit state j with no inputs, and each offset is
    one step from rest under its side's disturbance and its gate's command.

    phi is given as its 4 columns, each offset as 4 values. Elementwise
    only: simulate passes floats and the grid kernel one array per field,
    and each cell's map has the same bits either way.
    """
    model = (c.h_eff_s, c.damping, c.droop, c.t_gov, c.t_turb, c.t_ev)

    def step(x, d, cmd):
        k1 = _rhs(*x, d, cmd, *model)
        k2 = _rhs(*(a + 0.5 * dt * k for a, k in zip(x, k1)), d, cmd, *model)
        k3 = _rhs(*(a + 0.5 * dt * k for a, k in zip(x, k2)), d, cmd, *model)
        k4 = _rhs(*(a + dt * k for a, k in zip(x, k3)), d, cmd, *model)
        return [
            a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]

    columns = [step([float(i == j) for i in range(4)], 0.0, 0.0) for j in range(4)]
    offsets = [[step([0.0] * 4, d, cmd) for cmd in c.commands] for d in (0.0, c.dp_pu)]
    return columns, offsets


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate one scenario and return the sampled trajectory.

    Deterministic: identical scenarios produce bit-identical trajectories.
    Fleet availability (plugged count and window charging power) is frozen at
    the scenario clock for the duration of the horizon; the mean SoC evolves
    with the realized command.
    """
    c = _cell(scenario)
    dt = scenario.step_s
    n_steps = whole_steps(scenario.horizon_s, dt)
    event_time = scenario.event_time_s
    f0, reserve, soc_rates = c.f0, c.soc_reserve, c.soc_rates
    threshold_hz, latch_on = c.threshold_hz, c.latch_on
    columns, offsets = _affine_map(c, dt)
    (p00, p10, p20, p30), (p01, p11, p21, p31) = columns[:2]
    (p02, p12, p22, p32), (p03, p13, p23, p33) = columns[2:]

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

# The metrics' first pass keeps each cell's frequency range per block of
# samples, a whole number of chunks, so the replay runs only to the last block
# a metric needs. More blocks shorten it but cost memory per cell: at 64,
# `fleetfreq daily` on the reference config (325 distinct cells) peaked
# 0.35 MB higher resident than at 16 (ru_maxrss, median of 3 runs), for the
# same replay; with all 960 cells stepped the gap was 1.3 MB.
_SETTLING_BLOCKS = 16

# The kernel steps up to this many samples of every cell under held gates
# before it checks them, and yields them together. For each of these samples
# and the next chunk's first it keeps, per cell, one f row, four state rows
# and one SoC row. Longer chunks save checks and calls per sample but cost
# that memory: `fleetfreq daily` on the reference config (325 distinct
# cells) peaked at 32.81 MB resident at 16 and 33.07-33.14 MB at 32, against
# 32.55 MB when the kernel checked the gates at every sample and kept one
# state (ru_maxrss, medians of 3 runs, 2 runs each).
_CHUNK_SAMPLES = 16


def _soc_rows(soc: np.ndarray, step: np.ndarray) -> None:
    """Fill rows 1.. of soc from its row 0 under a held SoC step, with the
    bits of simulate's per-step min(1, max(0, soc + step)).

    One running sum of the step from row 0, then the clip. The step is
    held, so of one sign. For a step >= 0 the sum never falls, since
    rounding is monotone, so max(0, .) never acts on it; once the sum
    reaches 1 every later sum is at least 1, so min(1, .) gives 1 from that
    row on, as the per-step clip does, whose later sums min(1, 1 + step)
    stay 1. Before that row the sums and the per-step values are the same
    additions. A step < 0 is the mirror image at 0. Row 0 is not clipped.
    """
    import numpy as np

    rest = soc[1:]
    rest[...] = step
    np.add.accumulate(soc, axis=0, out=soc)
    np.maximum(0.0, rest, out=rest)
    np.minimum(1.0, rest, out=rest)


def _step_cells(cells: _Cell, dt: float, event_time_s: float, n_samples: int):
    """Step a batch of cells together with the arithmetic of simulate.

    A generator: yields (k0, f) once per chunk of _CHUNK_SAMPLES samples, in
    order, with k0 a multiple of _CHUNK_SAMPLES; f is samples x cells and
    row r holds every cell's frequency at sample k0 + r, for k0 + r in
    range(n_samples), so only the last chunk may be shorter. The rows are
    only valid until the next chunk is asked for. After the last chunk it
    reads the deviation states (4 x cells) of the last sample: a non-finite
    state stays non-finite under these updates, so that finds every cell
    that simulate stops, and it raises IntegrationError there with the first
    such cell's column in the batch as the error's cell.

    Each step is the cells' _affine_map, broadcast: column j of every cell's
    phi times state j, summed over j in row order and then the offset of the
    cell's event side and gate, which is simulate's (((a+b)+c)+d)+o. These
    are elementwise IEEE multiplies and adds, so every cell gets the bits
    simulate gives it, whatever the batch.

    The gate (the latch, SoC above reserve and the event side) changes a few
    times per run. So the kernel steps a span of samples under the gate it
    holds, keeping every sample's state, and then checks the span's samples
    together:
    - f is f0 (1 + df) on every row, and the latch is one controller.latched
      call on the rows, with the held mask as the previous latch. The held
      mask is the first row's latch, which the rule maps to itself; while it
      is also the true latch of the sample before a later row, the call
      gives that row's true latch. So, by induction, the first row that
      differs from the held mask is the latch's first change.
    - The SoC rows are _soc_rows of the held SoC step, which gives the bits
      of simulate's per-step clip.
    - The event side changes at the first sample k with k dt >= event time.
    At the first sample whose gate differs, the check's latch and reserve
    test of it are its gate by simulate's rule; its offsets and SoC steps
    are gathered, and stepping goes on from it, the samples before it
    standing. A span runs to the end of the chunk and the next chunk's
    first sample. After a change it is one sample, doubled by each check
    that finds none, so that a gate flipping at every sample costs a check
    per sample rather than a re-step of the rest of the chunk.
    """
    import numpy as np

    n = len(cells.f0)
    # phi_cols[j][i] is phi[i][j] of every cell. The offsets (per event side)
    # and the SoC steps are flat, so that entry 4 * cell + gate is the cell's.
    columns, offsets = _affine_map(cells, dt)
    phi_cols = np.array(columns)
    offs = tuple(np.transpose(offsets, (0, 2, 3, 1)).reshape(2, 4, 4 * n))
    # rate * dt per table entry has the bits of the gathered rate times dt.
    soc_steps = cells.soc_rates.T.ravel() * dt
    base = 4 * np.arange(n)
    # The first sample on the event side.
    event_k = next((k for k in range(n_samples) if k * dt >= event_time_s), n_samples)
    size = min(_CHUNK_SAMPLES, n_samples)
    # Row j of each buffer is sample k0 + j of the chunk; row `size` is the
    # next chunk's first sample.
    states = np.zeros((size + 1, 4, n))
    x_cols = [x[:, None, :] for x in states]
    f = np.empty((size + 1, n))
    soc = np.empty((size + 1, n))
    soc[0] = cells.soc0
    # prod[j] is column j of phi times state j and prod[4] the offset, so one
    # reduce over its rows takes the step.
    prod = np.empty((5, 4, n))
    products, off = prod[:4], prod[4]
    soc_step = np.empty(n)
    # The held gate: the latch mask, SoC above reserve, and the event side of
    # the sample gathered for. At sample 0 the latch is taken as off, which
    # the first check verifies like any other.
    triggered = np.zeros(n, dtype=bool)
    above = cells.soc0 > cells.soc_reserve

    def gather(k: int) -> None:
        index = base + 2 * triggered + above
        offs[k >= event_k].take(index, axis=1, out=off)
        soc_steps.take(index, out=soc_step)

    gather(0)
    multiply, reduce = np.multiply, np.add.reduce
    # The samples stepped past the last checked one before the next check.
    span = size
    for k0 in range(0, n_samples, size):
        rows = min(size, n_samples - k0)
        end = min(rows + 1, n_samples - k0)
        r = 0
        while True:
            stop = min(end, r + span + 1)
            for j in range(r, stop - 1):
                multiply(phi_cols, x_cols[j], out=products)
                reduce(prod, axis=0, out=states[j + 1])
            # Rows r..stop - 1, from row r, whose state and SoC stand.
            block = f[r:stop]
            np.multiply(cells.f0, np.add(1.0, states[r:stop, 0], out=block), out=block)
            _soc_rows(soc[r:stop], soc_step)
            latch = latched(block, cells.threshold_hz, triggered, cells.latch_on)
            over = soc[r:stop] > cells.soc_reserve
            changed = ((latch != triggered) | (over != above)).any(axis=1)
            i = r + int(changed.argmax()) if changed.any() else stop
            if r < event_k - k0:
                i = min(i, event_k - k0)
            if i < stop:
                triggered, above = latch[i - r], over[i - r]
                gather(k0 + i)
                r, span = i, 1
            elif stop < end:
                r, span = stop - 1, min(2 * span, size)
            else:
                break
        yield k0, f[:rows]
        if end > rows:  # the next chunk's first sample, stepped and checked
            states[0], soc[0] = states[rows], soc[rows]
    finite = np.isfinite(states[end - 1]).all(axis=0)
    if not finite.all():
        raise IntegrationError(n_samples - 1, (n_samples - 1) * dt, int(np.argmin(finite)))


def _grid_metrics(
    cells: _Cell, first: Scenario, settings: metrics_mod.MetricsConfig
) -> list[metrics_mod.FrequencyMetrics]:
    """What metrics.evaluate gives for each cell of a batch on the time grid
    of `first`, in two passes over the kernel. The first copies the RoCoF
    window and the tail and keeps each block's min and max, one chunk at a
    time. The replay steps every cell again, to the last block that one
    needs, for what takes an index: the nadir's first sample, the highest
    sample after it and the last sample outside the settling band. Mins,
    maxima, comparisons and copies are exact, so chunking changes no bit.

    A RoCoF window that the time grid cannot serve is rejected before any
    cell runs. A diverged cell raises the kernel's IntegrationError at the
    end of the first pass, before the replay, which would index past the
    time grid at its NaN nadir.
    """
    import numpy as np

    dt, event_time_s = first.step_s, first.event_time_s
    n = whole_steps(first.horizon_s, dt) + 1
    times = np.arange(n) * dt
    try:
        i0, i1, step = metrics_mod.rocof_window(times, event_time_s, settings.rocof_window_s)
    except ValueError as exc:  # the rocof window does not fit the time grid
        raise ValueError(f"metrics.rocof_window_s: {exc}") from None
    n_cells = len(cells.f0)
    n_tail = metrics_mod.tail_count(n, settings.tail_fraction)
    # The samples kept per cell, as (first sample, cells x samples): the
    # RoCoF window with its outer neighbours, and the tail.
    window = np.empty((n_cells, i1 - i0 + 3))
    tail = np.empty((n_cells, n_tail))
    recorded = ((i0 - 1, window), (n - n_tail, tail))
    block = _CHUNK_SAMPLES * -(-n // (_SETTLING_BLOCKS * _CHUNK_SAMPLES))
    n_blocks = -(-n // block)
    block_min = np.full((n_blocks, n_cells), np.inf)
    block_max = np.full((n_blocks, n_cells), -np.inf)

    # Every chunk lies inside one block, since a block is a whole number of
    # chunks.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, f in _step_cells(cells, dt, event_time_s, n):
            k1 = k0 + len(f)
            for start, kept in recorded:
                lo, hi = max(start, k0), min(start + kept.shape[1], k1)
                if lo < hi:
                    kept[:, lo - start : hi - start] = f[lo - k0 : hi - k0].T
            b = k0 // block
            np.minimum(block_min[b], f.min(axis=0), out=block_min[b])
            np.maximum(block_max[b], f.max(axis=0), out=block_max[b])

    # evaluate's centred differences about the window's samples i0..i1, at
    # their minimum.
    slopes = window[:, 2:] - window[:, :-2]
    slopes /= 2.0 * step
    rocof = slopes.min(axis=1)
    band_hz = settings.settling_band_hz
    f_ss = np.array([np.mean(row) for row in tail])
    nadirs = block_min.min(axis=0)
    # Each cell's last block holding a sample outside the band, or -1.
    # Exact, because rounding keeps f - f_ss monotone in f, so a block's
    # extremes bound the deviation of all its samples. A cell whose last
    # sample is outside needs no replay to find it.
    outside_band = metrics_mod.outside_band
    outside = outside_band(block_max, f_ss, band_hz) | outside_band(block_min, f_ss, band_hz)
    last_block = np.where(outside, np.arange(n_blocks)[:, None], -1).max(axis=0)
    ends_outside = outside_band(tail[:, -1], f_ss, band_hz)
    last_block[ends_outside] = -1
    # Replay every cell to the last block that one needs: the first block
    # holding its nadir, or its last block outside the band. The replay
    # keeps the first sample at the nadir, the highest sample after it and
    # the last sample outside the band, so far.
    replayed = int(np.maximum(np.argmin(block_min, axis=0), last_block).max()) + 1
    i_nadir = np.full(n_cells, n)
    max_after = np.full(n_cells, -np.inf)
    last_outside = np.where(ends_outside, n - 1, -1)
    for k0, f in _step_cells(cells, dt, event_time_s, min(n, replayed * block)):
        k = np.arange(k0, k0 + len(f))[:, None]
        np.minimum(i_nadir, np.where(f == nadirs, k, n).min(axis=0), out=i_nadir)
        np.maximum(max_after, np.where(k > i_nadir, f, -np.inf).max(axis=0), out=max_after)
        out = outside_band(f, f_ss, band_hz)
        np.maximum(last_outside, np.where(out, k, -1).max(axis=0), out=last_outside)
    # The blocks not replayed lie after every cell's nadir.
    np.maximum(max_after, block_max[replayed:].max(axis=0, initial=-np.inf), out=max_after)

    times = times.tolist()
    columns = zip(
        nadirs.tolist(),
        i_nadir.tolist(),
        rocof.tolist(),
        np.maximum(0.0, max_after - f_ss).tolist(),
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
    in. Scenarios whose _cell constants have the same bits are the same
    integration, so each distinct cell is stepped once, in order of first
    occurrence, and its result is scattered to every input that has it. The
    time grid, every cell and the settings are checked, in that order,
    before any cell runs; a rocof window that the time grid cannot hold is
    named as metrics.rocof_window_s, its config key. A divergence is
    reported as the IntegrationError of the first diverged cell in input
    order, with its index as the error's cell: a repeated cell is named by
    its first index.
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
    cells = list(map(_cell, scenarios))
    # Each cell's first input index, keyed by its bits: repr round-trips
    # every float, where == would merge 0.0 and -0.0.
    seen: dict[str, int] = {}
    first_index = [seen.setdefault(repr(c), i) for i, c in enumerate(cells)]
    firsts = list(seen.values())
    batch = _Cell(*(np.array(f).T for f in zip(*(cells[i] for i in firsts))))
    try:
        results = dict(zip(firsts, _grid_metrics(batch, scenarios[0], settings)))
    except IntegrationError as diverged:
        # firsts ascends, so the first diverged distinct cell has the
        # smallest input index of all diverged cells.
        i = firsts[diverged.cell]
        try:
            simulate(scenarios[i])
        except IntegrationError as exc:
            raise IntegrationError(exc.step_index, exc.time_s, i) from None
        raise RuntimeError("grid kernel diverged where simulate did not")
    return [results[i] for i in first_index]


@dataclass(frozen=True)
class ScenarioAxes:
    """The axes of a scenario grid: the "sweep" and "daily" sections.

    Levels are participation fractions in [0, 1], and no axis is empty.
    daily has no strategies (it scans the fleet's own) and adds a day
    profile, which keeps its own shape.
    """

    levels: list[float] = field(default_factory=lambda: [0.2, 0.4, 0.6, 0.8, 1.0])
    modes: list[ControlMode] = field(default_factory=lambda: list(ControlMode))
    strategies: list[ChargingStrategy] = field(default_factory=lambda: list(ChargingStrategy))

    def __post_init__(self) -> None:
        for name in ("levels", "modes", "strategies"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for level in self.levels:
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"participation level {level} outside [0, 1]")


def scenario_grid(
    base: Scenario,
    levels: list[float],
    modes: list[ControlMode],
    strategies: list[ChargingStrategy] | None = None,
    day: DayProfile | None = None,
) -> list[Scenario]:
    """The scenario grid of a participation sweep or a daily scan.

    Cells are ordered clock-major, then by strategy, mode and level. Without a
    day profile the one row is base; with one, each profile row is base with
    the row's clock (and so fleet state) and mix, from which it derives its
    grid. strategies=None keeps the base fleet's. A row's grid, a strategy's
    fleet and a (mode, level) controller are each built once and shared by
    their cells, which carry no mix. Each cell's key is in its own scenario:
    fleet.strategy, clock_min, controller.mode and controller.participation.
    """
    if strategies is None:
        strategies = [base.fleet.strategy]
    axes = ScenarioAxes(levels, modes, strategies)
    if day is None:
        rows = [base]
    else:
        rows = [replace(base, clock_min=row.clock_min, mix=row.mix) for row in day.rows]
    fleets = [replace(base.fleet, strategy=strategy) for strategy in axes.strategies]
    controllers = [
        replace(base.controller, mode=mode, participation=level)
        for mode in axes.modes
        for level in axes.levels
    ]
    return [
        replace(row, mix=None, fleet=fleet, controller=controller)
        for row in rows
        for fleet in fleets
        for controller in controllers
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
    return DayProfileRow(clock_min, inertial_mix(sources))


def day_profile_values(row: DayProfileRow) -> list[float]:
    """The values of a day-profile row, in DAY_PROFILE_COLUMNS order; the
    arguments of day_profile_row."""
    by_name = {s.name: s.power_mw for s in row.mix.sources}
    return [row.clock_min, *(by_name[s.name] for s in CALIFORNIA_LOW_INERTIA_MIX.sources)]


def read_day_profile(value) -> DayProfile:
    """A day profile from a CSV path or a JSON list of rows, as read_table
    reads them: DayProfile's errors (the row count, a clock) name the table
    as `day_profile: <file>: ` or `day_profile: `."""
    return read_table(value, DAY_PROFILE_COLUMNS, day_profile_row, DayProfile, "day_profile")


def bundled_day_profile() -> DayProfile:
    """The packaged synthetic California day profile."""
    path = Path(resources.files("fleetfreq").joinpath("data", BUNDLED_DAY_PROFILE))
    return read_day_profile(path)
