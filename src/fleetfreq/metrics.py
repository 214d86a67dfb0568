"""Frequency-security metrics computed from a simulated trajectory.

Nadir, worst rate of change of frequency in a post-event window, overshoot
above the settled value, and settling time into a fixed band. The settled
value is the mean of the trajectory tail so the metrics stay defined for any
response configuration; the analytic equilibrium remains available separately
as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .simulator import Trajectory

DEFAULT_ROCOF_WINDOW_S = 0.5
DEFAULT_SETTLING_BAND_HZ = 0.02
DEFAULT_TAIL_FRACTION = 0.05


@dataclass(frozen=True)
class MetricsConfig:
    """The metric settings: the "metrics" config section, the keyword
    arguments of evaluate and the settings of simulator.evaluate_scenarios."""

    rocof_window_s: float = DEFAULT_ROCOF_WINDOW_S
    settling_band_hz: float = DEFAULT_SETTLING_BAND_HZ
    tail_fraction: float = DEFAULT_TAIL_FRACTION

    def __post_init__(self) -> None:
        if not self.rocof_window_s > 0.0:
            raise ValueError("rocof_window_s must be > 0")
        if not self.settling_band_hz > 0.0:
            raise ValueError("settling_band_hz must be > 0")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class FrequencyMetrics:
    """The four security metrics plus the tail-mean settled frequency."""

    nadir_hz: float
    nadir_time_s: float
    rocof_hz_per_s: float
    overshoot_hz: float
    settling_time_s: float | None
    f_steady_state_hz: float


def nadir(traj: Trajectory) -> tuple[float, float]:
    """Lowest sampled frequency and its time; earliest sample wins ties."""
    if len(traj.frequency_hz) == 0:
        raise ValueError("nadir undefined for an empty trajectory")
    i = int(np.argmin(traj.frequency_hz))
    return float(traj.frequency_hz[i]), float(traj.times_s[i])


def rocof_window(
    times: np.ndarray, event_time_s: float, window_s: float
) -> tuple[int, int, float]:
    """Sample indices i0..i1 whose centered differences rocof scans, and the
    sample step.

    The window is [event_time, event_time + window]; a centered difference
    needs one sample on each side, so the first and last samples are never
    centers.
    """
    if len(times) < 3:
        raise ValueError("rocof needs at least three samples")
    step = float(times[1] - times[0])
    if window_s < 2.0 * step:
        raise ValueError("rocof window must span at least two steps")
    t_end = event_time_s + window_s
    slack = 0.5 * step
    if event_time_s < times[0] - slack or t_end > times[-1] + slack:
        raise ValueError("rocof window lies outside the trajectory")
    i0 = max(1, int(np.searchsorted(times, event_time_s - slack * 1e-3, side="left")))
    i1 = min(
        len(times) - 2,
        int(np.searchsorted(times, t_end + slack * 1e-3, side="right")) - 1,
    )
    if i1 < i0:
        raise ValueError("rocof window contains no interior samples")
    return i0, i1, step


def rocof(traj: Trajectory, window_s: float = DEFAULT_ROCOF_WINDOW_S) -> float:
    """Most negative centered-difference df/dt within the post-event window.

    Scans [event_time, event_time + window]. A non-negative result means the
    frequency never fell inside the window.
    """
    i0, i1, step = rocof_window(traj.times_s, traj.event_time_s, window_s)
    f = traj.frequency_hz
    slopes = (f[i0 + 1 : i1 + 2] - f[i0 - 1 : i1]) / (2.0 * step)
    return float(slopes.min())


def tail_count(n_samples: int, tail_fraction: float = DEFAULT_TAIL_FRACTION) -> int:
    """Number of final samples that tail_mean averages."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    return max(1, int(round(tail_fraction * n_samples)))


def tail_mean(traj: Trajectory, tail_fraction: float = DEFAULT_TAIL_FRACTION) -> float:
    """Mean frequency over the final fraction of samples."""
    if len(traj.frequency_hz) == 0:
        raise ValueError("tail mean undefined for an empty trajectory")
    k = tail_count(len(traj.frequency_hz), tail_fraction)
    return float(np.mean(traj.frequency_hz[-k:]))


def overshoot(
    traj: Trajectory, tail_fraction: float = DEFAULT_TAIL_FRACTION
) -> float:
    """Largest rise above the settled frequency after the nadir, >= 0."""
    f_ss = tail_mean(traj, tail_fraction)
    i = int(np.argmin(traj.frequency_hz))
    after = traj.frequency_hz[i + 1 :]
    if len(after) == 0:
        return 0.0
    return max(0.0, float(after.max() - f_ss))


def settling_time(
    traj: Trajectory,
    band_hz: float = DEFAULT_SETTLING_BAND_HZ,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> float | None:
    """First time after which frequency stays within the band of its settled
    value for the rest of the horizon; None if it never does."""
    if band_hz <= 0.0:
        raise ValueError("band_hz must be > 0")
    f_ss = tail_mean(traj, tail_fraction)
    outside = np.abs(traj.frequency_hz - f_ss) > band_hz
    if not outside.any():
        return float(traj.times_s[0])
    last = int(np.nonzero(outside)[0][-1])
    if last == len(traj.times_s) - 1:
        return None
    return float(traj.times_s[last + 1])


def evaluate(
    traj: Trajectory,
    rocof_window_s: float = DEFAULT_ROCOF_WINDOW_S,
    settling_band_hz: float = DEFAULT_SETTLING_BAND_HZ,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> FrequencyMetrics:
    """All metrics for one trajectory."""
    nadir_hz, nadir_time_s = nadir(traj)
    return FrequencyMetrics(
        nadir_hz=nadir_hz,
        nadir_time_s=nadir_time_s,
        rocof_hz_per_s=rocof(traj, rocof_window_s),
        overshoot_hz=overshoot(traj, tail_fraction),
        settling_time_s=settling_time(traj, settling_band_hz, tail_fraction),
        f_steady_state_hz=tail_mean(traj, tail_fraction),
    )
