"""Frequency-security metrics computed from a simulated trajectory.

evaluate is the one definition of the metrics: nadir, worst rate of change
of frequency in a post-event window, overshoot above the settled value, and
settling time into a fixed band. The settled value is the mean of the
trajectory tail so the metrics stay defined for any response configuration;
the analytic equilibrium remains available separately as an oracle. numpy
is imported by the functions that compute, not by importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .simulator import Trajectory


@dataclass(frozen=True)
class MetricsConfig:
    """The metric settings: the "metrics" config section and the settings
    of evaluate and simulator.evaluate_scenarios."""

    rocof_window_s: float = 0.5
    settling_band_hz: float = 0.02
    tail_fraction: float = 0.05

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


def rocof_window(
    times: np.ndarray, event_time_s: float, window_s: float
) -> tuple[int, int, float]:
    """Sample indices i0..i1 whose centered differences the RoCoF scans, and
    the sample step.

    The window is [event_time, event_time + window]; a centered difference
    needs one sample on each side, so the first and last samples are never
    centers.
    """
    import numpy as np

    if len(times) < 3:
        raise ValueError("rocof needs at least three samples")
    step = float(times[1] - times[0])
    if window_s < 2.0 * step:
        raise ValueError(
            f"rocof window {window_s:g} s must span at least two steps of {step:g} s"
        )
    t_end = event_time_s + window_s
    slack = 0.5 * step
    if event_time_s < times[0] - slack or t_end > times[-1] + slack:
        raise ValueError(
            f"rocof window [{event_time_s:g}, {t_end:g}] s lies outside the "
            f"trajectory [{times[0]:g}, {times[-1]:g}] s"
        )
    i0 = max(1, int(np.searchsorted(times, event_time_s - slack * 1e-3, side="left")))
    i1 = min(
        len(times) - 2,
        int(np.searchsorted(times, t_end + slack * 1e-3, side="right")) - 1,
    )
    if i1 < i0:
        raise ValueError("rocof window contains no interior samples")
    return i0, i1, step


def tail_count(n_samples: int, tail_fraction: float) -> int:
    """Number of final samples whose mean is the settled frequency."""
    return max(1, int(round(tail_fraction * n_samples)))


def outside_band(f, f_ss, band_hz):
    """Whether each frequency lies outside the settling band about f_ss."""
    return abs(f - f_ss) > band_hz


def evaluate(traj: Trajectory, settings: MetricsConfig = MetricsConfig()) -> FrequencyMetrics:
    """All metrics of one trajectory, each defined here:

    - nadir_hz, nadir_time_s: the lowest sample and its time; the earliest
      sample wins ties.
    - rocof_hz_per_s: the most negative centered difference df/dt about the
      samples in [event_time, event_time + rocof_window_s] (rocof_window). A
      non-negative value means the frequency never fell inside the window.
    - f_steady_state_hz: the settled frequency, the mean of the final
      tail_count(n, tail_fraction) samples.
    - overshoot_hz: the largest rise above the settled frequency after the
      nadir, >= 0.
    - settling_time_s: the first sample time from which the frequency stays
      within settling_band_hz of the settled frequency to the end of the
      horizon; None if the last sample lies outside the band.

    Needs at least three samples and a window that fits the trajectory. The
    series are read through np.asarray, which views simulate's array('d')
    buffers without a copy.
    """
    import numpy as np

    t, f = np.asarray(traj.times_s), np.asarray(traj.frequency_hz)
    i0, i1, step = rocof_window(t, traj.event_time_s, settings.rocof_window_s)
    i = int(np.argmin(f))
    f_ss = float(np.mean(f[-tail_count(len(f), settings.tail_fraction) :]))
    outside = np.flatnonzero(outside_band(f, f_ss, settings.settling_band_hz))
    settled = int(outside[-1]) + 1 if len(outside) else 0
    return FrequencyMetrics(
        nadir_hz=float(f[i]),
        nadir_time_s=float(t[i]),
        rocof_hz_per_s=float(((f[i0 + 1 : i1 + 2] - f[i0 - 1 : i1]) / (2.0 * step)).min()),
        overshoot_hz=max(0.0, float(f[i + 1 :].max() - f_ss)) if i + 1 < len(f) else 0.0,
        settling_time_s=float(t[settled]) if settled < len(t) else None,
        f_steady_state_hz=f_ss,
    )
