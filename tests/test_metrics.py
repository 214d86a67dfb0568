"""Frequency metric definitions on constructed trajectories with analytic
oracles (ramps, exponentials, square waves) plus shift-invariance properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fleetfreq.metrics import MetricsConfig, evaluate
from fleetfreq.simulator import Trajectory

# A RoCoF window of two 0.01 s steps, which trajectories of 3 samples hold.
SHORT = MetricsConfig(rocof_window_s=0.02)


def make_traj(freqs, step=0.01, t0=0.0, event_time=0.0):
    freqs = np.asarray(freqs, dtype=float)
    n = len(freqs)
    times = t0 + np.arange(n) * step
    zeros = np.zeros(n)
    return Trajectory(
        times_s=times,
        frequency_hz=freqs,
        p_mech_pu=zeros,
        p_ev_pu=zeros,
        mean_soc=zeros,
        latch_time_s=None,
        event_time_s=event_time,
    )


# ---------------------------------------------------------------------------
# nadir


def test_nadir_flat():
    m = evaluate(make_traj(np.full(100, 60.0)))
    assert (m.nadir_hz, m.nadir_time_s) == (60.0, 0.0)


def test_nadir_v_shape():
    m = evaluate(make_traj([60.0, 59.5, 59.8]), SHORT)
    assert m.nadir_hz == 59.5
    assert m.nadir_time_s == pytest.approx(0.01)


def test_nadir_tie_breaks_earliest():
    m = evaluate(make_traj([60.0, 59.5, 59.9, 59.5, 60.0]), SHORT)
    assert m.nadir_time_s == pytest.approx(0.01)


def test_nadir_empty_rejected():
    with pytest.raises(ValueError):
        evaluate(make_traj([]), SHORT)


@given(st.lists(st.floats(55.0, 61.0), min_size=1, max_size=60))
def test_nadir_bounds_all_samples(freqs):
    traj = make_traj(freqs)
    if len(freqs) < 3:  # a centered difference needs three samples
        with pytest.raises(ValueError):
            evaluate(traj, SHORT)
        return
    value = evaluate(traj, SHORT).nadir_hz
    assert all(value <= f for f in freqs)


def test_nadir_stable_under_higher_later_samples():
    base = [60.0, 59.4, 59.6]
    extended = base + [59.8, 60.0, 60.1]
    assert (
        evaluate(make_traj(base), SHORT).nadir_hz
        == evaluate(make_traj(extended), SHORT).nadir_hz
    )


# ---------------------------------------------------------------------------
# rocof


def test_rocof_flat_is_zero():
    traj = make_traj(np.full(200, 60.0))
    assert evaluate(traj).rocof_hz_per_s == 0.0


def test_rocof_linear_ramp_exact():
    times = np.arange(0, 300) * 0.01
    traj = make_traj(60.0 - 0.8 * times)
    assert evaluate(traj).rocof_hz_per_s == pytest.approx(-0.8, rel=1e-9)


def test_rocof_picks_steepest_segment_in_window():
    # Slope -1 for the first second, then -0.2.
    times = np.arange(0, 300) * 0.01
    freqs = np.where(times < 1.0, 60.0 - times, 59.0 - 0.2 * (times - 1.0))
    traj = make_traj(freqs)
    assert evaluate(traj).rocof_hz_per_s == pytest.approx(-1.0, rel=1e-9)


def test_rocof_window_validation():
    traj = make_traj(np.full(50, 60.0))
    with pytest.raises(ValueError, match="two steps"):
        evaluate(traj, MetricsConfig(rocof_window_s=0.01))
    with pytest.raises(ValueError, match="outside the trajectory"):
        evaluate(traj, MetricsConfig(rocof_window_s=10.0))


def test_rocof_respects_event_time():
    # A steeper pre-event excursion must not win: the window starts at the event.
    times = np.arange(0, 400) * 0.01
    freqs = np.full(400, 60.0)
    pre = slice(20, 50)
    freqs[pre] = 60.0 - 1.0 * (times[pre] - 0.2)  # slope -1 before the event
    freqs[50:200] = freqs[49]
    post = slice(200, 260)
    freqs[post] = freqs[199] - 0.3 * (times[post] - 2.0)  # slope -0.3 after
    freqs[260:] = freqs[259]
    traj = make_traj(freqs, event_time=2.0)
    assert evaluate(traj).rocof_hz_per_s == pytest.approx(-0.3, rel=1e-6)


# ---------------------------------------------------------------------------
# overshoot


def test_overshoot_monotone_recovery_zero():
    t = np.arange(0, 6001) * 0.01
    f_ss = 59.74
    freqs = np.where(t < 30.0, 59.5 + (f_ss - 59.5) * t / 30.0, f_ss)
    assert evaluate(make_traj(freqs)).overshoot_hz == 0.0


def test_overshoot_constructed_peak():
    t = np.arange(0, 6001) * 0.01
    freqs = np.full_like(t, 59.7)
    freqs[:1000] = 59.5  # nadir early
    freqs[2000:2100] = 59.75  # peak 0.05 above the settled tail
    assert evaluate(make_traj(freqs)).overshoot_hz == pytest.approx(0.05, abs=1e-9)


@given(st.lists(st.floats(55.0, 61.0), min_size=3, max_size=80))
def test_overshoot_nonnegative(freqs):
    assert evaluate(make_traj(freqs), SHORT).overshoot_hz >= 0.0


# ---------------------------------------------------------------------------
# settling time


def test_settling_flat_is_zero():
    traj = make_traj(np.full(100, 60.0))
    assert evaluate(traj).settling_time_s == 0.0


def test_settling_exponential_decay_oracle():
    # |f - f_ss| = A exp(-t / 2); band A e^-3 is crossed at exactly t = 6.
    t = np.arange(0, 6001) * 0.01
    amplitude = 0.5
    freqs = 59.7 - amplitude * np.exp(-t / 2.0)
    band = amplitude * np.exp(-3.0)
    got = evaluate(make_traj(freqs), MetricsConfig(settling_band_hz=band)).settling_time_s
    assert got == pytest.approx(6.0, abs=0.011)


def test_settling_never_within_band():
    t = np.arange(0, 2000) * 0.01
    freqs = 60.0 + 0.1 * np.sign(np.sin(2.0 * np.pi * t))
    m = evaluate(make_traj(freqs), MetricsConfig(settling_band_hz=0.001))
    assert m.settling_time_s is None


def test_settling_band_validation():
    with pytest.raises(ValueError, match="settling_band_hz"):
        MetricsConfig(settling_band_hz=0.0)


# ---------------------------------------------------------------------------
# shift invariance and the combined evaluation


@given(shift=st.floats(0.0, 100.0))
def test_metrics_time_shift_invariance(shift):
    base = 60.0 - 0.4 * np.exp(-np.arange(0, 3000) * 0.01 / 3.0)
    base = base + 0.01 * np.sin(np.arange(3000) * 0.05)
    traj = make_traj(base)
    shifted = make_traj(base, t0=shift, event_time=shift)
    m0 = evaluate(traj)
    m1 = evaluate(shifted)
    assert m1.nadir_hz == m0.nadir_hz
    assert m1.nadir_time_s == pytest.approx(m0.nadir_time_s + shift, abs=1e-9)
    assert m1.rocof_hz_per_s == pytest.approx(m0.rocof_hz_per_s, rel=1e-12)
    assert m1.overshoot_hz == pytest.approx(m0.overshoot_hz, rel=1e-12, abs=1e-12)
    assert m1.f_steady_state_hz == m0.f_steady_state_hz
    assert m1.settling_time_s == pytest.approx(m0.settling_time_s + shift, abs=1e-9)


def test_tail_mean_window():
    freqs = np.concatenate([np.full(95, 59.0), np.full(5, 60.0)])
    assert evaluate(make_traj(freqs)).f_steady_state_hz == 60.0


def test_evaluate_bundles_all_metrics():
    t = np.arange(0, 6001) * 0.01
    freqs = 59.8 - 0.3 * np.exp(-t / 2.0)
    m = evaluate(make_traj(freqs))
    assert m.nadir_hz == pytest.approx(59.5)
    assert m.nadir_time_s == 0.0
    assert m.overshoot_hz >= 0.0
    assert m.f_steady_state_hz == pytest.approx(59.8, abs=1e-6)
    assert m.settling_time_s is not None
