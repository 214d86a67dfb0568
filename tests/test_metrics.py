"""Frequency metric definitions on constructed trajectories with analytic
oracles (ramps, exponentials, square waves) plus shift-invariance properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fleetfreq.metrics import (
    evaluate,
    nadir,
    overshoot,
    rocof,
    settling_time,
    tail_mean,
)
from fleetfreq.simulator import Trajectory


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
    traj = make_traj(np.full(100, 60.0))
    assert nadir(traj) == (60.0, 0.0)


def test_nadir_v_shape():
    traj = make_traj([60.0, 59.5, 59.8])
    value, time = nadir(traj)
    assert value == 59.5
    assert time == pytest.approx(0.01)


def test_nadir_tie_breaks_earliest():
    traj = make_traj([60.0, 59.5, 59.9, 59.5, 60.0])
    _, time = nadir(traj)
    assert time == pytest.approx(0.01)


def test_nadir_empty_rejected():
    with pytest.raises(ValueError):
        nadir(make_traj([]))


@given(st.lists(st.floats(55.0, 61.0), min_size=1, max_size=60))
def test_nadir_bounds_all_samples(freqs):
    traj = make_traj(freqs)
    value, _ = nadir(traj)
    assert all(value <= f for f in freqs)


def test_nadir_stable_under_higher_later_samples():
    base = [60.0, 59.4, 59.6]
    extended = base + [59.8, 60.0, 60.1]
    assert nadir(make_traj(base))[0] == nadir(make_traj(extended))[0]


# ---------------------------------------------------------------------------
# rocof


def test_rocof_flat_is_zero():
    traj = make_traj(np.full(200, 60.0))
    assert rocof(traj, 0.5) == 0.0


def test_rocof_linear_ramp_exact():
    times = np.arange(0, 300) * 0.01
    traj = make_traj(60.0 - 0.8 * times)
    assert rocof(traj, 0.5) == pytest.approx(-0.8, rel=1e-9)


def test_rocof_picks_steepest_segment_in_window():
    # Slope -1 for the first second, then -0.2.
    times = np.arange(0, 300) * 0.01
    freqs = np.where(times < 1.0, 60.0 - times, 59.0 - 0.2 * (times - 1.0))
    traj = make_traj(freqs)
    assert rocof(traj, 0.5) == pytest.approx(-1.0, rel=1e-9)


def test_rocof_window_validation():
    traj = make_traj(np.full(50, 60.0))
    with pytest.raises(ValueError):
        rocof(traj, 0.01)  # below two steps
    with pytest.raises(ValueError):
        rocof(traj, 10.0)  # extends past the trajectory


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
    assert rocof(traj, 0.5) == pytest.approx(-0.3, rel=1e-6)


# ---------------------------------------------------------------------------
# overshoot


def test_overshoot_monotone_recovery_zero():
    t = np.arange(0, 6001) * 0.01
    f_ss = 59.74
    freqs = np.where(t < 30.0, 59.5 + (f_ss - 59.5) * t / 30.0, f_ss)
    assert overshoot(make_traj(freqs)) == 0.0


def test_overshoot_constructed_peak():
    t = np.arange(0, 6001) * 0.01
    freqs = np.full_like(t, 59.7)
    freqs[:1000] = 59.5  # nadir early
    freqs[2000:2100] = 59.75  # peak 0.05 above the settled tail
    assert overshoot(make_traj(freqs)) == pytest.approx(0.05, abs=1e-9)


@given(st.lists(st.floats(55.0, 61.0), min_size=3, max_size=80))
def test_overshoot_nonnegative(freqs):
    assert overshoot(make_traj(freqs)) >= 0.0


# ---------------------------------------------------------------------------
# settling time


def test_settling_flat_is_zero():
    traj = make_traj(np.full(100, 60.0))
    assert settling_time(traj, 0.02) == 0.0


def test_settling_exponential_decay_oracle():
    # |f - f_ss| = A exp(-t / 2); band A e^-3 is crossed at exactly t = 6.
    t = np.arange(0, 6001) * 0.01
    amplitude = 0.5
    freqs = 59.7 - amplitude * np.exp(-t / 2.0)
    band = amplitude * np.exp(-3.0)
    got = settling_time(make_traj(freqs), band)
    assert got == pytest.approx(6.0, abs=0.011)


def test_settling_never_within_band():
    t = np.arange(0, 2000) * 0.01
    freqs = 60.0 + 0.1 * np.sign(np.sin(2.0 * np.pi * t))
    assert settling_time(make_traj(freqs), 0.001) is None


def test_settling_band_validation():
    with pytest.raises(ValueError):
        settling_time(make_traj(np.full(50, 60.0)), 0.0)


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
    assert tail_mean(make_traj(freqs), 0.05) == 60.0


def test_evaluate_bundles_all_metrics():
    t = np.arange(0, 6001) * 0.01
    freqs = 59.8 - 0.3 * np.exp(-t / 2.0)
    m = evaluate(make_traj(freqs))
    assert m.nadir_hz == pytest.approx(59.5)
    assert m.nadir_time_s == 0.0
    assert m.overshoot_hz >= 0.0
    assert m.f_steady_state_hz == pytest.approx(59.8, abs=1e-6)
    assert m.settling_time_s is not None
