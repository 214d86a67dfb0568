"""Grid model: effective inertia, per-unit conversion, dynamics RHS, and the
closed-form steady state, checked against hand-computed values and algebraic
properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fleetfreq.config import mix_from_value
from fleetfreq.grid import (
    CALIFORNIA_LOW_INERTIA_MIX,
    GenerationMix,
    GenerationSource,
    GridParameters,
    INERTIA_PRESETS,
    MAX_STEPS,
    effective_inertia,
    grid_from_mix,
    grid_from_preset,
    steady_state_deviation,
    whole_steps,
    _rhs,
)
from fleetfreq.simulator import _cell, default_scenario

# Hand-computed from the bundled California rows:
# sum(H_i * P_i) = 2.6*1166 + 4.9*12996 + 4.1*1147 + 3.6*88 + 2.4*3115
#                = 79207.5 MW*s over 19830 MW total.
WEIGHTED_H = 79207.5 / 19830.0
LOSS_PU = 1800.0 / 19830.0


def default_params(**overrides):
    base = dict(h_eff_s=6.4, s_base_mw=19830.0)
    base.update(overrides)
    return GridParameters(**base)


REST = (0.0, 0.0, 0.0, 0.0)  # the four deviation states at equilibrium


def rhs(state, disturbance_pu, command_pu, params):
    """The dynamics RHS at a (df, p_gov, p_mech, p_ev) state, as simulate
    parameterizes it."""
    return _rhs(
        *state, disturbance_pu, command_pu, params.h_eff_s, params.damping_pu,
        params.droop_pu, params.t_governor_s, params.t_turbine_s, params.t_ev_s,
    )


# ---------------------------------------------------------------------------
# effective inertia


def test_effective_inertia_single_source_identity():
    mix = GenerationMix((GenerationSource("gas", 4.9, 1000.0),))
    assert effective_inertia(mix) == 4.9


def test_effective_inertia_all_renewable_is_zero():
    mix = GenerationMix(
        (GenerationSource("wind", 0.0, 500.0), GenerationSource("solar", 0.0, 500.0))
    )
    assert effective_inertia(mix) == 0.0


def test_effective_inertia_california_rows():
    h = effective_inertia(CALIFORNIA_LOW_INERTIA_MIX)
    assert h == pytest.approx(WEIGHTED_H, rel=1e-12)
    assert h == pytest.approx(3.99, abs=0.01)


def test_empty_mix_rejected():
    with pytest.raises(ValueError):
        GenerationMix(())


def test_zero_power_mix_rejected():
    with pytest.raises(ValueError):
        GenerationMix((GenerationSource("idle", 5.0, 0.0),))


source_st = st.builds(
    GenerationSource,
    name=st.sampled_from(["a", "b", "c"]),
    inertia_s=st.floats(0.0, 10.0),
    power_mw=st.floats(0.1, 50000.0),
)
mix_st = st.builds(
    GenerationMix, st.lists(source_st, min_size=1, max_size=8).map(tuple)
)


@given(mix=mix_st, k=st.floats(1e-3, 1e3))
def test_effective_inertia_scale_invariant(mix, k):
    scaled = GenerationMix(
        tuple(GenerationSource(s.name, s.inertia_s, s.power_mw * k) for s in mix.sources)
    )
    assert effective_inertia(scaled) == pytest.approx(
        effective_inertia(mix), rel=1e-9
    )


@given(mix=mix_st)
def test_effective_inertia_within_source_bounds(mix):
    h = effective_inertia(mix)
    hs = [s.inertia_s for s in mix.sources]
    assert min(hs) - 1e-12 <= h <= max(hs) + 1e-12


# ---------------------------------------------------------------------------
# per-unit conversion


def test_to_per_unit():
    # Powers enter the dynamics divided by s_base_mw.
    params = default_params()
    assert 19830.0 / params.s_base_mw == 1.0
    dp_pu = _cell(default_scenario(grid=params)).dp_pu
    assert dp_pu == 1800.0 / params.s_base_mw
    assert dp_pu == pytest.approx(LOSS_PU, rel=1e-12)
    assert dp_pu == pytest.approx(0.09077, abs=1e-5)


# ---------------------------------------------------------------------------
# dynamics right-hand side


def test_swing_derivative_equilibrium_fixed_point():
    assert rhs(REST, 0.0, 0.0, default_params()) == (0.0, 0.0, 0.0, 0.0)


def test_swing_derivative_initial_rocof_reported_preset():
    d_delta_f = rhs(REST, LOSS_PU, 0.0, default_params())[0]
    # Closed form: -loss / (2H), scaled to Hz/s by the nominal frequency.
    assert d_delta_f * 60.0 == pytest.approx(-0.4254916792738275, rel=1e-12)
    assert d_delta_f * 60.0 == pytest.approx(-0.4255, abs=1e-4)


def test_swing_derivative_initial_rocof_weighted_preset():
    params = default_params(h_eff_s=WEIGHTED_H)
    d_delta_f = rhs(REST, LOSS_PU, 0.0, params)[0]
    assert d_delta_f * 60.0 == pytest.approx(-LOSS_PU * 60.0 / (2.0 * WEIGHTED_H))
    assert d_delta_f * 60.0 == pytest.approx(-0.682, abs=1e-3)


state_st = st.tuples(
    st.floats(-0.05, 0.05),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
input_st = st.floats(-1.0, 1.0)
coeff_st = st.floats(-3.0, 3.0)


@given(x1=state_st, x2=state_st, d1=input_st, d2=input_st, c1=input_st, c2=input_st,
       a=coeff_st, b=coeff_st)
def test_swing_derivative_linearity(x1, x2, d1, d2, c1, c2, a, b):
    params = default_params()
    combined = tuple(a * u + b * v for u, v in zip(x1, x2))
    lhs = rhs(combined, a * d1 + b * d2, a * c1 + b * c2, params)
    da = rhs(x1, d1, c1, params)
    db = rhs(x2, d2, c2, params)
    for got, u, v in zip(lhs, da, db):
        assert got == pytest.approx(a * u + b * v, rel=1e-12, abs=1e-12)


@given(
    h=st.floats(0.5, 10.0),
    damping=st.floats(0.0, 3.0),
    droop=st.floats(0.02, 0.3),
    t_gov=st.floats(0.05, 2.0),
    t_turb=st.floats(0.05, 2.0),
    t_ev=st.floats(0.05, 2.0),
    disturbance=st.floats(-0.5, 0.5),
    command=st.floats(-0.5, 0.5),
)
def test_ode_equilibrium_matches_closed_form(
    h, damping, droop, t_gov, t_turb, t_ev, disturbance, command
):
    params = GridParameters(
        h_eff_s=h,
        s_base_mw=10000.0,
        damping_pu=damping,
        droop_pu=droop,
        t_governor_s=t_gov,
        t_turbine_s=t_turb,
        t_ev_s=t_ev,
    )

    def deriv(vec):
        return np.array(rhs(vec, disturbance, command, params))

    # The RHS is affine: extract A and b numerically and solve A x = -b.
    b = deriv(np.zeros(4))
    a_mat = np.column_stack([deriv(e) - b for e in np.eye(4)])
    equilibrium = np.linalg.solve(a_mat, -b)
    df_hz = equilibrium[0] * params.f_nominal_hz
    oracle = steady_state_deviation(disturbance - command, params)
    assert df_hz == pytest.approx(oracle, abs=params.f_nominal_hz * 1e-10)


# ---------------------------------------------------------------------------
# steady state


def test_steady_state_zero_disturbance():
    assert steady_state_deviation(0.0, default_params()) == 0.0


def test_steady_state_default_loss():
    df = steady_state_deviation(LOSS_PU, default_params())
    # -loss / (D + 1/R) = -0.0907716 / 21 in pu, times 60 Hz.
    assert df == pytest.approx(-0.2593473092716663, rel=1e-12)
    assert 60.0 + df == pytest.approx(59.741, abs=5e-4)


def test_steady_state_fully_compensated():
    assert steady_state_deviation(LOSS_PU - LOSS_PU, default_params()) == 0.0


# ---------------------------------------------------------------------------
# parameters, presets, CSV


def test_grid_parameters_validation():
    with pytest.raises(ValueError):
        GridParameters(h_eff_s=0.0, s_base_mw=1000.0)
    with pytest.raises(ValueError):
        GridParameters(h_eff_s=5.0, s_base_mw=0.0)
    with pytest.raises(ValueError):
        GridParameters(h_eff_s=5.0, s_base_mw=1000.0, droop_pu=0.0)
    with pytest.raises(ValueError):
        GridParameters(h_eff_s=5.0, s_base_mw=1000.0, damping_pu=-0.1)
    with pytest.raises(ValueError):
        GridParameters(h_eff_s=5.0, s_base_mw=1000.0, t_ev_s=0.0)


def test_inertia_presets():
    assert INERTIA_PRESETS["table2_reported"] == 6.4
    assert INERTIA_PRESETS["table2_weighted"] == pytest.approx(WEIGHTED_H, rel=1e-12)
    grid = grid_from_preset("table2_reported")
    assert grid.h_eff_s == 6.4
    assert grid.s_base_mw == pytest.approx(19830.0)
    with pytest.raises(ValueError, match="unknown inertia preset"):
        grid_from_preset("nameplate")


@pytest.mark.parametrize(
    "span, step, count",
    [(60.0, 0.01, 6000), (1440.0, 15.0, 96), (1440.0, 1440.0, 1), (0.3, 0.1, 3)],
)
def test_whole_steps_counts_the_steps(span, step, count):
    assert whole_steps(span, step) == count


# Not whole, fewer than one step (1440 / 1e13 rounds to 0), and a count
# that overflows to inf.
@pytest.mark.parametrize(
    "span, step", [(60.0, 0.07), (1440.0, 2000.0), (1440.0, 1e13), (60.0, 1e-320), (1e308, 0.01)]
)
def test_whole_steps_rejects_what_is_not_a_whole_count(span, step):
    with pytest.raises(ValueError, match="step must divide span"):
        whole_steps(span, step)


def test_whole_steps_caps_a_run_and_names_its_span_and_step():
    assert whole_steps(1000.0, 0.0001) == MAX_STEPS == 10_000_000
    with pytest.raises(ValueError) as over:
        whole_steps(1000.0001, 0.0001, ("horizon_s", "step_s"))
    assert str(over.value) == (
        "horizon_s / step_s is 10,000,001 steps; a run may take at most 10,000,000"
    )
    with pytest.raises(ValueError, match="^step_min must divide 24 h$"):
        whole_steps(1440.0, 7.0, ("24 h", "step_min"))


def test_grid_from_mix():
    grid = grid_from_mix(CALIFORNIA_LOW_INERTIA_MIX, grid_from_preset("table2_reported"))
    assert grid.h_eff_s == pytest.approx(WEIGHTED_H, rel=1e-12)
    assert grid.s_base_mw == pytest.approx(19830.0)


def test_load_mix_csv_roundtrip(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text(
        "source,h_seconds,power_mw\n"
        "# a comment line\n"
        "gas,4.9,8000\n"
        "wind,0,2000\n",
        encoding="utf-8",
    )
    mix = mix_from_value(path)
    assert [s.name for s in mix.sources] == ["gas", "wind"]
    assert mix.total_power_mw == 10000.0
    assert effective_inertia(mix) == pytest.approx(4.9 * 0.8)


def test_load_mix_csv_bad_header(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text("name,h,mw\ngas,4.9,8000\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected header"):
        mix_from_value(path)


def test_load_mix_csv_bad_row_named(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text(
        "source,h_seconds,power_mw\ngas,4.9,8000\nwind,0,-5\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="data row 2"):
        mix_from_value(path)
