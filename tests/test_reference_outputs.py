"""The byte-stable CSV contract: the three reference runs of the benchmark
write exactly the rows stored in perfbench/reference (read only here), and
echo exactly the config lines stored in tests/reference_headers; two profile
runs write exactly the files stored in tests/reference_outputs; and each row
template formats its values as the per-field join it replaced."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from fleetfreq.cli import METRICS_ROW, PROFILE_ROW, TRAJECTORY_ROW, _metrics_row, main
from fleetfreq.controller import ControlMode, ControllerConfig
from fleetfreq.metrics import FrequencyMetrics
from fleetfreq.simulator import default_scenario

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
REFERENCE_DIR = ROOT / "perfbench" / "reference"
HEADER_DIR = ROOT / "tests" / "reference_headers"
TRAJECTORY_ARGS = ("simulate", "--mode", "v2g", "--participation", "100", "--step", "0.001")
REFERENCE_RUNS = {"trajectory": TRAJECTORY_ARGS, "sweep": ("sweep",), "daily": ("daily",)}
OUTPUT_DIR = ROOT / "tests" / "reference_outputs"
PROFILE_RUNS = {
    "profile_default": ("profile",),
    "profile_reference_5min": (
        "profile", "--config", str(REFERENCE_CONFIG), "--step-min", "5",
    ),
}


def run_text(tmp_path, *args):
    out = tmp_path / "out.csv"
    assert main([*args, "--config", str(REFERENCE_CONFIG), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def run_lines(tmp_path, *args):
    return [line for line in run_text(tmp_path, *args).splitlines() if not line.startswith("#")]


def reference_lines(name):
    return (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("command", ["sweep", "daily"])
def test_grid_output_equals_reference_bytes(tmp_path, command):
    assert run_lines(tmp_path, command) == reference_lines(command)


def test_trajectory_equals_reference_bytes_at_every_stored_time(tmp_path):
    lines = run_lines(tmp_path, *TRAJECTORY_ARGS)
    by_time = {line.split(",", 1)[0]: line for line in lines}
    reference = reference_lines("trajectory")
    assert len(reference) == 602
    for line in reference:
        assert by_time[line.split(",", 1)[0]] == line


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_echoed_config_equals_the_pinned_header(tmp_path, name):
    echoed = [
        line
        for line in run_text(tmp_path, *REFERENCE_RUNS[name]).splitlines()
        if line.startswith("# config = ")
    ]
    pinned = (HEADER_DIR / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    assert echoed == pinned


@pytest.mark.parametrize("name", PROFILE_RUNS)
def test_profile_equals_the_pinned_file(tmp_path, name):
    out = tmp_path / "out.csv"
    assert main([*PROFILE_RUNS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (OUTPUT_DIR / f"{name}.csv").read_bytes()


# ---------------------------------------------------------------------------
# row templates against the per-field join they replaced


def joined(fields):
    """The old row: each number formatted alone, the fields joined by commas."""
    return ",".join(x if isinstance(x, str) else format(x, ".6f") for x in fields) + "\n"


def joined_metrics_row(scenario_id, s, m):
    settling = "" if m.settling_time_s is None else m.settling_time_s
    return joined(
        (
            scenario_id, s.controller.mode.value, s.controller.participation,
            s.fleet.strategy.value, s.clock_min, m.nadir_hz, m.nadir_time_s,
            m.rocof_hz_per_s, m.overshoot_hz, settling, m.f_steady_state_hz,
        )
    )


def _around_half_ulp(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


# Values where six-decimal formatting is easiest to get wrong: signed zero,
# the least subnormal, the largest magnitudes printed here, and floats one ulp
# either side of a seventh decimal of 5, where the rounding turns.
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
    *_around_half_ulp(0.0000005), *_around_half_ulp(1.2345675),
    *_around_half_ulp(-2.5000005), *_around_half_ulp(59.9999995),
    *_around_half_ulp(1439.9999995),
)
finite = st.floats(allow_nan=False, allow_infinity=False)
values = st.one_of(finite, st.sampled_from(EDGE_VALUES))


def _check_lines(text, rows):
    assert text.endswith("\n") and text.count("\n") == rows
    assert "\n\n" not in text


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_templates_format_edge_values_as_the_join(x):
    for template, width in ((TRAJECTORY_ROW, 5), (PROFILE_ROW, 4)):
        assert template % ((x,) * width) == joined((x,) * width)


@hypothesis_settings(derandomize=True, max_examples=200)
@given(st.lists(st.tuples(*[values] * 5), min_size=1, max_size=8))
def test_trajectory_block_equals_the_joined_rows(samples):
    block = [x for sample in samples for x in sample]
    text = TRAJECTORY_ROW * len(samples) % tuple(block)
    assert text == "".join(joined(sample) for sample in samples)
    _check_lines(text, len(samples))


@hypothesis_settings(derandomize=True, max_examples=200)
@given(st.tuples(*[values] * 4))
def test_profile_row_equals_the_join(row):
    text = PROFILE_ROW % row
    assert text == joined(row)
    _check_lines(text, 1)


@hypothesis_settings(derandomize=True, max_examples=200)
@given(
    participation=st.one_of(st.floats(0.0, 1.0), st.just(0.504)),
    clock_min=st.floats(0.0, 1440.0, exclude_max=True),
    mode=st.sampled_from(ControlMode),
    numbers=st.tuples(*[values] * 5),
    settling=st.one_of(st.none(), values),
)
def test_metrics_row_equals_the_join(participation, clock_min, mode, numbers, settling):
    s = default_scenario(
        controller=ControllerConfig(mode=mode, participation=participation),
        clock_min=clock_min,
    )
    nadir, nadir_s, rocof, overshoot, f_ss = numbers
    m = FrequencyMetrics(nadir, nadir_s, rocof, overshoot, settling, f_ss)
    text = _metrics_row("cell-id", s, m)
    assert text == joined_metrics_row("cell-id", s, m)
    _check_lines(text, 1)
    assert METRICS_ROW.count("%") == len(text.split(","))


def test_metrics_row_of_unsettled_cell_has_an_empty_settling_field():
    s = default_scenario(controller=ControllerConfig(participation=0.504))
    m = FrequencyMetrics(59.5, 1.0, -0.7, 0.08, None, 59.76)
    fields = _metrics_row("cell-id", s, m)[:-1].split(",")
    assert fields[2] == "0.504000"
    assert fields[9] == ""
