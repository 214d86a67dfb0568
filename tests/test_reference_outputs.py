"""The byte-stable CSV contract: the three reference runs of the benchmark
write exactly the rows stored in perfbench/reference (read only here), and
echo exactly the config lines stored in tests/reference_headers."""

from pathlib import Path

import pytest

from fleetfreq.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
REFERENCE_DIR = ROOT / "perfbench" / "reference"
HEADER_DIR = ROOT / "tests" / "reference_headers"
TRAJECTORY_ARGS = ("simulate", "--mode", "v2g", "--participation", "100", "--step", "0.001")
REFERENCE_RUNS = {"trajectory": TRAJECTORY_ARGS, "sweep": ("sweep",), "daily": ("daily",)}


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
