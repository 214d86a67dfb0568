"""The byte-stable CSV contract: the three reference runs of the benchmark
write exactly the rows stored in perfbench/reference (read only here)."""

from pathlib import Path

import pytest

from fleetfreq.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
REFERENCE_DIR = ROOT / "perfbench" / "reference"


def run_lines(tmp_path, *args):
    out = tmp_path / "out.csv"
    assert main([*args, "--config", str(REFERENCE_CONFIG), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if not line.startswith("#")]


def reference_lines(name):
    return (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("command", ["sweep", "daily"])
def test_grid_output_equals_reference_bytes(tmp_path, command):
    assert run_lines(tmp_path, command) == reference_lines(command)


def test_trajectory_equals_reference_bytes_at_every_stored_time(tmp_path):
    lines = run_lines(
        tmp_path, "simulate", "--mode", "v2g", "--participation", "100", "--step", "0.001"
    )
    by_time = {line.split(",", 1)[0]: line for line in lines}
    reference = reference_lines("trajectory")
    assert len(reference) == 602
    for line in reference:
        assert by_time[line.split(",", 1)[0]] == line
