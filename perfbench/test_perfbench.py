"""Tests of the benchmark itself: the result schema, and that the output
checks reject corrupted CSVs. No test here bounds a timing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import csvcheck  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = HERE / "reference"


def _output(reference_name: str, command: str, mutate=None) -> str:
    """A CLI-shaped output built from a reference CSV, optionally corrupted."""
    lines = (REFERENCE / reference_name).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    columns = lines[0].split(",")
    if mutate:
        columns, rows = mutate(columns, rows)
    body = [",".join(columns)] + [",".join(r) for r in rows]
    return "\n".join([f"# fleetfreq {command}", '# config = {"event":{}}', *body]) + "\n"


def _sweep_errors(text: str) -> list[str]:
    table = csvcheck.parse_text(text)
    reference = csvcheck.parse_file(REFERENCE / "sweep.csv", with_header=False)
    return csvcheck.check_structure(table, "scenario_id", 30) + csvcheck.check_reference(
        table, reference, "scenario_id"
    )


def _set(row_index, column, value):
    def mutate(columns, rows):
        rows[row_index][columns.index(column)] = value
        return columns, rows

    return mutate


def test_reference_output_passes():
    assert _sweep_errors(_output("sweep.csv", "sweep")) == []


def test_new_column_is_ignored():
    def add_column(columns, rows):
        return columns + ["latch_s"], [r + ["0.860000"] for r in rows]

    assert _sweep_errors(_output("sweep.csv", "sweep", add_column)) == []


@pytest.mark.parametrize(
    "mutate",
    [
        _set(3, "nadir_hz", "59.600000"),  # value off the reference
        _set(3, "nadir_hz", "nan"),  # not finite
        _set(3, "settling_s", ""),  # value dropped
        _set(4, "scenario_id", "immediate-v1g-p020"),  # duplicate key
        lambda columns, rows: (columns, rows[:-1]),  # row missing
        lambda columns, rows: ([c for c in columns if c != "f_ss_hz"],
                               [r[:-1] for r in rows]),  # column missing
    ],
    ids=["off-reference", "nan", "dropped", "duplicate-key", "missing-row", "missing-column"],
)
def test_corrupted_output_is_rejected(mutate):
    assert _sweep_errors(_output("sweep.csv", "sweep", mutate))


def test_trajectory_keys_are_times():
    table = csvcheck.parse_text(_output("trajectory.csv", "simulate"))
    reference = csvcheck.parse_file(REFERENCE / "trajectory.csv", with_header=False)
    assert csvcheck.check_reference(table, reference, "t_s") == []
    shifted = csvcheck.parse_text(_output("trajectory.csv", "simulate", _set(10, "f_hz", "59.9")))
    assert csvcheck.check_reference(shifted, reference, "t_s")


def test_bad_header_is_rejected():
    text = _output("sweep.csv", "sweep").replace('{"event":{}}', '{"event":')
    with pytest.raises(csvcheck.ParseError):
        csvcheck.parse_text(text)


def test_daily_must_match_sweep_at_2000():
    daily = csvcheck.parse_text(_output("daily.csv", "daily"))
    sweep = csvcheck.parse_text(_output("sweep.csv", "sweep"))
    assert csvcheck.check_daily_matches_sweep(daily, sweep) == []
    at_2000 = [i for i, r in enumerate(daily.records()) if r["clock_min"] == "1200.000000"]
    broken = csvcheck.parse_text(_output("daily.csv", "daily", _set(at_2000[0], "rocof_hzps", "-0.1")))
    assert csvcheck.check_daily_matches_sweep(broken, sweep)


def test_result_schema():
    """One short traced run: the last stdout line carries exactly the
    declared per-layer metrics, and the record the declared end-to-end ones."""
    root = HERE.parent
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep", "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    record = json.loads((root / ".bench_out" / "sweep-seed7-trace1" / "result.json").read_text())
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert record["fail_ratio"] == 0.0
    assert record["environment"]["nproc"] >= 1
