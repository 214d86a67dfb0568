"""Traced in-process CLI run: spans around the calls into each fleetfreq module.

Usage: python3 perfbench/tracer.py <spans.json> <fleetfreq CLI arguments...>

The program itself carries no tracing code. This script imports the CLI,
replaces the public functions listed in TIMED and COUNTED with wrappers that
record a span or a count, runs ``fleetfreq.cli.main`` and writes the spans to
<spans.json>. Targets that a later version of the program no longer has are
skipped and listed in the output, so their layers read zero.

Cells that run in pool workers record into a recorder of their own, which
travels back to the parent with the cell's result and is attached under the
grid-evaluation span that started them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import NamedTuple

# Layer span name -> functions timed under it, as (module, attribute path).
TIMED = {
    "config.resolve": [
        ("fleetfreq.config", "load_config_file"),
        ("fleetfreq.config", "scenario_from_config"),
        ("fleetfreq.config", "metrics_from_config"),
    ],
    "config.echo": [
        ("fleetfreq.config", "scenario_to_config"),
        ("fleetfreq.config", "day_profile_to_value"),
        ("fleetfreq.config", "canonical_json"),
    ],
    "simulator.day_profile": [
        ("fleetfreq.simulator", "bundled_day_profile"),
        ("fleetfreq.config", "day_profile_from_value"),
    ],
    "simulator.grid_eval": [
        ("fleetfreq.simulator", "evaluate_scenarios"),
        ("fleetfreq.simulator", "daily_nadir_scan"),
    ],
    "simulator.simulate": [("fleetfreq.simulator", "simulate")],
    "fleet.state": [("fleetfreq.fleet", "fleet_state_at")],
    "grid.resolve": [("fleetfreq.simulator", "Scenario.resolved_grid")],
    "metrics.evaluate": [("fleetfreq.metrics", "evaluate")],
    "cli.write": [("fleetfreq.cli", "write_atomic")],
    "cli.command": [
        ("fleetfreq.cli", "cmd_simulate"),
        ("fleetfreq.cli", "cmd_sweep"),
        ("fleetfreq.cli", "cmd_daily"),
    ],
}
# Called once per integration step: counted only, since two clock reads per
# call would cost more than the call.
COUNTED = {
    "controller.detect": [("fleetfreq.controller", "detect_event")],
    "controller.command": [("fleetfreq.controller", "ev_power_command")],
}
# The per-cell task function of the grid evaluators; wrapped so that worker-side
# spans come back with each result.
CELL_TARGET = ("fleetfreq.simulator", "_simulate_metrics")


class Recorder:
    """Spans as [name, start, end, parent index, pid] plus call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, os.getpid()])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], counts: dict[str, int], parent: int) -> None:
        """Attach spans recorded elsewhere (a worker) under span `parent`."""
        offset = len(self.spans)
        for name, start, end, p, pid in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + offset, pid])
        for name, n in counts.items():
            self.counts[name] = self.counts.get(name, 0) + n


class CellResult(NamedTuple):
    value: object
    spans: list
    counts: dict


RECORDER = Recorder()
_original_cell = None
_missing: list[str] = []


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _replace_everywhere(original, wrapper) -> None:
    # The CLI and the simulator import functions by name, so every fleetfreq
    # module that holds the original object gets the wrapper.
    for name, module in list(sys.modules.items()):
        if name != "fleetfreq" and not name.startswith("fleetfreq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _timed(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if name == "simulator.grid_eval" and isinstance(out, list):
            out = _unwrap_cells(rec, out, i)
        return out

    return wrapper


def _counted(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = RECORDER.counts
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _unwrap_cells(rec: Recorder, results: list, parent: int) -> list:
    out = []
    for r in results:
        if isinstance(r, CellResult):
            rec.adopt(r.spans, r.counts, parent)
            r = r.value
        out.append(r)
    return out


def traced_cell(task):
    """Stand-in for the per-cell function of the grid; runs in pool workers too."""
    global RECORDER
    install()  # no-op after the first call; needed where workers are spawned
    outer, RECORDER = RECORDER, Recorder()
    try:
        i = RECORDER.open("simulator.cell")
        try:
            value = _original_cell(task)
        finally:
            RECORDER.close(i)
        return CellResult(value, RECORDER.spans, RECORDER.counts)
    finally:
        RECORDER = outer


def install() -> None:
    global _original_cell
    if _original_cell is not None:
        return
    for group, make in ((TIMED, _timed), (COUNTED, _counted)):
        for name, targets in group.items():
            for module, path in targets:
                try:
                    owner, attr, fn = _resolve(module, path)
                except (ImportError, AttributeError):
                    _missing.append(f"{module}.{path}")
                    continue
                wrapper = make(name, fn)
                if "." in path:
                    setattr(owner, attr, wrapper)
                else:
                    _replace_everywhere(fn, wrapper)
    try:
        owner, attr, fn = _resolve(*CELL_TARGET)
    except (ImportError, AttributeError):
        _missing.append(".".join(CELL_TARGET))
        _original_cell = False
        return
    _original_cell = fn
    _replace_everywhere(fn, traced_cell)


def main(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import fleetfreq.cli

    import_s = time.perf_counter() - t0
    install()
    status = fleetfreq.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "pid": os.getpid(),
                "missing": _missing,
                "spans": RECORDER.spans,
                "counts": RECORDER.counts,
            },
            fh,
        )
    return status


# ---------------------------------------------------------------------------
# summary


def _outermost(spans: list[list], name: str) -> list[list]:
    """Spans called `name` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(span)
    return out


def _total(spans: list[list], name: str) -> float:
    return sum(s[2] - s[1] for s in _outermost(spans, name))


def layer_metrics(trace: dict, cells: int, steps: int, workers: int, wall_s: float) -> dict:
    """Per-layer numbers from one traced run, keyed by metric name."""
    spans, counts = trace["spans"], trace["counts"]
    simulate_s = _total(spans, "simulator.simulate")
    evaluate = _outermost(spans, "metrics.evaluate")
    evaluate_s = sum(s[2] - s[1] for s in evaluate)
    cell_spans = _outermost(spans, "simulator.cell")
    cell_work = sum(s[2] - s[1] for s in cell_spans) if cell_spans else simulate_s + evaluate_s
    grid_eval_s = _total(spans, "simulator.grid_eval")
    fleet_state = _outermost(spans, "fleet.state")

    # Self time of the subcommand: its span minus the spans directly under it.
    format_s = 0.0
    for i, span in enumerate(spans):
        if span[0] == "cli.command":
            children = sum(s[2] - s[1] for s in spans if s[3] == i)
            format_s += (span[2] - span[1]) - children
    # Top-level spans of the traced process, plus its import, against its wall.
    top = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[4] == trace["pid"])
    return {
        "config.resolve_s": _total(spans, "config.resolve"),
        "config.echo_s": _total(spans, "config.echo"),
        "simulator.cells": cells,
        "simulator.steps": steps,
        "simulator.simulate_s": simulate_s,
        "simulator.step_us": simulate_s / steps * 1e6,
        "simulator.cell_ms": cell_work / cells * 1e3,
        "simulator.day_profile_s": _total(spans, "simulator.day_profile"),
        "simulator.grid_eval_s": grid_eval_s,
        "simulator.pool_efficiency": (
            cell_work / (workers * grid_eval_s) if grid_eval_s > 0 else 0.0
        ),
        "fleet.state_calls": len(fleet_state),
        "fleet.state_s": sum(s[2] - s[1] for s in fleet_state),
        "grid.resolve_s": _total(spans, "grid.resolve"),
        "controller.detect_calls": counts.get("controller.detect", 0),
        "controller.command_calls": counts.get("controller.command", 0),
        "metrics.calls": len(evaluate),
        "metrics.evaluate_s": evaluate_s,
        "metrics.evaluate_ms": evaluate_s / len(evaluate) * 1e3 if evaluate else 0.0,
        "cli.format_s": format_s,
        "cli.write_s": _total(spans, "cli.write"),
        "trace.wall_s": wall_s,
        "trace.accounted_share": (trace["import_s"] + top) / wall_s,
    }


if __name__ == "__main__":
    # Run through the importable module, not __main__, so that traced_cell
    # pickles by a name pool workers can import.
    import tracer

    sys.exit(tracer.main(sys.argv[1], sys.argv[2:]))
