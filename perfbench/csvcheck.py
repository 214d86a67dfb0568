"""Correctness checks on fleetfreq output CSVs.

Every check returns a list of failure messages; an empty list means the
output passed. The checks look only at the file the CLI wrote, so they hold
for any implementation that keeps the documented CSV format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

CONFIG_PREFIX = "# config = "
# Columns that hold words, not numbers. Every other non-empty cell must be a
# finite number; empty cells (settling_s when a cell never settles) are allowed.
TEXT_COLUMNS = {"scenario_id", "mode", "strategy"}
# Values are printed with six decimals; this allows a last-digit rounding flip
# and a few ulps of drift from a reordered but equivalent integration.
REFERENCE_ABS_TOL = 5e-6


class ParseError(ValueError):
    """The file is not a fleetfreq CSV (header block, columns, rows)."""


@dataclass(frozen=True)
class Table:
    command: str
    config: dict
    columns: list[str]
    rows: list[list[str]]

    def records(self) -> list[dict[str, str]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def parse_text(text: str, with_header: bool = True) -> Table:
    """Parse CLI output; with_header=False reads a bare reference CSV."""
    lines = text.splitlines()
    command, config = "", {}
    if with_header:
        if len(lines) < 3 or not lines[0].startswith("# fleetfreq "):
            raise ParseError("missing '# fleetfreq <command>' header line")
        command = lines[0][len("# fleetfreq "):]
        if not lines[1].startswith(CONFIG_PREFIX):
            raise ParseError("missing '# config = ' header line")
        try:
            config = json.loads(lines[1][len(CONFIG_PREFIX):])
        except json.JSONDecodeError as exc:
            raise ParseError(f"header config is not JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ParseError("header config is not a JSON object")
        lines = lines[2:]
    if not lines:
        raise ParseError("no column header")
    columns = lines[0].split(",")
    return Table(command, config, columns, [line.split(",") for line in lines[1:]])


def parse_file(path: str | Path, with_header: bool = True) -> Table:
    return parse_text(Path(path).read_text(encoding="utf-8"), with_header)


def _key(column: str, value: str) -> str:
    # Time keys are compared as numbers so a formatting change does not
    # count as a missing row.
    return f"{float(value):.6f}" if column == "t_s" else value


def check_structure(table: Table, key_column: str, expected_rows: int) -> list[str]:
    """Row count, unique keys, finite values."""
    errors = []
    if len(table.rows) != expected_rows:
        errors.append(f"{len(table.rows)} rows, expected {expected_rows}")
    if key_column not in table.columns:
        return errors + [f"key column {key_column!r} missing"]
    seen: set[str] = set()
    for n, row in enumerate(table.rows, start=1):
        if len(row) != len(table.columns):
            errors.append(f"row {n}: {len(row)} cells, expected {len(table.columns)}")
            continue
        for column, cell in zip(table.columns, row):
            if column in TEXT_COLUMNS or cell == "":
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                errors.append(f"row {n}: {column}={cell!r} is not a finite number")
        try:
            key = _key(key_column, row[table.columns.index(key_column)])
        except ValueError:
            continue  # already reported as not a finite number
        if key in seen:
            errors.append(f"row {n}: duplicate {key_column} {key}")
        seen.add(key)
    return errors[:20]


def check_reference(
    table: Table, reference: Table, key_column: str, tol: float = REFERENCE_ABS_TOL
) -> list[str]:
    """Every reference value is present and within tol. Output columns the
    reference lacks are ignored, so a deliberately added column passes."""
    errors = []
    missing = [c for c in reference.columns if c not in table.columns]
    if missing:
        return [f"columns missing from output: {', '.join(missing)}"]
    try:
        by_key = {_key(key_column, r[key_column]): r for r in table.records()}
    except (KeyError, ValueError) as exc:
        return [f"cannot key output rows by {key_column}: {exc}"]
    for ref in reference.records():
        key = _key(key_column, ref[key_column])
        row = by_key.get(key)
        if row is None:
            errors.append(f"{key_column} {key}: missing from output")
            continue
        for column, expected in ref.items():
            got = row.get(column, "")
            if column in TEXT_COLUMNS or expected == "" or got == "":
                if got != expected:
                    errors.append(f"{key}.{column}: {got!r} != reference {expected!r}")
                continue
            try:
                delta = abs(float(got) - float(expected))
            except ValueError:
                delta = math.inf
            if not delta <= tol:
                errors.append(f"{key}.{column}: {got} != reference {expected} (tol {tol:g})")
    return errors[:20]


def check_daily_matches_sweep(daily: Table, sweep: Table) -> list[str]:
    """Daily rows at 20:00 equal the sweep rows with the same strategy, mode
    and participation, byte for byte from nadir_hz onward."""
    if "nadir_hz" not in sweep.columns:
        return ["sweep output has no nadir_hz column"]
    compared = sweep.columns[sweep.columns.index("nadir_hz"):]
    sweep_rows = {
        (r.get("strategy"), r.get("mode"), r.get("participation")): r
        for r in sweep.records()
    }
    errors = []
    pairs = 0
    for row in daily.records():
        try:
            if float(row.get("clock_min", "nan")) != 1200.0:
                continue
        except ValueError:
            continue
        key = (row.get("strategy"), row.get("mode"), row.get("participation"))
        match = sweep_rows.get(key)
        if match is None:
            errors.append(f"daily row {row.get('scenario_id')}: no sweep row for {key}")
            continue
        pairs += 1
        for column in compared:
            if row.get(column) != match.get(column):
                errors.append(
                    f"{row.get('scenario_id')}.{column}: daily {row.get(column)!r} "
                    f"!= sweep {match.get(column)!r}"
                )
    if pairs == 0:
        errors.append("no daily row at clock_min 1200 matched a sweep row")
    return errors[:20]
