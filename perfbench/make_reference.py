"""Record the seed-0 reference values that run.py compares outputs against.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Runs each workload once on configs/reference.json and writes its column
header and rows to perfbench/reference/<workload>.csv; the trajectory keeps
every 100th sample (one per 0.1 s). Re-run only for a deliberate change of
the program's results, and say so where the change is recorded.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REFERENCE_CONFIG, ROOT, WORKLOADS, cli_args, cli_command

TRAJECTORY_STRIDE = 100


def main() -> None:
    ref_dir = Path(__file__).resolve().parent / "reference"
    ref_dir.mkdir(exist_ok=True)
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for wl in WORKLOADS.values():
            out = Path(tmp) / f"{wl.name}.csv"
            subprocess.run(
                cli_command(cli_args(wl, REFERENCE_CONFIG, out)), cwd=ROOT, env=env, check=True
            )
            lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
            header, rows = lines[0], lines[1:]
            if wl.name == "trajectory":
                rows = rows[::TRAJECTORY_STRIDE]
            (ref_dir / f"{wl.name}.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            print(f"{wl.name}: {len(rows)} reference rows", file=sys.stderr)


if __name__ == "__main__":
    main()
