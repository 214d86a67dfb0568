"""Set-up probe: a fresh interpreter imports the CLI and resolves a config.

Usage: python3 perfbench/probe.py <simulate|sweep|daily> <config.json>

Prints one JSON object with the import time and the config resolution time
(plus the day profile for daily): the work a CLI run does before its first
cell. The caller times the whole process from spawn to exit.
"""

import json
import sys
import time


def main(command: str, config_path: str) -> None:
    t0 = time.perf_counter()
    import fleetfreq.cli  # noqa: F401  (the import is what is timed)
    from fleetfreq.config import load_config_file, metrics_from_config, scenario_from_config
    from fleetfreq.simulator import bundled_day_profile

    t1 = time.perf_counter()
    cfg = load_config_file(config_path)
    scenario_from_config(cfg)
    if command in ("sweep", "daily"):
        metrics_from_config(cfg)
    if command == "daily":
        bundled_day_profile()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "resolve_s": t2 - t1}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
