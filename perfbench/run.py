"""fleetfreq benchmark: the CLI runs behind the paper's three experiments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trajectory|sweep|daily|all \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next ``fleetfreq`` run
starts only after the previous one exits, for S seconds. Seed 0 uses
configs/reference.json unchanged; any other seed writes a copy that differs
only in event.disturbance_mw, drawn from DISTURBANCE_RANGE_MW, so the values
change and the work does not.

Every output is checked (see csvcheck.py): row count, unique keys, finite
values, the header config parses, byte-identical repeats, the header
round trip, the seed-0 reference values, and for daily the 20:00 rows
against a sweep of the same config. --trace 0 reports the end-to-end metrics
of BENCHMARK.json; --trace 1 adds one traced in-process run (tracer.py) and
reports the per-layer metrics. The last line of stdout is the result JSON;
a readable report goes to stderr and the full record, with the environment,
to .bench_out/<workload>-seed<N>-trace<T>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import csvcheck  # noqa: E402
import tracer  # noqa: E402

REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
DISTURBANCE_RANGE_MW = (1500.0, 2100.0)
# Set-up probes per run, after one discarded warm-up.
PROBES = 7
PROCESS_TIMEOUT_S = 150.0
# Single-process runs are pinned to these CPUs in turn. On a shared host one
# CPU can run slower than another for many seconds while the scheduler keeps
# a serial process on it; alternating makes every window sample each CPU.
CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]  # scenario flags; the echoed config carries them
    run_flags: tuple[str, ...]  # flags that do not change the output
    workers: int
    cells: int
    steps_per_cell: int
    rows: int
    key: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trajectory", "simulate",
            ("--mode", "v2g", "--participation", "100", "--step", "0.001"), (),
            workers=1, cells=1, steps_per_cell=60_000, rows=60_001, key="t_s",
        ),
        Workload(
            "sweep", "sweep", (), (),
            workers=1, cells=30, steps_per_cell=6_000, rows=30, key="scenario_id",
        ),
        Workload(
            "daily", "daily", (), ("--workers", "2"),
            workers=2, cells=960, steps_per_cell=6_000, rows=960, key="scenario_id",
        ),
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Proc:
    status: int
    wall_s: float
    cpu_s: float  # user + sys of the process and every child it reaped
    rss_mb: float  # largest resident set of the process or any reaped child
    stdout: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def timed_process(argv: list[str], env: dict, log: Path, cpu: int | None = None) -> Proc:
    """Run argv to completion in its own process group; time spawn to exit.
    With cpu set, the process (and anything it starts) runs on that CPU only."""
    with log.open("ab") as log_fh:
        t0 = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # inherited by the child at fork
        try:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log_fh,
                start_new_session=True,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # A pool worker left behind by a crash would otherwise outlive us.
        _kill_group(proc.pid)
        stdout = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
    return Proc(
        proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0, stdout,
    )


def make_config(seed: int, out: Path) -> Path:
    if seed == 0:
        return REFERENCE_CONFIG
    cfg = json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    cfg["event"]["disturbance_mw"] = round(
        random.Random(seed).uniform(*DISTURBANCE_RANGE_MW), 1
    )
    path = out / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def cli_args(wl: Workload, config: Path, out: Path, round_trip: bool = False) -> list[str]:
    flags = () if round_trip else wl.flags
    return [wl.command, "--config", str(config), "--out", str(out), *flags, *wl.run_flags]


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fleetfreq.cli", *args]


def _read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _source_id() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def make_result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchError(
            f"measured metrics {sorted(values)} differ from declared {sorted(units)}"
        )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    e2e_units, layer_units = declared_metrics()
    out = ROOT / ".bench_out" / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = out / "stderr.log"
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    config = make_config(seed, out)
    load_before = _read_loadavg()
    failures: list[str] = []
    attempted = failed = 0

    # Set-up: a fresh interpreter imports the CLI and resolves the config.
    # The probes are spread through the loop below so that they sample the
    # same stretch of machine time as the CLI runs.
    probe_argv = [sys.executable, str(HERE / "probe.py"), wl.command, str(config)]
    probes: list[tuple[float, float]] = []

    def probe(cpu: int | None = None) -> tuple[float, float]:
        p = timed_process(probe_argv, env, log, cpu)
        if p.status != 0:
            raise BenchError(f"set-up probe exited {p.status}; see {log}")
        return p.wall_s, json.loads(p.stdout)["import_s"]

    probe()  # warm-up: compiles .pyc and fills the page cache

    # Closed loop of CLI runs.
    first = out / "first.csv"
    runs: list[Proc] = []
    t_start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_start < seconds:
        if len(probes) < PROBES:
            probes.append(probe(CPUS[len(probes) % len(CPUS)]))
        target = out / "repeat.csv" if first.exists() else first
        # A pooled workload keeps every CPU for its workers.
        cpu = CPUS[attempted % len(CPUS)] if wl.workers == 1 else None
        p = timed_process(cli_command(cli_args(wl, config, target)), env, log, cpu)
        attempted += 1
        if p.status != 0:
            failed += 1
            failures.append(f"run {attempted}: exit status {p.status}")
        elif target != first and target.read_bytes() != first.read_bytes():
            failed += 1
            failures.append(f"run {attempted}: output differs from the first run")
        else:
            runs.append(p)
    while len(probes) < PROBES:
        probes.append(probe(CPUS[len(probes) % len(CPUS)]))
    if not runs:
        raise BenchError(f"no {wl.name} run succeeded; see {log}")

    # Output checks on the first output; repeats were compared byte for byte.
    try:
        table = csvcheck.parse_file(first)
        content = csvcheck.check_structure(table, wl.key, wl.rows)
        if table.command != wl.command:
            content.append(f"header names command {table.command!r}")
        if seed == 0:
            reference = csvcheck.parse_file(HERE / "reference" / f"{wl.name}.csv", False)
            content += csvcheck.check_reference(table, reference, wl.key)
    except csvcheck.ParseError as exc:
        table, content = None, [f"unparseable output: {exc}"]
    if content:
        failed += len(runs)
        failures += content

    # Header round trip, timed outside wall_s.
    if table is not None:
        echo = out / "echo.json"
        echo.write_text(json.dumps(table.config), encoding="utf-8")
        rt = out / "roundtrip.csv"
        p = timed_process(cli_command(cli_args(wl, echo, rt, round_trip=True)), env, log)
        attempted += 1
        if p.status != 0 or rt.read_bytes() != first.read_bytes():
            failed += 1
            failures.append(f"round trip: exit {p.status} or output not byte-identical")

    # Daily rows at 20:00 against a sweep of the same config.
    if wl.name == "daily" and table is not None:
        sweep_wl = WORKLOADS["sweep"]
        sweep_out = out / "sweep.csv"
        p = timed_process(cli_command(cli_args(sweep_wl, config, sweep_out)), env, log)
        attempted += 1
        try:
            cross = [f"sweep exit status {p.status}"] if p.status else (
                csvcheck.check_daily_matches_sweep(table, csvcheck.parse_file(sweep_out))
            )
        except csvcheck.ParseError as exc:
            cross = [f"unparseable sweep output: {exc}"]
        if cross:
            failed += 1
            failures += cross

    steps = wl.cells * wl.steps_per_cell
    wall_s = statistics.median(r.wall_s for r in runs)
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(w for w, _ in probes),
        "steps_per_s": statistics.median(steps / r.wall_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    layers = None
    if trace:
        spans_path = out / "spans.json"
        traced_out = out / "traced.csv"
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        p = timed_process(argv + cli_args(wl, config, traced_out), env, log)
        attempted += 1
        if p.status != 0 or traced_out.read_bytes() != first.read_bytes():
            raise BenchError(
                f"traced run exited {p.status} or its output differs from untraced; see {log}"
            )
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        layers = tracer.layer_metrics(spans, wl.cells, steps, wl.workers, p.wall_s)
        layers.update({
            "process.import_s": statistics.median(i for _, i in probes),
            "process.cpu_s": statistics.median(r.cpu_s for r in runs),
            "cli.rows": len(table.rows) if table else 0,
            "cli.out_bytes": first.stat().st_size,
            "trace.overhead_s": p.wall_s - wall_s,
        })
        if spans["missing"]:
            print(f"[perfbench] trace targets not found: {spans['missing']}", file=sys.stderr)

    correct = not failures and failed == 0
    result = make_result(
        correct, attempted, failed, layers if trace else values,
        layer_units if trace else e2e_units,
    )
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": str(config.relative_to(ROOT)),
        "argv": cli_args(wl, config, first),
        "result": result,
        "end_to_end": values,
        "per_layer": layers,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "samples": {
            "wall_s": [r.wall_s for r in runs],
            "cpu_s": [r.cpu_s for r in runs],
            "rss_mb": [r.rss_mb for r in runs],
            "setup_s": [w for w, _ in probes],
            "import_s": [i for _, i in probes],
        },
        "environment": {
            **_source_id(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "nproc": os.cpu_count(),
            "workers": wl.workers,
            "loadavg_before": load_before,
            "loadavg_after": _read_loadavg(),
        },
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    _report(record, e2e_units, layer_units)
    return result


def _report(record: dict, e2e_units: dict, layer_units: dict) -> None:
    err = sys.stderr
    env = record["environment"]
    print(
        f"[perfbench] {record['workload']} seed={record['seed']} "
        f"runs={len(record['samples']['wall_s'])} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} workers={env['workers']} "
        f"git={env['git_sha']} load {env['loadavg_before']} -> {env['loadavg_after']}",
        file=err,
    )
    for name, unit in e2e_units.items():
        print(f"  {name:<28} {record['end_to_end'][name]:>14.6f} {unit}", file=err)
    print(
        f"  {'fail_ratio':<28} {record['fail_ratio']:>14.6f} "
        f"({record['result']['failed']}/{record['result']['attempted']})",
        file=err,
    )
    for name, unit in layer_units.items() if record["per_layer"] else ():
        print(f"  {name:<28} {record['per_layer'][name]:>14.6f} {unit}", file=err)
    for failure in record["failures"]:
        print(f"  FAIL {failure}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [ROOT / "src" / "fleetfreq" / "cli.py", REFERENCE_CONFIG, ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a fleetfreq checkout, missing {missing}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
