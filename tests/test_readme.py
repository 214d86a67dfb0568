"""The README's Library example and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from fleetfreq.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines() -> list[str]:
    """The fleetfreq lines of the first fenced block under "## CLI"."""
    text = README.read_text(encoding="utf-8")
    cli = text[text.index("\n## CLI\n") :]
    block = re.search(r"```\n(.*?)```", cli, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("fleetfreq ")]


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n") :]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # evaluate's one result, then one line per (mode, level) cell.
    assert len(lines) == 1 + 6
    assert lines[0].startswith("FrequencyMetrics(")
    assert [line.split()[:2] for line in lines[1:]] == [
        [mode, level] for mode in ("v1g", "v2g") for level in ("0.2", "0.6", "1.0")
    ]


def test_readme_has_four_cli_examples():
    assert [line.split()[1] for line in readme_cli_lines()] == [
        "simulate", "sweep", "daily", "profile"
    ]


@pytest.mark.parametrize("line", readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_example_runs(tmp_path, monkeypatch, line):
    args = shlex.split(line)[1:]
    out = args.index("--out") + 1
    args[out] = str(tmp_path / args[out])
    monkeypatch.chdir(README.parent)  # configs/reference.json is relative to the repo root
    assert main(args) == 0
    with open(args[out], encoding="utf-8") as fh:
        assert fh.readline() == f"# fleetfreq {args[0]}\n"
