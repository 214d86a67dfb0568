"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
