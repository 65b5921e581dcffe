"""The README's library quick start runs as written.

A change that removes or renames a name the quick start uses fails here,
not in a reader's first session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Quick start \(library\)\s+```python\n(.*?)```", text, re.S)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    out = capsys.readouterr().out
    for name in ("x1", "x2", "x3", "x4"):
        assert f"\n{name} " in out  # one value line per feature
