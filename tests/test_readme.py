"""README guard: the Quick start example runs against the checkout's API."""

from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "README's Quick start should hold one python block"
    return blocks[0]


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["(4, 9, 7, 24)", "(4, 9, 7, 24)"]
    assert len(lines) == 3 and math.isfinite(float(lines[2]))
