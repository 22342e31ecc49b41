"""Guard for the benchmark's span table: every traced name must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"tensorcast.{module}.{func}"
        for module, func, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"tensorcast.{module}"), func, None))
    ]
    assert not missing, f"perfbench/spans.py traces names that do not exist: {missing}"
