"""Guards for the frozen benchmark: every traced name must exist, the
baselines' calls must fire the spans the benchmark requires, and every
workload must still set up against the library's constructors and CLI."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import logging
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from tensorcast import cli
from tensorcast.evaluation import SimSpec, make_benchmark_forecaster, make_tensor_forecaster, simulate
from tensorcast.factor_model import Ranks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    # run.py pins the BLAS thread variables when loaded; keep them out of
    # this process's environment.
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = load("spans")
    assert spans.TRACED
    missing = [
        f"tensorcast.{module}.{func}"
        for module, func, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"tensorcast.{module}"), func, None))
    ]
    assert not missing, f"perfbench/spans.py traces names that do not exist: {missing}"


def test_handles_fire_the_required_spans():
    # A (2, 7, 24) panel gives VFM 168 x 168 covariances, so its stacked
    # eigen call takes the certified partial path under the counter hooks;
    # the auto-rank TFM handle fires the rank-selection span.
    spans, run = load("spans"), load("run")
    ts, _, _ = simulate(SimSpec(dims=(2, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=110, seed=0))
    handles = [make_benchmark_forecaster("MFM"), make_benchmark_forecaster("VFM"),
               make_benchmark_forecaster("FPCA", ncomp=4),
               make_tensor_forecaster(ranks=Ranks(1, (1, 2))), make_tensor_forecaster(ranks=None)]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for handle in handles:
            handle(ts, 4)  # a raising counter hook propagates from the call
    finally:
        recorder.uninstall()
    assert not recorder.failed
    required = set(run.EXPECTED_SPANS["backtest-baselines"]) - set(run._BACKTEST) | set(run._FIT)
    missing = required - set(recorder.names)
    assert not missing, f"spans the benchmark requires did not fire: {sorted(missing)}"
    assert recorder.eigh_sizes and recorder.counts["tensor.top_eigenvectors.flop"] > 0


def test_csv_pipeline_fires_the_required_spans(tmp_path):
    # The recorder can rebind a command only where cli._COMMANDS holds the
    # bare function, and its forecast counter reads the config from
    # cmd_forecast's first argument.
    spans, run = load("spans"), load("run")
    rng = np.random.default_rng(0)
    hours = np.datetime64("2020-01-06T00", "h") + np.arange(12 * 168)
    stamps = [str(h).replace("T", " ") + ":00:00" for h in hours]
    daily = 1000 + 100 * np.sin(2 * np.pi * np.arange(len(hours)) / 24)
    recorder = spans.SpanRecorder()
    for name in ("AAA", "BBB", "CCC"):
        load_mw = daily + rng.normal(0.0, 10.0, len(hours))
        lines = [f"Datetime,{name}_MW"] + [f"{t},{v!r}" for t, v in zip(stamps, load_mw.tolist())]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        recorder.csv_rows[f"{name}.csv"] = len(hours)
    config = tmp_path / "run.ini"
    config.write_text("[data]\npaths = AAA.csv, BBB.csv, CCC.csv\n\n[model]\nperiod = 4\n")
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main([step, "--config", str(config)])
                     for step in ("ingest", "fit", "forecast")]
    finally:
        recorder.uninstall()
    assert codes == [0, 0, 0]
    assert not recorder.failed
    missing = set(run.EXPECTED_SPANS["csv-pipeline"]) - set(recorder.names)
    assert not missing, f"spans the benchmark requires did not fire: {sorted(missing)}"
    assert recorder.counts["panel.ingest_csv.rows"] == 3 * len(hours)
    assert recorder.counts["cli.forecast.csv_bytes"] > 0


def test_every_workload_sets_up_and_a_pipeline_pass_succeeds(tmp_path, monkeypatch):
    # The workloads call RollingPlan, SimSpec, make_benchmark_forecaster and
    # cli.main on a generated config; a constructor or key they rely on that
    # changes shape fails here, not in a later benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports inputs.py
    panel_log = logging.getLogger("tensorcast.panel")
    level = panel_log.level
    pipeline = None
    try:
        workloads = load("workloads")
        for name in workloads.WORKLOADS:
            workload = workloads.make_workload(name, 0, tmp_path / name)
            if name == "csv-pipeline":
                pipeline = workload  # its constructor attached the repair log
            workload.generate()
            workload.warm_up()
        result = pipeline.run_pass()
        assert (result.attempted, result.failed) == (3, 0), result.problems
    finally:
        sys.modules.pop("inputs", None)
        if pipeline is not None:
            panel_log.removeHandler(pipeline.repair_log)
        panel_log.setLevel(level)
