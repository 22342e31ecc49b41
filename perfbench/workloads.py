"""The three benchmark workloads: what each generates, runs and checks.

A workload is generated from the seed, warmed up, then run as repeated
passes. A backtest pass is one ``rolling_evaluate`` per model plus
``emit_report`` of the merged report; a pipeline pass is ``ingest``, ``fit``
and ``forecast --horizon 26`` through ``tensorcast.cli.main``. Every pass
checks its own outputs: on the reference seed against the recorded reference
values, on any seed against invariants that hold for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from tensorcast import cli
from tensorcast import evaluation as ev
from tensorcast.factor_model import Ranks
from tensorcast.panel import TensorSeries

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
# Relative tolerance of outputs against the reference. Reordered floating-point
# sums (BLAS in place of einsum, batched least squares) move results by about
# 1e-10 relative; a changed algorithm or a flipped rank choice moves them by
# far more than 1e-6.
RTOL = 1e-6

TRAIN_LENGTH = 171
HORIZONS = (1, 4, 13, 26)
PIPELINE_HORIZON = 26

MODELS = {
    "TFM-fixed": lambda: ev.make_tensor_forecaster(ranks=Ranks(1, (1, 2))),
    # The CLI default: ranks chosen per window with r_max=3, k_max=min(3, S_j-1).
    "TFM-auto": lambda: ev.make_tensor_forecaster(),
    "MFM": lambda: ev.make_benchmark_forecaster("MFM"),
    "VFM": lambda: ev.make_benchmark_forecaster("VFM"),
    # FPCA is pinned to four components per day, unlike the CLI's default
    # backtest.fpca_components = auto (95% variance, at most 6), so that every
    # seed does the same work: 252 forecast_series calls per window. Under the
    # default the count ranges from 201 to 265 across seeds 0-9.
    "FPCA": lambda: ev.make_benchmark_forecaster("FPCA", ncomp=4),
}


@dataclass
class PassResult:
    """One measured pass: wall time, per-operation latencies, checked outputs."""

    wall_s: float
    refit_s: list[float]  # one per window (backtests) or per pass (pipeline)
    latencies: dict[str, list[float]]  # per model, or per CLI command
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _close(value: float, reference: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - reference) <= RTOL * abs(reference) + 1e-12


class Backtest:
    """Rolling backtests of a set of models on the simulated panel."""

    def __init__(self, name: str, models: tuple[str, ...], num_periods: int,
                 seed: int, work_dir: Path):
        self.name = name
        self.models = models
        self.num_periods = num_periods
        self.seed = seed
        self.work_dir = work_dir
        self.plan = ev.RollingPlan(train_length=TRAIN_LENGTH, horizons=HORIZONS)
        self.handles = {m: MODELS[m]() for m in models}
        self.ts: TensorSeries | None = None

    @property
    def windows(self) -> int:
        return self.num_periods - TRAIN_LENGTH - min(HORIZONS)

    def sizes(self) -> dict:
        return {
            "dims": list(inputs.DIMS), "num_periods": self.num_periods,
            "train_length": TRAIN_LENGTH, "horizons": list(HORIZONS),
            "models": list(self.models), "windows_per_model": self.windows,
        }

    def generate(self) -> None:
        # The paper-shaped panel (342 periods), truncated when the workload
        # uses fewer periods so that every workload sees the same series.
        full = inputs.simulated_panel(self.seed)
        self.ts = TensorSeries(
            values=full.values[: self.num_periods],
            period_starts=full.period_starts[: self.num_periods],
            provider_ids=full.provider_ids,
        )

    def warm_up(self) -> None:
        first = TensorSeries(
            values=self.ts.values[:TRAIN_LENGTH],
            period_starts=self.ts.period_starts[:TRAIN_LENGTH],
            provider_ids=self.ts.provider_ids,
        )
        for handle in self.handles.values():
            handle(first, max(HORIZONS))

    def run_pass(self, recorder=None) -> PassResult:
        latencies: dict[str, list[float]] = {}
        reports = []
        start = perf_counter()
        for model, handle in self.handles.items():
            lat = latencies[model] = []

            def timed(train, n, handle=handle, lat=lat):
                t0 = perf_counter()
                try:
                    return handle(train, n)
                finally:
                    lat.append(perf_counter() - t0)

            fn = recorder.wrap("evaluation.window", timed) if recorder else timed
            reports.append(ev.rolling_evaluate(fn, self.ts, self.plan, model=model))
        ev.emit_report(ev.merge_reports(reports), self.work_dir / "report")
        wall = perf_counter() - start

        refit = np.sum([latencies[m] for m in self.models], axis=0).tolist()
        result = PassResult(wall_s=wall, refit_s=refit, latencies=latencies)
        reference = self._reference() if self.seed == REFERENCE_SEED else None
        for report in reports:
            for cell in report.cells:
                key = f"{cell.model}|{cell.horizon}|{cell.provider_id}"
                result.attempted += 1
                if cell.failed:
                    problem = f"{key}: {cell.error}"
                elif not np.isfinite(cell.relative_mse):
                    problem = f"{key}: non-finite relative MSE"
                elif reference is not None and not _close(cell.relative_mse, reference[key]):
                    problem = f"{key}: relative MSE {cell.relative_mse!r} != reference {reference[key]!r}"
                else:
                    continue
                result.failed += 1
                result.problems.append(problem)
        return result

    def _reference(self) -> dict[str, float]:
        payload = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())
        if payload["sizes"] != self.sizes():
            raise RuntimeError(f"reference for {self.name} was recorded for other sizes")
        return payload["relative_mse"]

    def record_reference(self) -> Path:
        reports = [ev.rolling_evaluate(h, self.ts, self.plan, model=m) for m, h in self.handles.items()]
        cells = {f"{c.model}|{c.horizon}|{c.provider_id}": c.relative_mse
                 for r in reports for c in r.cells}
        path = REFERENCE_DIR / f"{self.name}.json"
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "sizes": self.sizes(),
                                    "relative_mse": cells}, indent=1, sort_keys=True) + "\n")
        return path


class _RepairLog(logging.Handler):
    """Keeps the repair counts that ``ingest_csv`` logs with each ingest."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.repairs: list[dict[str, int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        for arg in record.args if isinstance(record.args, tuple) else ():
            if isinstance(arg, dict) and "duplicates_averaged" in arg:
                self.repairs.append({k: int(v) for k, v in arg.items()})


class CsvPipeline:
    """Raw PJM-format CSVs to forecast.csv through the CLI, in process."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.data_dir = work_dir / "data"
        self.out_dir = work_dir / "out"
        self.config = work_dir / "run.ini"
        self.csv: inputs.CsvInputs | None = None
        self.repair_log = _RepairLog()
        panel_log = logging.getLogger("tensorcast.panel")
        panel_log.setLevel(logging.INFO)
        panel_log.addHandler(self.repair_log)

    def sizes(self) -> dict:
        return {
            "dims": list(inputs.DIMS), "num_periods": inputs.NUM_PERIODS,
            "providers": list(inputs.PROVIDERS), "horizon": PIPELINE_HORIZON,
            "csv_rows": self.csv.rows if self.csv else None,
            "csv_bytes": sum(p.stat().st_size for p in self.csv.paths) if self.csv else None,
        }

    def generate(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.csv = inputs.write_pjm_csvs(self.seed, self.data_dir)
        names = ",".join(f"data/{p.name}" for p in self.csv.paths)
        self.config.write_text(
            f"[data]\npaths = {names}\n\n[run]\nout = out\nseed = {self.seed}\n"
        )

    def warm_up(self) -> None:
        self.run_pass()

    def _main(self, *argv: str) -> tuple[int, float]:
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([argv[0], "--config", str(self.config), *argv[1:]])
        return code, perf_counter() - start

    def _steps(self) -> tuple[dict[str, tuple[int, float]], float]:
        """Exit code and seconds of each command, and their total wall time,
        on a fresh output directory."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.repair_log.repairs.clear()
        start = perf_counter()
        steps = {
            "ingest": self._main("ingest"),
            "fit": self._main("fit"),
            "forecast": self._main("forecast", "--horizon", str(PIPELINE_HORIZON)),
        }
        return steps, perf_counter() - start

    def run_pass(self, recorder=None) -> PassResult:
        """One pass; an installed recorder sees the CLI's spans, so it is not used here."""
        steps, wall = self._steps()
        result = PassResult(
            wall_s=wall,
            refit_s=[steps["fit"][1] + steps["forecast"][1]],
            latencies={step: [t] for step, (_, t) in steps.items()},
            attempted=len(steps),
        )
        for step, (code, _) in steps.items():
            if code != 0:
                result.problems.append(f"tensorcast {step} exited with {code}")
        if steps["ingest"][0] == 0 and self.repair_log.repairs != [self.csv.expected_repairs]:
            result.problems.append(
                f"ingest repairs {self.repair_log.repairs} != injected {self.csv.expected_repairs}"
            )
        if steps["forecast"][0] == 0:
            result.problems.extend(self._check_forecast())
        result.failed = len(result.problems)
        return result

    def _forecast_values(self) -> np.ndarray:
        with open(self.out_dir / "forecast.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return np.array([float(r[-1]) for r in rows])

    def _check_forecast(self) -> list[str]:
        values = self._forecast_values()
        expected = PIPELINE_HORIZON * int(np.prod(inputs.DIMS))
        if values.shape != (expected,):
            return [f"forecast.csv has {values.size} values, expected {expected}"]
        if not np.all(np.isfinite(values)):
            return ["forecast.csv has non-finite values"]
        if self.seed == REFERENCE_SEED:
            reference = np.load(REFERENCE_DIR / f"{self.name}.npy").astype(float)
            miss = np.abs(values - reference) > RTOL * np.abs(reference)
            if miss.any():
                return [f"{int(miss.sum())} forecast values differ from the reference"]
        return []

    def record_reference(self) -> Path:
        codes = [code for code, _ in self._steps()[0].values()]
        if any(codes):
            raise RuntimeError(f"pipeline exit codes {codes}")
        path = REFERENCE_DIR / f"{self.name}.npy"
        # float32 keeps 7 significant digits, well inside RTOL.
        np.save(path, self._forecast_values().astype(np.float32))
        return path


# Backtests use the paper-shaped panel of 342 weeks; the baselines use its
# first 272 weeks (100 windows per model, enough for a p90 with ten windows
# beyond it), because FPCA alone takes about 0.2 s per window.
def make_workload(name: str, seed: int, work_dir: Path):
    if name == "backtest-tfm":
        return Backtest(name, ("TFM-fixed", "TFM-auto"), inputs.NUM_PERIODS, seed, work_dir)
    if name == "backtest-baselines":
        return Backtest(name, ("MFM", "VFM", "FPCA"), 272, seed, work_dir)
    if name == "csv-pipeline":
        return CsvPipeline(name, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("backtest-tfm", "backtest-baselines", "csv-pipeline")
