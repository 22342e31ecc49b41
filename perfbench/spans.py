"""Span recorder for the traced run.

Each listed public function of ``tensorcast`` is wrapped by rebinding it in
every namespace that holds it by name: the defining module, every module that
imported it with ``from .x import f``, the package ``__init__`` re-exports, and
module-level dicts such as the CLI command table. Spans (name, start, end,
parent) stay in memory and are written out when the run ends. Nothing in the
library is edited; uninstalling restores every binding.

Counters for kernels are computed from argument shapes (moment-product flops
and bytes, eigendecomposition sizes), not read from hardware, and are labelled
as computed wherever they are reported.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# (module, function, span name). Span names are "<module>.<function>" except
# the CLI subcommands, which are named after the command.
TRACED = [
    ("panel", "ingest_csv", "panel.ingest_csv"),
    ("panel", "fold", "panel.fold"),
    ("panel", "write_npz", "panel.write_npz"),
    ("panel", "load_tensor_series", "panel.load_tensor_series"),
    ("panel", "cell_standardization", "panel.cell_standardization"),
    ("tensor", "top_eigenvectors", "tensor.top_eigenvectors"),
    ("tensor", "mode_product", "tensor.mode_product"),
    ("factor_model", "fit_factor_model", "factor_model.fit_factor_model"),
    ("factor_model", "select_ranks", "factor_model.select_ranks"),
    ("factor_model", "initial_loadings", "factor_model.initial_loadings"),
    ("factor_model", "projected_loadings", "factor_model.projected_loadings"),
    ("factor_model", "extract_factors", "factor_model.extract_factors"),
    ("forecast", "forecast_factors", "forecast.forecast_factors"),
    ("forecast", "forecast_observations", "forecast.forecast_observations"),
    ("forecast", "forecast_series", "forecast.forecast_series"),
    ("forecast", "classical_decompose", "forecast.classical_decompose"),
    ("forecast", "fit_ar1", "forecast.fit_ar1"),
    ("forecast", "forecast_ar1", "forecast.forecast_ar1"),
    ("forecast", "fit_ar", "forecast.fit_ar"),
    ("forecast", "fit_ar_aic", "forecast.fit_ar_aic"),
    ("forecast", "forecast_ar", "forecast.forecast_ar"),
    ("benchmarks", "split_providers", "benchmarks.split_providers"),
    ("benchmarks", "mfm_forecast", "benchmarks.mfm_forecast"),
    ("benchmarks", "vfm_forecast", "benchmarks.vfm_forecast"),
    ("benchmarks", "fpca_forecast", "benchmarks.fpca_forecast"),
    ("evaluation", "simulate", "evaluation.simulate"),
    ("evaluation", "rolling_evaluate", "evaluation.rolling_evaluate"),
    ("evaluation", "emit_report", "evaluation.emit_report"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_ingest", "cli.ingest"),
    ("cli", "cmd_fit", "cli.fit"),
    ("cli", "cmd_forecast", "cli.forecast"),
]

# The benchmark's own forecaster handle, one span per window refit.
WINDOW = "evaluation.window"


def moment_flops_bytes(values_shape: tuple[int, ...]) -> tuple[int, int]:
    """Flops and bytes of the first-pass moment products on (T, N, S1, ..., SM).

    Mode 0 is ``tns,tnu->su`` (an S x S covariance, S = prod S_j); seasonal
    mode j builds a (N S / S_j)-square covariance from S_j rows per period.
    A product of T p x q slices into a q x q matrix costs 2 T p q^2 flops and
    reads the 8 T p q input bytes and writes 8 q^2 output bytes.
    """
    t, *dims = values_shape
    total = int(np.prod(dims))
    flops = bytes_ = 0
    for rows in dims:
        cols = total // rows
        flops += 2 * t * rows * cols * cols
        bytes_ += 8 * (t * rows * cols + cols * cols)
    return flops, bytes_


def eigh_flops(n: int) -> int:
    """Golub-Van Loan estimate for a symmetric eigendecomposition with vectors."""
    return 9 * n**3


class SpanRecorder:
    """In-memory spans plus computed counters, installed by name rebinding."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: Counter[str] = Counter()
        self.counts: defaultdict[str, int] = defaultdict(int)  # exact, so per-pass values repeat
        self.eigh_sizes: Counter[int] = Counter()
        self.csv_rows: dict[str, int] = {}  # data rows per input file name
        self._stack: list[int] = []
        self._bindings: list[tuple[dict, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return fn recording one span per call; ``after(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters computed from arguments ------------------------------------

    def _count_moments(self, args, kwargs, result) -> None:
        xs = args[0] if args else kwargs["xs"]
        flops, bytes_ = moment_flops_bytes(xs.values.shape)
        self.counts["factor_model.initial_loadings.flop"] += flops
        self.counts["factor_model.initial_loadings.bytes"] += bytes_

    def _count_eigh(self, args, kwargs, result) -> None:
        s = args[0] if args else kwargs["s"]
        n = int(np.shape(s)[0])
        self.eigh_sizes[n] += 1
        self.counts["tensor.top_eigenvectors.flop"] += eigh_flops(n)

    def _count_npz(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["panel.write_npz.bytes"] += os.path.getsize(path)

    def _count_csv_rows(self, args, kwargs, result) -> None:
        paths = args[0] if args else kwargs["paths"]
        self.counts["panel.ingest_csv.rows"] += sum(self.csv_rows[Path(p).name] for p in paths)

    def _count_report(self, args, kwargs, result) -> None:
        self.counts["evaluation.emit_report.bytes"] += sum(os.path.getsize(p) for p in result.values())

    def _count_forecast_csv(self, args, kwargs, result) -> None:
        cfg = args[0]
        self.counts["cli.forecast.csv_bytes"] += os.path.getsize(cfg.out_dir / "forecast.csv")

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever tensorcast holds it by name."""
        for module in {module for module, _, _ in TRACED}:
            importlib.import_module(f"tensorcast.{module}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "tensorcast" or key.startswith("tensorcast.")]
        after = {
            "factor_model.initial_loadings": self._count_moments,
            "tensor.top_eigenvectors": self._count_eigh,
            "panel.write_npz": self._count_npz,
            "panel.ingest_csv": self._count_csv_rows,
            "evaluation.emit_report": self._count_report,
            "cli.forecast": self._count_forecast_csv,
        }
        for module, func, name in TRACED:
            original = getattr(sys.modules[f"tensorcast.{module}"], func)
            wrapper = self.wrap(name, original, after.get(name))
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._rebind(namespace, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for inner, item in list(value.items()):
                            if item is original:
                                self._rebind(value, inner, wrapper)

    def _rebind(self, namespace: dict, key: str, wrapper: Callable) -> None:
        self._bindings.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._bindings):
            namespace[key] = original
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (minus direct children)."""
        if not self.names:
            return {}
        durs = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=durs[nested], minlength=len(durs))
        out: dict[str, dict[str, float]] = {}
        names = np.asarray(self.names)
        for name in np.unique(names):
            sel = names == name
            out[str(name)] = {
                "calls": int(sel.sum()),
                "s": float(durs[sel].sum()),
                "self_s": float((durs[sel] - child[sel]).sum()),
            }
        return out

    def calls_by_pass(self, marks: list[int]) -> list[Counter[str]]:
        """Span counts of each traced pass; marks[i] is the first span index of pass i."""
        bounds = marks + [len(self.names)]
        return [Counter(self.names[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def calls_per_window(self, name: str, models: tuple[str, ...]) -> tuple[float, dict[str, float]]:
        """Calls of ``name`` inside window spans per window: overall and per model.

        Windows belong to models through their parent ``rolling_evaluate``
        span; those run once per model, in model order, in every pass.
        """
        evals = [i for i, s in enumerate(self.names) if s == "evaluation.rolling_evaluate"]
        model_of = {idx: models[k % len(models)] for k, idx in enumerate(evals)} if models else {}
        windows: Counter[str] = Counter()
        inside: Counter[str] = Counter()
        for idx, span in enumerate(self.names):
            if span == WINDOW:
                windows[model_of.get(self.parents[idx], "")] += 1
            elif span == name:
                parent = self.parents[idx]
                while parent >= 0 and self.names[parent] != WINDOW:
                    parent = self.parents[parent]
                if parent >= 0:
                    inside[model_of.get(self.parents[parent], "")] += 1
        total = sum(windows.values())
        overall = sum(inside.values()) / total if total else 0.0
        return overall, {m: inside[m] / windows[m] for m in models if windows[m]}

    def write(self, path: Path) -> None:
        """All spans as CSV: index, name, start and end (s from the first), parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.starts) if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
