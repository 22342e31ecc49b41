"""Rolling-origin evaluation, report emission, and the synthetic generator.

The evaluator scores any forecaster handle ``fn(train, n) -> (n, N, S1, ..., SM)``
over sliding windows: window w trains on periods [w, w + train_length) and is
scored at period w + train_length + n - 1 for each horizon n, with
W = T_test - n windows per horizon, so period T - 1 is never a target (one
more window per horizon would change every report and the benchmark's
reference outputs). Per-provider MSE averages the squared Frobenius error
over windows and cells; the relative variant divides by the average
per-window dispersion of the target cells, so a forecaster that emits each
window's target mean scores exactly 1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .benchmarks import FPCA, MFM, VFM
from .factor_model import LoadingSet, FactorSeries, Ranks, fit_factor_model, rank_bounds
from .forecast import ScoreModel, forecast_factors, forecast_observations
from .panel import TensorSeries, as_count, as_counts, as_real, period_step
from .tensor import mode_product

__all__ = [
    "RollingPlan",
    "EvalCell",
    "EvalReport",
    "merge_reports",
    "rolling_evaluate",
    "TensorForecaster",
    "make_tensor_forecaster",
    "make_benchmark_forecaster",
    "SimSpec",
    "simulate",
    "emit_report",
    "load_report",
]

@dataclass(frozen=True)
class RollingPlan:
    """Sliding-window backtest layout: fixed train length, unit step."""

    train_length: int
    horizons: tuple[int, ...] = (1, 4, 13, 26)

    def __post_init__(self):
        object.__setattr__(self, "train_length", as_count("train_length", self.train_length, 2))
        object.__setattr__(self, "horizons", self.checked_horizons(self.horizons))

    @staticmethod
    def checked_horizons(horizons: Sequence[int]) -> tuple[int, ...]:
        """The horizon rule, which needs no train length, as a tuple of horizons."""
        horizons = as_counts("horizons", horizons, 1)
        if not horizons:
            raise ValueError("horizons must list at least one horizon")
        if len(set(horizons)) != len(horizons):
            raise ValueError(f"duplicate horizons in {horizons}")
        return horizons

    def validate_for(self, num_periods: int) -> None:
        """Require at least one evaluation window for every horizon."""
        need = self.train_length + max(self.horizons) + 1
        if need > num_periods:
            raise ValueError(
                f"plan needs at least {need} periods (train {self.train_length} "
                f"+ max horizon {max(self.horizons)} + 1 evaluation window), "
                f"series has {num_periods}"
            )


@dataclass
class EvalCell:
    """One (model, horizon, provider) result with its per-window error trace."""

    model: str
    horizon: int
    provider_id: str
    mse: float
    relative_mse: float
    failed: bool = False
    error: str = ""
    trace: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class EvalReport:
    """All cells of a backtest plus free-form metadata strings."""

    cells: list[EvalCell]
    metadata: dict[str, str] = field(default_factory=dict)


def merge_reports(reports: Sequence[EvalReport]) -> EvalReport:
    """Concatenate cells of several reports; later metadata wins on key clashes."""
    merged = EvalReport(cells=[], metadata={})
    for r in reports:
        merged.cells.extend(r.cells)
        merged.metadata.update(r.metadata)
    return merged


def rolling_evaluate(
    forecast_fn: Callable[[TensorSeries, int], np.ndarray],
    ts: TensorSeries,
    plan: RollingPlan,
    model: str = "model",
) -> EvalReport:
    """Score a forecaster over all sliding windows of the evaluation span.

    A forecaster's ``check(shape)``, if any, runs first on the windows' shape.
    The forecaster is fit once per window and asked for max(horizons) steps;
    horizon n reads step n - 1. Horizon n gets T_test - n windows, so the
    last period is never a target (see the module docstring). The period
    starts must be evenly spaced. A window where the forecaster raises marks
    every cell it feeds as failed (with the first error message) while the
    remaining windows still run. The relative MSE divides by the mean
    per-window population variance of the target cells, so the target-mean
    forecaster scores exactly 1.
    """
    plan.validate_for(ts.num_periods)
    period_step(ts.period_starts)
    t_train = plan.train_length
    if hasattr(forecast_fn, "check"):
        forecast_fn.check((t_train, *ts.tensor_dims))
    t_test = ts.num_periods - t_train
    horizons = sorted(plan.horizons)
    n_max = horizons[-1]
    num_providers = ts.values.shape[1]
    cells_per_provider = int(np.prod(ts.tensor_dims[1:]))

    # Evaluation period m <= t_test - 2 is the target of window w at horizon
    # n when m = w + n - 1; its per-provider dispersion serves every such window.
    spread = ts.values[t_train:-1].reshape(t_test - 1, num_providers, -1).var(axis=2)
    # errors[j, w, i]: window w's squared error at horizons[j] for provider i;
    # horizon n has t_test - n windows, and the windows past them stay NaN.
    errors = np.full((len(horizons), t_test - horizons[0], num_providers), np.nan)
    failed_windows: dict[int, str] = {}

    for w in range(errors.shape[1]):
        train = TensorSeries(
            values=ts.values[w : w + t_train],
            period_starts=ts.period_starts[w : w + t_train],
            provider_ids=ts.provider_ids,
        )
        try:
            fc = np.asarray(forecast_fn(train, n_max), dtype=float)
            if fc.shape != (n_max, *ts.tensor_dims):
                raise ValueError(
                    f"forecaster returned shape {fc.shape}, expected {(n_max, *ts.tensor_dims)}"
                )
        except Exception as exc:  # noqa: BLE001 - graceful degradation per window
            failed_windows[w] = f"{type(exc).__name__}: {exc}"
            continue
        for j, n in enumerate(horizons):
            if w < t_test - n:
                err = (ts.values[w + t_train + n - 1] - fc[n - 1]).reshape(num_providers, -1)
                errors[j, w] = np.sum(err**2, axis=1) / cells_per_provider

    cells = []
    for j, n in enumerate(horizons):
        count = t_test - n
        bad = [w for w in failed_windows if w < count]
        error = f"window {bad[0]} failed: {failed_windows[bad[0]]}" if bad else ""
        for i, pid in enumerate(ts.provider_ids):
            trace = errors[j, :count, i]
            if bad:
                cells.append(EvalCell(model, n, pid, np.nan, np.nan, True, error, trace))
                continue
            mse = float(np.mean(trace))
            norm = float(np.mean(spread[n - 1 : n - 1 + count, i]))
            rel = mse / norm if norm > 0 else float("nan")
            cells.append(EvalCell(model, n, pid, mse, rel, False, "", trace))

    return EvalReport(cells=cells, metadata={
        "model": model,
        "train_length": str(t_train),
        "horizons": ",".join(str(n) for n in horizons),
        "num_periods": str(ts.num_periods),
        "providers": ",".join(ts.provider_ids),
        "normalizer": "variance",  # the one divisor, still named in every report
        "span": f"{ts.period_starts[0]}..{ts.period_starts[-1]}",
    })


# ---------------------------------------------------------------------------
# forecaster handles


@dataclass(frozen=True)
class TensorForecaster:
    """The tensor model's settings (fit_factor_model's, with its defaults) and forecaster
    handle: each call refits on the window and forecasts the scores with ``score``."""

    ranks: Ranks | None = None
    r_max: int = 3
    k_max: Sequence[int] | None = None
    score: ScoreModel = ScoreModel()

    def check(self, shape: Sequence[int]) -> None:
        """The estimator's rank rules (Ranks.validate_against or rank_bounds) on a series shape."""
        if self.ranks is None:
            rank_bounds(shape[1:], self.r_max, self.k_max)
        else:
            self.ranks.validate_against(shape[1:])

    def __call__(self, train: TensorSeries, n: int) -> np.ndarray:
        model, factors = fit_factor_model(train, self.ranks, self.r_max, self.k_max)
        ff = forecast_factors(factors, n, score=self.score)
        return forecast_observations(ff, model.loadings, model.standardization).values


make_tensor_forecaster = TensorForecaster


def make_benchmark_forecaster(kind: str, **settings) -> MFM | VFM | FPCA:
    """The settings record of the baseline ``kind``: "MFM", "VFM" or "FPCA", in any case."""
    records = {"MFM": MFM, "VFM": VFM, "FPCA": FPCA}
    if kind.upper() not in records:
        raise ValueError(f"unknown benchmark {kind!r}")
    return records[kind.upper()](**settings)


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass
class SimSpec:
    """Recipe for a synthetic hierarchical-factor panel.

    Core factor coordinates follow mean + amplitude * sin(2 pi t / period
    + phase) + AR(1) innovations; amplitudes and periods cycle over the factor
    coordinates if fewer values than coordinates are given. eta_sds gives one
    idiosyncratic-shock scale per seasonal level, nu_sd the observation-noise
    scale. Loadings are drawn from the seed, orthonormalized to the estimation
    scale conventions.
    """

    dims: tuple[int, ...]
    ranks: Ranks
    num_periods: int
    factor_mean: float = 0.0
    amplitudes: float | Sequence[float] = 1.0
    periods: int | Sequence[int] = 52
    ar_coefficient: float = 0.7
    ar_sd: float = 1.0
    nu_sd: float = 0.1
    eta_sds: float | Sequence[float] = 0.0
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        self.dims = as_counts("dims", self.dims, 1)
        if len(self.dims) < 2:
            raise ValueError("dims must list the cross-section and at least one seasonal extent")
        try:
            self.ranks.validate_against(self.dims)
        except ValueError as exc:
            raise ValueError(f"ranks {self.ranks} do not fit dims {self.dims}: {exc}") from None
        self.num_periods = as_count("num_periods", self.num_periods, 2)
        self.periods = _cycled("periods", self.periods, lambda name, p: as_count(name, p, 1))
        self.seed = as_count("seed", self.seed, 0)
        for name in ("factor_mean", "ar_coefficient", "ar_sd", "nu_sd"):
            setattr(self, name, as_real(name, getattr(self, name)))
        for name in ("amplitudes", "eta_sds"):
            setattr(self, name, _cycled(name, getattr(self, name), as_real))
        for name in ("mu", "sigma"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, np.ndarray):
                raise ValueError(f"{name} must be an array of shape {self.dims}, "
                                 f"got a {type(value).__name__}")
            if value.shape != self.dims:
                raise ValueError(f"{name} shape {value.shape} does not match dims {self.dims}")
            setattr(self, name, np.array([as_real(name, v) for v in value.flat]).reshape(self.dims))
        if abs(self.ar_coefficient) > 1:
            raise ValueError(f"|ar_coefficient| must be <= 1, got {self.ar_coefficient}")
        for name in ("ar_sd", "nu_sd", "eta_sds"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.sigma is not None and not np.all(self.sigma > 0):
            raise ValueError("sigma must be > 0 in every cell")

    def __eq__(self, other: object) -> bool:
        """Field by field by value, as the mu and sigma arrays need."""
        if type(other) is not SimSpec:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def num_levels(self) -> int:
        return len(self.dims) - 1

    @property
    def factor_shape(self) -> tuple[int, ...]:
        return (self.ranks.r, *self.ranks.k)


def _cycled(name: str, value: object, check: Callable) -> object:
    """A setting cycled over factor coordinates or levels: check(name, value)
    of anything but a list, tuple or array, else a non-empty tuple of its
    checked entries."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim):
        return check(name, value)
    if len(value) == 0:
        raise ValueError(f"{name} must list at least one value")
    return tuple(check(name, v) for v in value)


@dataclass
class SimDraws:
    """All random arrays of one simulation, drawn before assembly."""

    core: np.ndarray  # (T, R, K1, ..., KM)
    eta: list[np.ndarray]  # eta[j-1]: (T, R, S1, ..., Sj, K_{j+1}, ..., KM)
    nu: np.ndarray  # (T, N, S1, ..., SM)


def _draw_loading(rng: np.random.Generator, p: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    anchor = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[anchor, np.arange(r)])
    signs[signs == 0] = 1.0
    return np.sqrt(p) * q * signs


def _prepare(spec: SimSpec) -> tuple[SimDraws, LoadingSet]:
    """Draw loadings and every shock array in a fixed order from the seed."""
    rng = np.random.default_rng(spec.seed)
    lam = _draw_loading(rng, spec.dims[0], spec.ranks.r)
    b = [_draw_loading(rng, s, k) for s, k in zip(spec.dims[1:], spec.ranks.k)]
    loadings = LoadingSet(lam=lam, b=b)

    t = spec.num_periods
    count = int(np.prod(spec.factor_shape))
    amplitudes = np.resize(np.asarray(spec.amplitudes, dtype=float), count)
    periods = np.resize(np.asarray(spec.periods, dtype=int), count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    innovations = rng.standard_normal((t, count))

    core = np.empty((t, count))
    grid = np.arange(t)
    for c in range(count):
        seasonal = amplitudes[c] * np.sin(2.0 * np.pi * grid / periods[c] + phases[c])
        ar = np.empty(t)
        ar[0] = spec.ar_sd * innovations[0, c]
        for s in range(1, t):
            ar[s] = spec.ar_coefficient * ar[s - 1] + spec.ar_sd * innovations[s, c]
        core[:, c] = spec.factor_mean + seasonal + ar
    core = core.reshape(t, *spec.factor_shape)

    eta_sds = np.resize(np.asarray(spec.eta_sds, dtype=float), spec.num_levels)
    eta = []
    for j in range(1, spec.num_levels + 1):
        shape = (t, spec.ranks.r, *spec.dims[1 : j + 1], *spec.ranks.k[j:])
        eta.append(eta_sds[j - 1] * rng.standard_normal(shape))
    nu = spec.nu_sd * rng.standard_normal((t, *spec.dims))
    return SimDraws(core=core, eta=eta, nu=nu), loadings


def _assemble_recursion(draws: SimDraws, loadings: LoadingSet) -> np.ndarray:
    """Level-by-level build: each seasonal level maps the previous one through
    its loading and adds that level's idiosyncratic shock."""
    g = draws.core
    for j, b in enumerate(loadings.b, start=1):
        g = mode_product(g, b, j + 1) + draws.eta[j - 1]
    return mode_product(g, loadings.lam, 1) + draws.nu


def simulate(spec: SimSpec) -> tuple[TensorSeries, LoadingSet, FactorSeries]:
    """Generate observations plus the ground-truth loadings and core factors.

    Observations are assembled level by level: each seasonal level maps the
    previous one through its loading and adds that level's shock.
    """
    draws, loadings = _prepare(spec)
    eps = _assemble_recursion(draws, loadings)
    mu = spec.mu if spec.mu is not None else np.zeros(tuple(spec.dims))
    sigma = spec.sigma if spec.sigma is not None else np.ones(tuple(spec.dims))
    values = mu + sigma * eps
    starts = np.datetime64("2020-01-06T00", "h") + (
        168 * np.arange(spec.num_periods)
    ).astype("timedelta64[h]")
    provider_ids = [f"P{i}" for i in range(spec.dims[0])]
    ts = TensorSeries(values=values, period_starts=starts, provider_ids=provider_ids)
    factors = FactorSeries(values=draws.core, period_starts=starts, provider_ids=provider_ids)
    return ts, loadings, factors


# ---------------------------------------------------------------------------
# report emission


def _fmt(x: float) -> str:
    return repr(float(x))


def _sorted_cells(report: EvalReport) -> list[EvalCell]:
    return sorted(report.cells, key=lambda c: (c.model, c.horizon, c.provider_id))


def emit_report(report: EvalReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.csv / report.json / report.md / trace.csv into out_dir.

    CSV and JSON carry full-precision floats (shortest round-trip repr); the
    Markdown table rounds to 4 digits for reading. Cell order is fixed by
    (model, horizon, provider) so identical reports emit identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = _sorted_cells(report)
    paths = {}

    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "horizon", "provider", "mse", "relative_mse", "failed", "error"])
        for c in cells:
            writer.writerow(
                [c.model, c.horizon, c.provider_id, _fmt(c.mse), _fmt(c.relative_mse),
                 "true" if c.failed else "false", c.error]
            )
    paths["csv"] = csv_path

    json_path = out / "report.json"
    payload = {
        "metadata": dict(sorted(report.metadata.items())),
        "cells": [
            {
                "model": c.model,
                "horizon": c.horizon,
                "provider": c.provider_id,
                "mse": None if np.isnan(c.mse) else c.mse,
                "relative_mse": None if np.isnan(c.relative_mse) else c.relative_mse,
                "failed": c.failed,
                "error": c.error,
                "trace": [None if np.isnan(v) else float(v) for v in c.trace],
            }
            for c in cells
        ],
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths["json"] = json_path

    md_path = out / "report.md"
    lines = ["# Out-of-sample relative MSE", ""]
    for key, value in sorted(report.metadata.items()):
        lines.append(f"- {key}: {value}")
    models = sorted({c.model for c in cells})
    for m in models:
        horizons = sorted({c.horizon for c in cells if c.model == m})
        providers = sorted({c.provider_id for c in cells if c.model == m})
        lines.append("")
        lines.append(f"## {m}")
        lines.append("")
        lines.append("| provider | " + " | ".join(f"n={n}" for n in horizons) + " |")
        lines.append("| --- | " + " | ".join("---" for _ in horizons) + " |")
        by_key = {(c.horizon, c.provider_id): c for c in cells if c.model == m}
        for pid in providers:
            row = [pid]
            for n in horizons:
                c = by_key.get((n, pid))
                if c is None or c.failed:
                    row.append("failed")
                else:
                    row.append(f"{c.relative_mse:.4f}")
            lines.append("| " + " | ".join(row) + " |")
    md_path.write_text("\n".join(lines) + "\n")
    paths["md"] = md_path

    trace_path = out / "trace.csv"
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "horizon", "provider", "window", "mse"])
        for c in cells:
            for w, value in enumerate(c.trace):
                writer.writerow([c.model, c.horizon, c.provider_id, w, _fmt(value)])
    paths["trace"] = trace_path
    return paths


def load_report(path: str | Path) -> EvalReport:
    """Read a report.json written by :func:`emit_report` back into an EvalReport.

    Floats survive exactly (JSON uses the same shortest round-trip repr), so
    re-emitting a loaded report reproduces all four files byte for byte.
    """
    payload = json.loads(Path(path).read_text())
    cells = [
        EvalCell(
            model=str(c["model"]),
            horizon=int(c["horizon"]),
            provider_id=str(c["provider"]),
            mse=np.nan if c["mse"] is None else float(c["mse"]),
            relative_mse=np.nan if c["relative_mse"] is None else float(c["relative_mse"]),
            failed=bool(c["failed"]),
            error=str(c["error"]),
            trace=np.array(
                [np.nan if v is None else float(v) for v in c.get("trace", [])], dtype=float
            ),
        )
        for c in payload["cells"]
    ]
    return EvalReport(cells=cells, metadata=dict(payload["metadata"]))
