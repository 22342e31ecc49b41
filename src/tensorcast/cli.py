"""Command-line front end: config-driven runs of the full pipeline.

One INI-style configuration file drives every subcommand; the flags only
select the command, point at the config, and override a handful of run
parameters (seed, output directory, horizon) by the rules of their keys.
Validation is fail-closed: unknown sections or keys, malformed values and
inconsistent settings exit 2, naming the key, before any data is read or any
file is written. load_config only converts text to values and builds the
records that own the ranges of their settings (Ranks, ScoreModel,
RollingPlan, SimSpec, CalendarSpec). Once the archive is read, before any
fit, the settings that depend on the data meet the rules of the code that
reads them (the estimator's rank rules, each baseline's check, the plan's and
the score period's lengths, a model archive's providers and dims); these too
exit 2.
Exit codes: 0 success, 1 computation failure, 2 usage or configuration
error. Logs go to stderr; every machine-readable product goes to a file,
and each command prints the paths it wrote on stdout.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import itertools
import json
import logging
import sys
import traceback
from collections import namedtuple
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .benchmarks import fpca_components, mfm_ranks, vfm_components
from .evaluation import (
    RollingPlan,
    SimSpec,
    emit_report,
    load_report,
    make_benchmark_forecaster,
    make_tensor_forecaster,
    merge_reports,
    rolling_evaluate,
    simulate,
)
from .factor_model import (
    Ranks,
    TensorFactorModel,
    extract_factors,
    fit_factor_model,
    in_sample_mse,
    load_model,
    rank_bounds,
    save_model,
)
from .forecast import SCORE_MODELS, ScoreModel, forecast_factors, forecast_observations
from .panel import (
    CalendarSpec,
    TensorSeries,
    fold,
    ingest_csv,
    load_tensor_series,
    save_tensor_series,
    span_hours,
    standardize,
    write_npz,
)

logger = logging.getLogger("tensorcast.cli")

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]


class ConfigError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


Parser = Callable[[str, str], Any]  # (where, stripped raw value) -> parsed value


def _parse_int(where: str, raw: str, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _parse_float(where: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _parse_bool(where: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _text(where: str, raw: str) -> str:
    return raw


def _int(minimum: int) -> Parser:
    return lambda where, raw: _parse_int(where, raw, minimum)


def _list(item: Parser, need: str = "") -> Parser:
    """Comma-separated items; a non-empty ``need`` names the item the list must hold."""

    def parse(where: str, raw: str) -> tuple:
        values = tuple(item(where, token) for token in _split_list(raw))
        if need and not values:
            raise ConfigError(f"{where}: need at least one {need}")
        return values

    return parse


def _choice(*choices: str) -> Parser:
    def parse(where: str, raw: str) -> str:
        lowered = raw.lower()
        if lowered not in choices:
            raise ConfigError(f"{where}: must be one of {', '.join(choices)}; got {raw!r}")
        return lowered

    return parse


def _unless(sentinel: str, parse: Parser) -> Parser:
    """None when the value is ``sentinel`` (case-insensitive), else ``parse``."""
    return lambda where, raw: None if raw.lower() == sentinel else parse(where, raw)


def _checked(where: str, call: Callable, *args, **kwargs) -> Any:
    """call(*args, **kwargs), with its ValueError as a ConfigError naming ``where``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_span(where: str, raw: str) -> tuple[datetime, datetime] | None:
    if not raw:
        return None
    parts = [p.strip() for p in raw.split("..")]
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f"{where}: expected START..END, got {raw!r}")
    span = tuple(_checked(where, datetime.fromisoformat, p) for p in parts)
    _checked(where, span_hours, span)  # the span rule is the ingest's own
    return span


# The baselines in run order, each with its check of its settings and the
# [backtest] key that sets each keyword of its forecast function.
_BASELINE_TABLE = {
    "mfm": (mfm_ranks, {"k_day": "mfm_day_factors", "k_hour": "mfm_hour_factors"}),
    "vfm": (vfm_components, {"r": "vfm_components", "stacked": "vfm_stacked"}),
    "fpca": (fpca_components, {"ncomp": "fpca_components"}),
}


def _parse_benchmarks(where: str, raw: str) -> tuple[str, ...]:
    tokens = [token.lower() for token in _split_list(raw)]
    for token in tokens:
        if token not in _BASELINE_TABLE:
            raise ConfigError(f"{where}: unknown baseline {token!r}")
    return tuple(name for name in _BASELINE_TABLE if name in tokens)


def _parse_ranks(where: str, raw: str) -> Ranks:
    counts = _list(_parse_int, "count")(where, raw)
    return _checked(where, Ranks, counts[0], counts[1:])


def _parse_horizons(where: str, raw: str) -> tuple[int, ...]:
    return _checked(where, RollingPlan.checked_horizons, _list(_parse_int)(where, raw))


# Every recognized key with its default, parser and help line. load_config
# parses each key with its parser and the --help epilog is generated from the
# same table, so documentation and validation cannot drift.
_SCHEMA: dict[str, dict[str, tuple[str, Parser, str]]] = {
    "data": {
        "paths": ("", _list(_text), "comma-separated provider CSV files (ingest input)"),
        "span": ("", _parse_span,
                 "optional hourly span START..END (inclusive) clipped before folding"),
        "archive": ("tensors.npz", _text, "folded-series archive; relative names land in out"),
    },
    "calendar": {
        "periods": ("7,24", _list(_parse_int),
                    "seasonal extents S1,...,SM; 7,24 = day-of-week x hour-of-day"),
        "week_start": ("monday", _text, "weekday whose 00:00 anchors seasonal index zero"),
    },
    "model": {
        "ranks": ("auto", _unless("auto", _parse_ranks),
                  "'auto' or explicit factor counts R,K1,...,KM"),
        "r_max": ("3", _int(1), "cross-section rank bound for automatic selection"),
        "k_max": ("", _unless("", _list(_int(1))),
                  "seasonal rank bounds for automatic selection; "
                  "empty = min(3, S_j - 1) per archive extent S_j"),
        "period": (str(ScoreModel.period), _parse_int,
                   "seasonal period of the per-factor score models"),
        "score_model": (ScoreModel.kind, _choice(*SCORE_MODELS),
                        "TFM, MFM and VFM score extrapolation: 'ar1' or 'ar_aic'; "
                        "FPCA always uses ar_aic"),
        "max_order": (str(ScoreModel.max_order), _parse_int,
                      "maximum AR order when score_model = ar_aic"),
        "archive": ("model.npz", _text, "fitted-model archive; relative names land in out"),
    },
    "forecast": {
        "horizon": ("1", _int(1), "forecast steps ahead (the --horizon flag overrides)"),
    },
    "backtest": {
        "train_length": ("", _unless("", _parse_int),
                         "rolling window length in periods (required for backtest)"),
        "horizons": (",".join(map(str, RollingPlan.horizons)), _parse_horizons,
                     "evaluation horizons in periods"),
        "benchmarks": (",".join(_BASELINE_TABLE), _parse_benchmarks,
                       f"baselines to run, any subset of {','.join(_BASELINE_TABLE)}"),
        "vfm_components": ("2", _int(1), "principal components of the vectorized baseline"),
        "vfm_stacked": ("false", _parse_bool, "pool all providers into one vectorized panel"),
        "fpca_components": ("auto", _unless("auto", _int(1)),
                            "'auto' (95% variance, max 6) or a fixed count"),
        "mfm_day_factors": ("1", _int(1), "day-mode factors of the matrix baseline"),
        "mfm_hour_factors": ("2", _int(1), "hour-mode factors of the matrix baseline"),
    },
    "simulate": {
        "dims": ("9,7,24", _list(_parse_int), "synthetic dims N,S1,...,SM"),
        "ranks": ("1,1,2", _parse_ranks, "synthetic factor counts R,K1,...,KM"),
        "num_periods": ("342", _parse_int, "number of simulated periods"),
        "factor_mean": (str(SimSpec.factor_mean), _parse_float,
                        "level of every factor coordinate"),
        "amplitudes": (str(SimSpec.amplitudes), _list(_parse_float),
                       "sinusoid amplitudes, cycled over factor coordinates"),
        "periods": (str(SimSpec.periods), _list(_parse_int),
                    "sinusoid periods, cycled over factor coordinates"),
        "ar_coefficient": (str(SimSpec.ar_coefficient), _parse_float,
                           "AR(1) coefficient of the factor innovations"),
        "ar_sd": (str(SimSpec.ar_sd), _parse_float, "AR(1) innovation standard deviation"),
        "nu_sd": (str(SimSpec.nu_sd), _parse_float, "observation noise standard deviation"),
        "eta_sds": (str(SimSpec.eta_sds), _list(_parse_float),
                    "idiosyncratic shock scale per seasonal level, cycled"),
        "archive": ("sim.npz", _text, "simulated-series archive; relative names land in out"),
        "truth": ("truth.npz", _text, "ground-truth loadings/factors archive"),
    },
    "run": {
        "out": ("out", _text, "output directory for every artifact"),
        "seed": ("0", _int(0), "seed for all randomness"),
    },
}

# One immutable record type per section, its fields named after the keys.
_SECTIONS = {name: namedtuple(name, keys) for name, keys in _SCHEMA.items()}


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed and validated run configuration.

    Each config section is a record whose fields are the section's keys,
    parsed as ``_SCHEMA`` says (``cfg.model.r_max``, ``cfg.backtest.horizons``;
    ``model.ranks`` and ``simulate.ranks`` are Ranks, the former None for
    automatic selection), except that ``calendar`` is a CalendarSpec. ``score``,
    ``plan`` (None without a train_length) and ``sim`` are the records of
    [model], [backtest] and [simulate]. The [run] seed is ``sim.seed`` and
    [run] out is ``out_dir``; the flags may override either, and
    ``base_out_dir`` keeps the configured out.
    """

    config_dir: Path
    data: Any
    calendar: CalendarSpec
    model: Any
    forecast: Any
    backtest: Any
    simulate: Any
    score: ScoreModel
    plan: RollingPlan | None
    sim: SimSpec
    base_out_dir: Path
    out_dir: Path

    def input_path(self, name: str) -> Path:
        """Input files: relative names resolve against the config location."""
        return self.config_dir / name

    def out_path(self, name: str) -> Path:
        """Artifacts: relative names resolve under the output directory."""
        return self.out_dir / name


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; raise ConfigError on any problem."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    # Fail closed: any section or key outside the schema is an error.
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported")

    sections = {}
    for section, keys in _SCHEMA.items():
        values = {}
        for key, (default, parse, _) in keys.items():
            raw = parser.get(section, key, fallback=default).strip()
            values[key] = parse(f"{section}.{key}", raw)
        sections[section] = _SECTIONS[section](**values)

    model, bt, run = sections["model"], sections["backtest"], sections["run"]
    recipe = sections["simulate"]._asdict()
    del recipe["archive"], recipe["truth"]
    out_dir = path.parent / run.out  # an absolute run.out stays as it is
    return RunConfig(
        config_dir=path.parent,
        **{name: sections[name] for name in ("data", "model", "forecast", "backtest", "simulate")},
        calendar=_checked("calendar", CalendarSpec, **sections["calendar"]._asdict()),
        score=_checked("model", ScoreModel, model.period, model.score_model, model.max_order),
        plan=(None if bt.train_length is None
              else _checked("backtest", RollingPlan, bt.train_length, bt.horizons)),
        sim=_checked("simulate", SimSpec, **recipe, seed=run.seed),
        base_out_dir=out_dir,
        out_dir=out_dir,
    )


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_archive(cfg: RunConfig) -> TensorSeries:
    return load_tensor_series(_require_file(cfg.out_path(cfg.data.archive), "data archive"))


def _check_rank_settings(model: Any, dims: tuple[int, ...]) -> None:
    """Reject [model] rank settings the archive's tensors cannot take, by
    the estimator's own rules: explicit ranks by Ranks.validate_against,
    automatic ranks (None) by rank_bounds."""
    setting = "model.ranks" if model.ranks is not None else "model.ranks = auto"
    where = f"{setting} for the {dims} tensors in data.archive"
    if model.ranks is None:
        _checked(where, rank_bounds, dims, model.r_max, model.k_max)
    else:
        _checked(where, model.ranks.validate_against, dims)


def _check_two_seasons(period: int, length: int, source: str) -> None:
    """Reject a score period without two seasons in the ``length`` periods named by ``source``."""
    if length < 2 * period:
        raise ConfigError(f"model.period = {period} needs at least {2 * period} periods, "
                          f"but {source} {length}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> None:
    if not cfg.data.paths:
        raise ConfigError("data.paths is required for ingest")
    paths = [_require_file(cfg.input_path(p), "data file") for p in cfg.data.paths]
    panel = ingest_csv(paths, span=cfg.data.span)
    ts = fold(panel, cfg.calendar)
    logger.info("folded into %d periods of shape %s", ts.num_periods, ts.tensor_dims)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    archive = cfg.out_path(cfg.data.archive)
    save_tensor_series(archive, ts)
    print(archive)


def cmd_ranks(cfg: RunConfig, args: argparse.Namespace) -> None:
    ts = _load_archive(cfg)
    _check_rank_settings(cfg.model._replace(ranks=None), ts.tensor_dims)
    model, _ = fit_factor_model(ts, r_max=cfg.model.r_max, k_max=cfg.model.k_max)
    print(",".join(str(c) for c in (model.ranks.r, *model.ranks.k)))


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> None:
    ts = _load_archive(cfg)
    _check_rank_settings(cfg.model, ts.tensor_dims)
    model, factors = fit_factor_model(ts, ranks=cfg.model.ranks, r_max=cfg.model.r_max,
                                      k_max=cfg.model.k_max)
    mse = in_sample_mse(ts, forecast_observations(factors, model.loadings, model.standardization))
    logger.info("fitted ranks (%d, %s), in-sample mse %.6g", model.ranks.r, model.ranks.k, mse)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    archive = cfg.out_path(cfg.model.archive)
    save_model(archive, model)
    loadings_path = cfg.out_dir / "loadings.csv"
    _write_loadings_csv(loadings_path, model)
    metrics_path = cfg.out_dir / "fit.json"
    metrics = {
        "ranks": [model.ranks.r, *model.ranks.k],
        "in_sample_mse": mse,
        "num_periods": ts.num_periods,
        "providers": list(ts.provider_ids),
    }
    metrics_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(archive)
    print(loadings_path)
    print(metrics_path)


def cmd_forecast(cfg: RunConfig, args: argparse.Namespace) -> None:
    ts = _load_archive(cfg)
    _check_two_seasons(cfg.score.period, ts.num_periods, "data.archive holds")
    model = load_model(_require_file(cfg.out_path(cfg.model.archive), "model archive"))
    if model.provider_ids != ts.provider_ids:
        raise ConfigError(
            f"model providers {model.provider_ids} do not match archive {ts.provider_ids}"
        )
    if model.standardization.mu.shape != ts.tensor_dims:
        raise ConfigError(
            f"model.archive was fitted on {model.standardization.mu.shape} tensors, "
            f"but data.archive holds {ts.tensor_dims} tensors"
        )
    xs = standardize(ts, model.standardization)
    factors = extract_factors(xs, model.loadings)
    ff = forecast_factors(factors, cfg.forecast.horizon, score=cfg.score)
    fc = forecast_observations(ff, model.loadings, model.standardization)
    logger.info("forecast %d periods ahead from %d observed", cfg.forecast.horizon, ts.num_periods)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    archive = cfg.out_dir / "forecast.npz"
    save_tensor_series(archive, fc)
    csv_path = cfg.out_dir / "forecast.csv"
    _write_forecast_csv(csv_path, fc)
    print(archive)
    print(csv_path)


def _csv_fields(fields: Sequence[Any]) -> str:
    """``fields`` joined by commas, each quoted as csv.writer quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def _write_forecast_csv(path: Path, fc: TensorSeries) -> None:
    """One row per period, provider and seasonal cell, ending in the repr of
    its value: byte for byte what csv.writer writes row by row, in half the
    time. The period and provider are quoted once per pair, the cell indices
    once per file, and one write per pair bounds memory for long horizons."""
    seasonal = fc.values.shape[2:]
    cells = ["".join(f"{i}," for i in idx) for idx in np.ndindex(*seasonal)]
    keys = itertools.product(np.datetime_as_string(fc.period_starts, unit="h"), fc.provider_ids)
    rows = fc.values.reshape(-1, len(cells)).tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["period_start", "provider", *(f"s{j + 1}" for j in range(len(seasonal))), "value"])
        for key, row in zip(keys, rows):
            head = _csv_fields(key) + ","
            fh.write("".join(f"{head}{cell}{value!r}\r\n" for cell, value in zip(cells, row)))


def _write_loadings_csv(path: Path, model: TensorFactorModel) -> None:
    """One row per mode, index and factor: mode ``provider`` indexed by provider
    id, then seasonal modes ``s1``, ``s2``, ... indexed from 0."""
    modes = [("provider", model.provider_ids, model.loadings.lam)]
    modes += [(f"s{j + 1}", range(len(b)), b) for j, b in enumerate(model.loadings.b)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "index", "factor", "value"])
        writer.writerows((mode, index, factor, value) for mode, indices, mat in modes
                         for index, row in zip(indices, mat.tolist())
                         for factor, value in enumerate(row))


def _baseline_settings(bt: Any, train_length: int, dims: tuple[int, ...]) -> dict[str, dict]:
    """Each enabled baseline's forecast settings by name, passed by the
    baseline's own check for windows of the archive; a failure names its keys."""
    settings = {}
    for name in bt.benchmarks:
        check, keys = _BASELINE_TABLE[name]
        settings[name] = {kw: getattr(bt, key) for kw, key in keys.items()}
        named = " and ".join(f"backtest.{key} = {getattr(bt, key)}" for key in keys.values())
        _checked(f"backtest.benchmarks holds {name} with {named}, for the {dims} tensors",
                 check, (train_length, *dims), **settings[name])
    return settings


def cmd_backtest(cfg: RunConfig, args: argparse.Namespace) -> None:
    ts = _load_archive(cfg)
    bt, model, plan = cfg.backtest, cfg.model, cfg.plan
    if plan is None:
        raise ConfigError("backtest.train_length is required for backtest")
    _check_two_seasons(cfg.score.period, plan.train_length, "backtest.train_length =")
    _checked("backtest", plan.validate_for, ts.num_periods)
    _check_rank_settings(model, ts.tensor_dims)
    baselines = _baseline_settings(bt, plan.train_length, ts.tensor_dims)
    forecasters = {"TFM": make_tensor_forecaster(ranks=model.ranks, r_max=model.r_max,
                                                 k_max=model.k_max, score=cfg.score)}
    for name, settings in baselines.items():
        forecasters[name.upper()] = make_benchmark_forecaster(name, score=cfg.score, **settings)
    windows = ts.num_periods - plan.train_length - min(plan.horizons)
    reports = []
    for name, fn in forecasters.items():
        logger.info("backtesting %s over %d windows", name, windows)
        reports.append(rolling_evaluate(fn, ts, plan, model=name))
    merged = merge_reports(reports)
    merged.metadata["model"] = ",".join(forecasters)
    merged.metadata["seed"] = str(cfg.sim.seed)
    paths = emit_report(merged, cfg.out_dir)
    for key in ("csv", "json", "md", "trace"):
        print(paths[key])


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> None:
    archive = cfg.out_path(cfg.simulate.archive)
    truth_path = cfg.out_path(cfg.simulate.truth)
    ts, loadings, factors = simulate(cfg.sim)
    logger.info("simulated %d periods of shape %s with seed %d",
                ts.num_periods, ts.tensor_dims, cfg.sim.seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_tensor_series(archive, ts)
    truth = {
        "lam": loadings.lam,
        "factors": factors.values,
        "period_starts": np.datetime_as_string(factors.period_starts, unit="h"),
        "provider_ids": np.array(factors.provider_ids),
    }
    for j, mat in enumerate(loadings.b):
        truth[f"b{j}"] = mat
    write_npz(truth_path, truth)
    print(archive)
    print(truth_path)


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> None:
    source = _require_file(cfg.base_out_dir / "report.json", "report")
    report = load_report(source)
    logger.info("re-emitting %d cells from %s", len(report.cells), source)
    paths = emit_report(report, cfg.out_dir)
    for key in ("csv", "json", "md", "trace"):
        print(paths[key])


_COMMANDS = {
    "ingest": cmd_ingest,
    "ranks": cmd_ranks,
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "simulate": cmd_simulate,
    "report": cmd_report,
}

_COMMAND_HELP = {
    "ingest": "read provider CSVs, align and fold them, write the series archive",
    "ranks": "print the automatically selected factor counts for the archive",
    "fit": "estimate loadings; writes the model archive, loadings.csv and fit.json",
    "forecast": "forecast ahead from the fitted model; writes .npz and .csv",
    "backtest": "rolling-origin evaluation of the model and enabled baselines",
    "simulate": "draw a synthetic panel and its ground truth from the seed",
    "report": "re-emit report files from a previously written report.json",
}


def _schema_epilog() -> str:
    lines = ["configuration file (INI; every key is optional unless a command needs it):"]
    for section, keys in _SCHEMA.items():
        lines.append(f"  [{section}]")
        for key, (default, _, help_text) in keys.items():
            shown = default if default else "(empty)"
            lines.append(f"    {key} = {shown}")
            lines.append(f"        {help_text}")
    lines.append("")
    lines.append("relative input paths resolve against the config file's directory;")
    lines.append("relative archive names resolve under the output directory.")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
    common.add_argument("--seed", default=None, metavar="S",
                        help="RNG seed, overrides [run] seed")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="output directory, overrides [run] out")
    common.add_argument("--verbose", action="store_true",
                        help="debug logging on stderr")

    parser = argparse.ArgumentParser(
        prog="tensorcast",
        description="seasonal tensor factor models for hourly panels",
        epilog=_schema_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[common], help=_COMMAND_HELP[name])
        if name == "forecast":
            sub.add_argument("--horizon", default=None, metavar="N",
                             help="forecast steps ahead, overrides [forecast] horizon")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """cfg with the flags applied, each parsed by the rule of the key it overrides."""
    updates: dict[str, object] = {}
    if args.out is not None:
        updates["out_dir"] = Path(args.out)
    if args.seed is not None:
        seed = _SCHEMA["run"]["seed"][1]("--seed", args.seed.strip())
        updates["sim"] = dataclasses.replace(cfg.sim, seed=seed)
    if getattr(args, "horizon", None) is not None:
        horizon = _SCHEMA["forecast"]["horizon"][1]("--horizon", args.horizon.strip())
        updates["forecast"] = cfg.forecast._replace(horizon=horizon)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
