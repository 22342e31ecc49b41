"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from helpers import random_loading_set, rowwise_forecast_csv, subspace_distance, weekly_starts
from tensorcast import cli, evaluation
from tensorcast.cli import _SCHEMA, cmd_backtest, load_config, main
from tensorcast.evaluation import SimSpec, load_report, simulate
from tensorcast.factor_model import (Ranks, TensorFactorModel, fit_factor_model, load_model,
                                     save_model)
from tensorcast.forecast import ScoreModel
from tensorcast.panel import (
    CalendarSpec,
    Standardization,
    TensorSeries,
    fold,
    ingest_csv,
    load_tensor_series,
    read_npz,
    save_tensor_series,
    write_npz,
)


def write_provider_csv(path, provider, hours, fn, start="2020-01-06 00:00"):
    t0 = datetime.fromisoformat(start)
    lines = [f"Datetime,{provider}_MW"]
    for h in range(hours):
        stamp = (t0 + timedelta(hours=h)).isoformat(sep=" ")
        lines.append(f"{stamp},{float(fn(h))!r}")
    path.write_text("\n".join(lines) + "\n")


def write_config(path, sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def simulated_archive(tmp_path, dims=(3, 7, 24), ranks=(1, (1, 2)), t=40, **sim_kwargs):
    """Drop a simulated series archive where the default config expects it."""
    spec = SimSpec(dims=dims, ranks=Ranks(*ranks), num_periods=t, **sim_kwargs)
    ts, loadings, factors = simulate(spec)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    save_tensor_series(out / "tensors.npz", ts)
    return ts, loadings


def test_ingest_folds_weeks_and_reports_paths(tmp_path, capsys):
    hours = 4 * 168 + 30  # four full weeks plus a partial one that must drop
    write_provider_csv(tmp_path / "aaa.csv", "AAA", hours,
                       lambda h: 100 + 10 * np.sin(2 * np.pi * h / 24))
    write_provider_csv(tmp_path / "bbb.csv", "BBB", hours,
                       lambda h: 50 + 5 * np.cos(2 * np.pi * h / 168))
    cfg = write_config(tmp_path / "run.ini", {"data": {"paths": "aaa.csv, bbb.csv"}})

    assert main(["ingest", "--config", str(cfg)]) == 0
    archive = tmp_path / "out" / "tensors.npz"
    assert capsys.readouterr().out.strip() == str(archive)
    ts = load_tensor_series(archive)
    assert ts.values.shape == (4, 2, 7, 24)
    assert ts.provider_ids == ["AAA", "BBB"]
    assert str(ts.period_starts[0]) == "2020-01-06T00"


def test_ingest_missing_file_exits_2_and_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", {"data": {"paths": "absent.csv"}})
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert "absent.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_keys_and_sections_fail_closed(tmp_path, capsys):
    bad_key = write_config(tmp_path / "a.ini", {"data": {"bogus": "1"}})
    assert main(["fit", "--config", str(bad_key)]) == 2
    assert "bogus" in capsys.readouterr().err

    bad_section = write_config(tmp_path / "b.ini", {"mystery": {"x": "1"}})
    assert main(["fit", "--config", str(bad_section)]) == 2
    assert "mystery" in capsys.readouterr().err

    default_section = tmp_path / "c.ini"
    default_section.write_text("[DEFAULT]\nseed = 1\n")
    assert main(["fit", "--config", str(default_section)]) == 2
    assert not (tmp_path / "out").exists()


def test_malformed_values_exit_2(tmp_path, capsys):
    # The relative MSE has one divisor, so [backtest] normalizer is an unknown key.
    removed = write_config(tmp_path / "removed.ini", {"backtest": {"normalizer": "mad"}})
    assert main(["fit", "--config", str(removed)]) == 2
    assert "unknown config key 'normalizer' in section [backtest]" in capsys.readouterr().err
    cases = [
        {"model": {"r_max": "three"}},
        {"backtest": {"horizons": "1,1"}},
        {"backtest": {"benchmarks": "arima"}},
        {"data": {"span": "2020-01-01"}},
        {"model": {"ranks": ""}},  # 'auto' or at least one count
        {"model": {"period": "1"}},  # the score decomposition needs a period >= 2
        {"calendar": {"periods": "7,23"}},  # does not tile a week
    ]
    for i, sections in enumerate(cases):
        cfg = write_config(tmp_path / f"bad{i}.ini", sections)
        assert main(["fit", "--config", str(cfg)]) == 2, sections


def test_ingest_clips_to_the_configured_span(tmp_path, capsys):
    write_provider_csv(tmp_path / "aaa.csv", "AAA", 4 * 168, lambda h: 100 + h % 24)
    cfg = write_config(tmp_path / "run.ini", {
        "data": {"paths": "aaa.csv", "span": "2020-01-13 00:00:00..2020-01-26 23:00:00"}})
    assert main(["ingest", "--config", str(cfg)]) == 0
    ts = load_tensor_series(tmp_path / "out" / "tensors.npz")
    assert ts.values.shape[0] == 2 and str(ts.period_starts[0]) == "2020-01-13T00"


@pytest.mark.parametrize("span, message", [
    ("2020-01-20 00:00:00..2020-01-07 00:00:00", "start 2020-01-20 00:00:00 is after end"),
    ("foo..bar", "Invalid isoformat string"),
    ("2020-01-07 00:00:00+01:00..2020-01-08 00:00:00", "without a UTC offset"),
    ("2020-01-13 00:30:00..2020-01-26 23:00:00", "on the hourly grid"),
    ("2020-01-13 00:00:00..2020-01-26 23:00:00.5", "on the hourly grid"),
])
def test_bad_span_exits_2_and_names_the_key(tmp_path, capsys, span, message):
    cfg = write_config(tmp_path / "run.ini", {"data": {"paths": "a.csv", "span": span}})
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data.span" in err and message in err


def test_schema_defaults_equal_an_empty_config(tmp_path):
    explicit = {section: {key: default for key, (default, _, _) in keys.items()}
                for section, keys in _SCHEMA.items()}
    full = load_config(write_config(tmp_path / "full.ini", explicit))
    assert full == load_config(write_config(tmp_path / "empty.ini", {}))


def test_model_score_defaults_are_the_score_model_defaults(tmp_path):
    model = load_config(write_config(tmp_path / "run.ini", {})).model
    assert ScoreModel(model.period, model.score_model, model.max_order) == ScoreModel()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "none.ini")]) == 2
    assert "none.ini" in capsys.readouterr().err


def test_bad_usage_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--config", "x.ini"])
    assert exc.value.code == 2


def test_flag_overrides_are_validated(tmp_path):
    write_config(tmp_path / "run.ini", {})
    assert main(["forecast", "--config", str(tmp_path / "run.ini"), "--horizon", "0"]) == 2
    assert main(["fit", "--config", str(tmp_path / "run.ini"), "--seed", "-1"]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("model", "period", "1"),
    ("model", "max_order", "-1"),
    ("model", "ranks", "1,0,2"),
    ("backtest", "train_length", "1"),
    ("backtest", "horizons", "1,1"),
    ("backtest", "horizons", "0,4"),
    ("calendar", "periods", "7,1"),
    ("simulate", "num_periods", "1"),
    ("simulate", "ranks", "1,0,2"),
    ("simulate", "dims", "9,0,24"),
    ("simulate", "periods", "0"),
    ("simulate", "nu_sd", "-1"),
])
def test_record_rules_fail_at_load_naming_the_key(tmp_path, capsys, section, key, value):
    # The records own these ranges; load_config builds them before any
    # archive is read, so the message names the key, not a missing archive.
    cfg = write_config(tmp_path / "run.ini", {section: {key: value}})
    assert main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert section in err and key in err and "not found" not in err, err
    assert not (tmp_path / "out").exists()


def test_load_config_holds_the_records(tmp_path):
    cfg = load_config(write_config(tmp_path / "run.ini", {
        "model": {"period": "12", "score_model": "AR_AIC", "max_order": "3"},
        "backtest": {"train_length": "40", "horizons": "4,1"},
        "simulate": {"dims": "3,7,24", "num_periods": "60"},
        "run": {"seed": "9"},
    }))
    assert cfg.score == ScoreModel(12, "ar_aic", 3)  # score_model keeps its case folding
    assert cfg.plan == evaluation.RollingPlan(40, (4, 1))
    assert cfg.sim.dims == (3, 7, 24) and cfg.sim.num_periods == 60 and cfg.sim.seed == 9
    assert load_config(write_config(tmp_path / "bare.ini", {})).plan is None


def test_flags_are_parsed_by_their_keys_rules(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", {
        "simulate": {"dims": "3,7,24", "num_periods": "12"}, "run": {"seed": "5"}})
    for argv, flag in [(["fit", "--seed", "x"], "--seed: expected an integer"),
                       (["fit", "--seed", "-1"], "--seed: must be >= 0"),
                       (["forecast", "--horizon", "1.5"], "--horizon: expected an integer"),
                       (["forecast", "--horizon", "0"], "--horizon: must be >= 1")]:
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
        assert flag in capsys.readouterr().err
    # --seed reaches the simulation recipe as [run] seed does.
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    flagged = write_config(tmp_path / "flag.ini", {"simulate": {"dims": "3,7,24",
                                                                "num_periods": "12"}})
    assert main(["simulate", "--config", str(flagged), "--out", str(tmp_path / "b"),
                 "--seed", "5"]) == 0
    assert (tmp_path / "a" / "sim.npz").read_bytes() == (tmp_path / "b" / "sim.npz").read_bytes()


def test_horizon_flag_belongs_to_forecast_only(tmp_path, capsys):
    cfg = str(write_config(tmp_path / "run.ini", {}))
    for command in ("ingest", "ranks", "fit", "backtest", "simulate", "report"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--horizon", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --horizon 3" in capsys.readouterr().err


def test_fit_writes_model_and_metrics(tmp_path, capsys):
    simulated_archive(tmp_path, t=50, nu_sd=0.05, seed=2)
    cfg = write_config(tmp_path / "run.ini", {"model": {"ranks": "1,1,2"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines == [str(tmp_path / "out" / name)
                         for name in ("model.npz", "loadings.csv", "fit.json")]
    metrics = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert metrics["ranks"] == [1, 1, 2]
    assert metrics["num_periods"] == 50
    model = load_model(tmp_path / "out" / "model.npz")
    assert model.ranks == Ranks(1, (1, 2))


def test_two_factor_fit_beats_one_factor(tmp_path):
    simulated_archive(tmp_path, dims=(6, 7, 24), ranks=(2, (1, 2)), t=60,
                      nu_sd=0.3, amplitudes=(1.0, 0.6, 0.8, 0.5), seed=4)
    mses = {}
    for label, ranks in [("one", "1,1,2"), ("two", "2,1,2")]:
        cfg = write_config(
            tmp_path / f"{label}.ini",
            {"data": {"archive": str(tmp_path / "out" / "tensors.npz")},
             "model": {"ranks": ranks, "archive": f"model_{label}.npz"}},
        )
        assert main(["fit", "--config", str(cfg)]) == 0
        mses[label] = json.loads((tmp_path / "out" / "fit.json").read_text())["in_sample_mse"]
    assert mses["two"] < mses["one"]


def test_noiseless_fit_reaches_machine_precision(tmp_path):
    simulated_archive(tmp_path, t=60, nu_sd=0.0, eta_sds=0.0, seed=3)
    cfg = write_config(tmp_path / "run.ini", {"model": {"ranks": "1,1,2"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    metrics = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert metrics["in_sample_mse"] < 1e-10


def test_ranks_command_recovers_simulated_counts(tmp_path, capsys):
    simulated_archive(tmp_path, dims=(6, 7, 24), ranks=(1, (1, 2)), t=150,
                      nu_sd=0.05, seed=1)
    cfg = write_config(tmp_path / "run.ini", {})
    assert main(["ranks", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "1,1,2"


def test_forecast_one_step_is_prefix_of_longer_horizon(tmp_path):
    simulated_archive(tmp_path, t=60, nu_sd=0.1, seed=6)
    cfg = write_config(tmp_path / "run.ini",
                       {"model": {"ranks": "1,1,2", "period": "12"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    assert main(["forecast", "--config", str(cfg), "--horizon", "26"]) == 0
    long = load_tensor_series(tmp_path / "out" / "forecast.npz")
    assert long.values.shape[0] == 26
    assert main(["forecast", "--config", str(cfg), "--horizon", "1"]) == 0
    short = load_tensor_series(tmp_path / "out" / "forecast.npz")
    assert short.values.shape[0] == 1
    assert np.array_equal(short.values[0], long.values[0])
    assert short.period_starts[0] == long.period_starts[0]


def test_forecast_on_periodic_factors_matches_truth(tmp_path):
    # ar_sd 0 leaves pure sinusoids with period 6, so x_{T+h} = x_{T+h-6}.
    ts, _ = simulated_archive(tmp_path, dims=(3, 7, 24), ranks=(1, (1, 1)), t=36,
                              periods=(6,), ar_sd=0.0, nu_sd=0.0, eta_sds=0.0, seed=8)
    cfg = write_config(tmp_path / "run.ini",
                       {"model": {"ranks": "1,1,1", "period": "6"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    assert main(["forecast", "--config", str(cfg), "--horizon", "6"]) == 0
    fc = load_tensor_series(tmp_path / "out" / "forecast.npz")
    truth = ts.values[30:36]
    scale = np.max(np.abs(truth))
    assert np.max(np.abs(fc.values - truth)) < 1e-6 * scale


def test_degenerate_model_forecasts_location(tmp_path):
    # A model whose extracted factors are identically zero must forecast mu.
    rng = np.random.default_rng(11)
    mu = rng.uniform(10.0, 20.0, size=(3, 7, 24))
    values = np.broadcast_to(mu, (10, 3, 7, 24)).copy()
    providers = ["P0", "P1", "P2"]
    out = tmp_path / "out"
    out.mkdir()
    save_tensor_series(out / "tensors.npz", TensorSeries(
        values=values, period_starts=weekly_starts(10), provider_ids=providers))
    model = TensorFactorModel(
        ranks=Ranks(1, (1, 2)),
        loadings=random_loading_set(rng, (3, 7, 24), (1, 1, 2)),
        standardization=Standardization(mu=mu, sigma=np.ones_like(mu)),
        provider_ids=providers,
    )
    save_model(out / "model.npz", model)
    cfg = write_config(tmp_path / "run.ini", {"model": {"period": "3"}})
    assert main(["forecast", "--config", str(cfg), "--horizon", "4"]) == 0
    fc = load_tensor_series(out / "forecast.npz")
    assert np.allclose(fc.values, mu[None], atol=1e-9)


def test_forecast_csv_round_trips_values(tmp_path):
    simulated_archive(tmp_path, dims=(2, 7, 24), ranks=(1, (1, 1)), t=30, seed=5)
    cfg = write_config(tmp_path / "run.ini",
                       {"model": {"ranks": "1,1,1", "period": "6"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    assert main(["forecast", "--config", str(cfg), "--horizon", "2"]) == 0
    fc = load_tensor_series(tmp_path / "out" / "forecast.npz")
    with open(tmp_path / "out" / "forecast.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 7 * 24
    probe = rows[24 * 3 + 5]  # first period, provider P0, day 3, hour 5
    assert probe["provider"] == "P0"
    assert (int(probe["s1"]), int(probe["s2"])) == (3, 5)
    assert float(probe["value"]) == fc.values[0, 0, 3, 5]


def test_forecast_csv_matches_rowwise_writer(tmp_path):
    simulated_archive(tmp_path, dims=(9, 7, 24), t=110, nu_sd=0.1, seed=0)
    cfg = write_config(tmp_path / "run.ini", {})
    assert main(["fit", "--config", str(cfg)]) == 0
    assert main(["forecast", "--config", str(cfg), "--horizon", "26"]) == 0
    fc = load_tensor_series(tmp_path / "out" / "forecast.npz")
    assert fc.values.shape == (26, 9, 7, 24)
    rowwise_forecast_csv(tmp_path / "oracle.csv", fc)
    oracle = (tmp_path / "oracle.csv").read_bytes()
    assert (tmp_path / "out" / "forecast.csv").read_bytes() == oracle


@pytest.mark.parametrize("dims, providers", [
    ((3, 7, 24), ["a,b", 'say "hi"', " lead"]),
    ((2, 24), ["P0", "P1"]),
    ((2, 2, 7, 24), ["P0", "P1"]),
])
def test_forecast_csv_writer_matches_rowwise_writer(tmp_path, dims, providers):
    rng = np.random.default_rng(31)
    values = rng.standard_normal((3, *dims)) * 10.0 ** rng.integers(-8, 9, size=(3, *dims))
    fc = TensorSeries(values=values, period_starts=weekly_starts(3), provider_ids=providers)
    cli._write_forecast_csv(tmp_path / "forecast.csv", fc)
    rowwise_forecast_csv(tmp_path / "oracle.csv", fc)
    assert (tmp_path / "forecast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_fit_writes_loadings_csv(tmp_path):
    simulated_archive(tmp_path, dims=(3, 7, 24), t=50, nu_sd=0.05, seed=2)
    cfg = write_config(tmp_path / "run.ini", {
        "data": {"archive": str(tmp_path / "out" / "tensors.npz")},
        "model": {"ranks": "2,1,2"},
    })
    for out in ("one", "two"):
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    written = (tmp_path / "one" / "loadings.csv").read_bytes()
    assert written == (tmp_path / "two" / "loadings.csv").read_bytes()

    model = load_model(tmp_path / "one" / "model.npz")
    modes = [("provider", model.provider_ids, model.loadings.lam)]
    modes += [(f"s{j + 1}", range(len(b)), b) for j, b in enumerate(model.loadings.b)]
    expected = [(mode, str(index), str(f), mat[i, f]) for mode, indices, mat in modes
                for i, index in enumerate(indices) for f in range(mat.shape[1])]
    with open(tmp_path / "one" / "loadings.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["mode", "index", "factor", "value"]
        rows = [(mode, index, factor, float(value)) for mode, index, factor, value in reader]
    assert rows == expected


def test_data_archive_that_is_not_an_npz_exits_1(tmp_path, capsys):
    write_provider_csv(tmp_path / "a.csv", "AAA", 48, lambda h: h)
    cfg = write_config(tmp_path / "run.ini", {"data": {"archive": str(tmp_path / "a.csv")}})
    assert main(["fit", "--config", str(cfg)]) == 1
    assert f"{tmp_path / 'a.csv'}: not an .npz archive" in capsys.readouterr().err


def test_data_archive_missing_a_member_exits_1(tmp_path, capsys):
    archive = tmp_path / "out" / "tensors.npz"
    archive.parent.mkdir()
    write_npz(archive, {"values": np.ones((3, 2, 7, 24)), "provider_ids": np.array(["A", "B"])})
    cfg = write_config(tmp_path / "run.ini", {})
    assert main(["fit", "--config", str(cfg)]) == 1
    assert f"{archive}: archive has no member 'period_starts'" in capsys.readouterr().err


def test_model_archive_with_a_nan_location_exits_1_naming_it(tmp_path, capsys):
    # The NaN once passed load_model and failed in the forecast, blamed on
    # the data archive's first period.
    simulated_archive(tmp_path, dims=(3, 7, 24), ranks=(1, (1, 1)), t=30, seed=4)
    cfg = write_config(tmp_path / "run.ini", {"model": {"ranks": "1,1,1", "period": "6"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    archive = tmp_path / "out" / "model.npz"
    arrays = read_npz(archive, ("r", "k", "lam", "b0", "b1", "mu", "sigma", "provider_ids"))
    arrays["mu"] = arrays["mu"].copy()
    arrays["mu"].flat[5] = np.nan
    write_npz(archive, arrays)
    capsys.readouterr()
    assert main(["forecast", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{archive}: mu must be finite" in err and "non-finite value" not in err, err


def test_backtest_emits_all_four_report_files(tmp_path, capsys):
    simulated_archive(tmp_path, dims=(2, 7, 24), ranks=(1, (1, 1)), t=60,
                      nu_sd=0.2, seed=9)
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"ranks": "1,1,1", "period": "12"},
        "backtest": {"train_length": "48", "horizons": "1,4"},
    })
    assert main(["backtest", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    printed = capsys.readouterr().out.splitlines()
    expected = [out / "report.csv", out / "report.json", out / "report.md", out / "trace.csv"]
    assert printed == [str(p) for p in expected]
    for p in expected:
        assert p.is_file()
    md = (out / "report.md").read_text()
    for model in ("TFM", "MFM", "VFM", "FPCA"):
        assert f"## {model}" in md
    payload = json.loads((out / "report.json").read_text())
    assert payload["metadata"]["model"] == "TFM,MFM,VFM,FPCA"
    assert len(payload["cells"]) == 4 * 2 * 2  # models x horizons x providers


def test_backtest_benchmarks_toggle(tmp_path):
    simulated_archive(tmp_path, dims=(2, 7, 24), ranks=(1, (1, 1)), t=30,
                      nu_sd=0.2, seed=9)
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"ranks": "1,1,1", "period": "6"},
        "backtest": {"train_length": "24", "horizons": "1", "benchmarks": ""},
    })
    assert main(["backtest", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {c["model"] for c in payload["cells"]} == {"TFM"}


def test_backtest_seed_reaches_the_report_metadata(tmp_path):
    simulated_archive(tmp_path, dims=(2, 7, 24), ranks=(1, (1, 1)), t=30,
                      nu_sd=0.2, seed=9)
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"ranks": "1,1,1", "period": "6"},
        "backtest": {"train_length": "24", "horizons": "1", "benchmarks": ""},
        "run": {"seed": "3"},
    })
    for flags, seed in [([], "3"), (["--seed", "7"], "7")]:
        assert main(["backtest", "--config", str(cfg), *flags]) == 0
        out = tmp_path / "out"
        assert json.loads((out / "report.json").read_text())["metadata"]["seed"] == seed
        assert f"- seed: {seed}\n" in (out / "report.md").read_text()


def test_backtest_oracle_hook_reports_zero_error(tmp_path, monkeypatch):
    ts, _ = simulated_archive(tmp_path, dims=(2, 7, 24), ranks=(1, (1, 1)), t=30,
                              nu_sd=0.3, seed=12)
    cfg_path = write_config(tmp_path / "run.ini", {
        "model": {"period": "6"},
        "backtest": {"train_length": "20", "horizons": "1,4", "benchmarks": ""},
    })

    def oracle(train, n):
        first = int(np.searchsorted(ts.period_starts, train.period_starts[-1])) + 1
        out = np.zeros((n, *ts.values.shape[1:]))
        window = ts.values[first:first + n]
        out[: len(window)] = window
        return out

    oracle.check = lambda shape: None  # the record's check, which takes any series
    monkeypatch.setattr(cli, "TensorForecaster", lambda *args: oracle)
    cmd_backtest(load_config(cfg_path), None)
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 horizons x 2 providers
    for row in rows:
        assert row["model"] == "TFM"
        assert float(row["mse"]) == 0.0
        assert float(row["relative_mse"]) == 0.0
        assert row["failed"] == "false"


def test_backtest_on_ingested_archive_matches_direct_fold(tmp_path):
    hours = 12 * 168
    for name, provider in [("a.csv", "AAA"), ("b.csv", "BBB")]:
        write_provider_csv(tmp_path / name, provider, hours,
                           lambda h: 60 + 8 * np.sin(2 * np.pi * h / 168)
                           + 3 * np.cos(2 * np.pi * h / 24) + 0.01 * h)
    common = {
        "model": {"ranks": "1,1,1", "period": "4"},
        "backtest": {"train_length": "8", "horizons": "1,2", "benchmarks": ""},
    }
    cli_cfg = write_config(tmp_path / "cli.ini",
                           {"data": {"paths": "a.csv, b.csv"}, **common,
                            "run": {"out": "out_cli"}})
    assert main(["ingest", "--config", str(cli_cfg)]) == 0
    assert main(["backtest", "--config", str(cli_cfg)]) == 0

    direct_out = tmp_path / "out_direct"
    direct_out.mkdir()
    panel = ingest_csv([tmp_path / "a.csv", tmp_path / "b.csv"])
    save_tensor_series(direct_out / "tensors.npz", fold(panel, CalendarSpec()))
    direct_cfg = write_config(tmp_path / "direct.ini",
                              {**common, "run": {"out": "out_direct"}})
    assert main(["backtest", "--config", str(direct_cfg)]) == 0

    cli_archive = (tmp_path / "out_cli" / "tensors.npz").read_bytes()
    assert cli_archive == (direct_out / "tensors.npz").read_bytes()
    for name in ("report.csv", "report.json", "trace.csv"):
        assert (tmp_path / "out_cli" / name).read_bytes() == (direct_out / name).read_bytes()


def test_backtest_plan_problems_exit_2(tmp_path, capsys):
    simulated_archive(tmp_path, t=20, seed=1)
    no_train = write_config(tmp_path / "a.ini", {"backtest": {"horizons": "1"}})
    assert main(["backtest", "--config", str(no_train)]) == 2
    too_long = write_config(tmp_path / "b.ini",
                            {"backtest": {"train_length": "50", "horizons": "1"}})
    assert main(["backtest", "--config", str(too_long)]) == 2
    # The plan fits the 20 periods, but a window of 18 cannot hold two
    # score periods of 12.
    short_train = write_config(tmp_path / "c.ini", {
        "model": {"period": "12"},
        "backtest": {"train_length": "18", "horizons": "1"},
    })
    capsys.readouterr()
    assert main(["backtest", "--config", str(short_train)]) == 2
    err = capsys.readouterr().err
    assert "backtest.train_length = 18" in err and "model.period = 12" in err
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize(
    "dims, backtest, key",
    [
        ((3, 168), {}, "benchmarks"),  # one seasonal mode: no (days, hours) matrices
        ((3, 7, 24), {"mfm_day_factors": "8"}, "mfm_day_factors"),
        ((3, 7, 24), {"mfm_hour_factors": "30"}, "mfm_hour_factors"),
        ((3, 7, 24), {"vfm_components": "500"}, "vfm_components"),
        ((3, 7, 24), {"vfm_components": "24", "vfm_stacked": "true"}, "vfm_components"),
        ((3, 7, 24), {"fpca_components": "25"}, "fpca_components"),
    ],
)
def test_backtest_baseline_settings_the_archive_cannot_hold_exit_2(tmp_path, capsys, dims,
                                                                   backtest, key):
    # Accepted, each would fail every window of its baseline with one error.
    ranks = (1, (1,) * (len(dims) - 1))
    simulated_archive(tmp_path, dims=dims, ranks=ranks, t=30, seed=1)
    cfg = write_config(tmp_path / "run.ini", {
        "calendar": {"periods": ",".join(str(s) for s in dims[1:])},
        "model": {"ranks": ",".join(str(c) for c in (ranks[0], *ranks[1])), "period": "6"},
        "backtest": {"train_length": "24", "horizons": "1", **backtest},
    })
    capsys.readouterr()
    assert main(["backtest", "--config", str(cfg)]) == 2
    assert f"backtest.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_auto_ranks_on_a_single_provider_name_the_problem(tmp_path, capsys):
    simulated_archive(tmp_path, dims=(1, 7, 24), t=30, seed=3)
    cfg = write_config(tmp_path / "run.ini", {})
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "automatic rank selection needs at least 2 providers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, dims, model, key",
    [
        ("fit", (3, 7, 24), {"ranks": "1,1"}, "model.ranks"),  # R,K1,K2 for two seasonal modes
        ("fit", (3, 7, 24), {"ranks": "1,9,2"}, "model.ranks"),  # 9 days of 7
        ("fit", (3, 7, 24), {"k_max": "1,1,1"}, "k_max"),  # one bound per seasonal mode
        ("ranks", (3, 7, 24), {"k_max": "7,3"}, "k_max"),  # below the 7 days
        ("backtest", (2, 7, 24), {"ranks": "3,1,2"}, "model.ranks"),  # 3 factors of 2 providers
        ("backtest", (1, 7, 24), {}, "model.ranks"),  # auto ranks need 2 providers
    ],
)
def test_rank_settings_the_archive_cannot_take_exit_2(tmp_path, capsys, command, dims, model,
                                                      key):
    # Checked against the archive's dims by the estimator's own rules before
    # any fit or window: accepted, a backtest would fail every TFM window.
    simulated_archive(tmp_path, dims=dims, t=30, seed=3)
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"period": "6", **model},
        "backtest": {"train_length": "24", "horizons": "1", "benchmarks": ""},
    })
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and f"{dims}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out" / "report.csv").exists()
    assert not (tmp_path / "out" / "model.npz").exists()


def test_seasonal_rank_may_equal_its_extent(tmp_path):
    # Ranks.validate_against allows K_j = S_j, and fit_factor_model fits it.
    simulated_archive(tmp_path, t=30, seed=3)
    cfg = write_config(tmp_path / "run.ini", {"model": {"ranks": "1,7,2"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "out" / "fit.json").read_text())["ranks"] == [1, 7, 2]


@pytest.mark.parametrize("model", [{"ranks": "1,1,1,2"}, {"k_max": "1,1,2"}],
                         ids=["ranks", "k_max"])
def test_rank_settings_follow_the_archive_not_the_calendar(tmp_path, model):
    # Three seasonal modes against the default two-mode calendar: the rank
    # settings are checked against the simulated archive they apply to.
    cfg = write_config(tmp_path / "run.ini", {
        "simulate": {"dims": "3,2,7,12", "ranks": "1,1,1,2", "num_periods": "30"},
        "data": {"archive": "sim.npz"},
        "model": {"period": "6", **model},
        "backtest": {"train_length": "24", "horizons": "1", "benchmarks": ""},
    })
    for command in ("simulate", "fit", "backtest"):
        assert main([command, "--config", str(cfg)]) == 0, command
    ranks = json.loads((tmp_path / "out" / "fit.json").read_text())["ranks"]
    assert len(ranks) == 4
    assert not any(c.failed for c in load_report(tmp_path / "out" / "report.json").cells)


def test_simulate_ranks_must_match_the_simulated_dims(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", {"simulate": {"ranks": "1,1"}})  # dims 9,7,24
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "1 seasonal ranks for 2 seasonal modes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_dims_need_a_seasonal_extent(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", {"simulate": {"dims": "9", "ranks": "1"}})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "simulate: dims must list the cross-section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("nu_sd", "nan"), ("ar_coefficient", "nan"),
                                        ("amplitudes", "inf")])
def test_simulate_rejects_non_finite_settings(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "run.ini", {"simulate": {key: value}})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"simulate: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_defaults_are_the_sim_spec_defaults(tmp_path):
    recipe = load_config(write_config(tmp_path / "run.ini", {})).simulate._asdict()
    checked = set()
    for f in dataclasses.fields(SimSpec):
        if f.name in recipe and f.default is not dataclasses.MISSING:
            assert recipe[f.name] in (f.default, (f.default,)), f.name
            checked.add(f.name)
    assert checked == set(recipe) - {"dims", "ranks", "num_periods", "archive", "truth"}


def test_schema_defaults_are_the_model_functions_defaults():
    # The deployment defaults are read from the model records, except where
    # a record's default is None: its key's default is the sentinel text
    # that reads as None.
    for section, key, default in [("model", "ranks", evaluation.TensorForecaster.ranks),
                                  ("model", "k_max", evaluation.TensorForecaster.k_max),
                                  ("backtest", "fpca_components",
                                   evaluation.make_benchmark_forecaster("FPCA").ncomp)]:
        text, parse, _ = _SCHEMA[section][key]
        assert default is None and parse(key, text) is None, key
    # The tensor record restates fit_factor_model's rank defaults.
    params = inspect.signature(fit_factor_model).parameters
    for key in ("ranks", "r_max", "k_max"):
        assert getattr(evaluation.TensorForecaster, key) == params[key].default, key


def test_simulate_same_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "run.ini", {
        "simulate": {"dims": "4,7,24", "ranks": "1,1,2", "num_periods": "30"},
        "run": {"seed": "13"},
    })
    for out in ("one", "two"):
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    for name in ("sim.npz", "truth.npz"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "three"),
                 "--seed", "14"]) == 0
    assert ((tmp_path / "one" / "sim.npz").read_bytes()
            != (tmp_path / "three" / "sim.npz").read_bytes())


def test_simulated_dims_follow_config(tmp_path):
    cfg = write_config(tmp_path / "run.ini", {
        "simulate": {"num_periods": "12"},  # default dims 9,7,24
    })
    assert main(["simulate", "--config", str(cfg)]) == 0
    ts = load_tensor_series(tmp_path / "out" / "sim.npz")
    assert ts.values.shape == (12, 9, 7, 24)
    assert ts.provider_ids == [f"P{i}" for i in range(9)]


def test_zero_noise_simulation_fit_recovers_loadings(tmp_path):
    # Per-cell standardization of a noiseless rank-one tensor absorbs the
    # loading magnitudes (cell std factorizes as |lam| x |b1| x |b2|), so the
    # spans recoverable from standardized data are the elementwise signs.
    cfg = write_config(tmp_path / "run.ini", {
        "simulate": {"dims": "4,7,24", "ranks": "1,1,1", "num_periods": "80",
                     "nu_sd": "0", "eta_sds": "0"},
        "data": {"archive": "sim.npz"},
        "model": {"ranks": "1,1,1"},
        "run": {"seed": "17"},
    })
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["fit", "--config", str(cfg)]) == 0
    model = load_model(tmp_path / "out" / "model.npz")
    with np.load(tmp_path / "out" / "truth.npz") as truth:
        assert subspace_distance(model.loadings.lam, np.sign(truth["lam"])) < 1e-8
        assert subspace_distance(model.loadings.b[0], np.sign(truth["b0"])) < 1e-8
        assert subspace_distance(model.loadings.b[1], np.sign(truth["b1"])) < 1e-8
    metrics = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert metrics["in_sample_mse"] < 1e-12


def test_report_command_reemits_identical_files(tmp_path):
    simulated_archive(tmp_path, dims=(2, 7, 24), ranks=(1, (1, 1)), t=30,
                      nu_sd=0.2, seed=21)
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"ranks": "1,1,1", "period": "6"},
        "backtest": {"train_length": "24", "horizons": "1", "benchmarks": "mfm"},
    })
    assert main(["backtest", "--config", str(cfg)]) == 0
    other = tmp_path / "elsewhere"
    assert main(["report", "--config", str(cfg), "--out", str(other)]) == 0
    for name in ("report.csv", "report.json", "report.md", "trace.csv"):
        assert (other / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_report_without_backtest_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", {})
    assert main(["report", "--config", str(cfg)]) == 2
    assert "report.json" in capsys.readouterr().err


def test_computation_failure_exits_1(tmp_path, capsys):
    # A constant archive standardizes to all zeros, which has no factors.
    out = tmp_path / "out"
    out.mkdir()
    save_tensor_series(out / "tensors.npz", TensorSeries(
        values=np.full((10, 3, 7, 24), 5.0), period_starts=weekly_starts(10),
        provider_ids=["P0", "P1", "P2"]))
    cfg = write_config(tmp_path / "run.ini", {"model": {"ranks": "1,1,2"}})
    with pytest.warns(RuntimeWarning):
        assert main(["fit", "--config", str(cfg)]) == 1
    assert "degenerate" in capsys.readouterr().err


def test_forecast_on_too_short_archive_exits_2(tmp_path, capsys):
    # Period-52 score models cannot be fit on a 10-period series.
    simulated_archive(tmp_path, t=10, nu_sd=0.1, seed=2)
    cfg = write_config(tmp_path / "run.ini", {"model": {"ranks": "1,1,2"}})
    assert main(["fit", "--config", str(cfg)]) == 0
    assert main(["forecast", "--config", str(cfg), "--horizon", "1"]) == 2
    err = capsys.readouterr().err
    assert "model.period = 52" in err and "data.archive holds 10" in err
    assert not (tmp_path / "out" / "forecast.npz").exists()


def test_forecast_with_a_model_of_other_dims_exits_2(tmp_path, capsys):
    simulated_archive(tmp_path, t=40, seed=3)
    fit_cfg = write_config(tmp_path / "fit.ini", {"model": {"ranks": "1,1,2", "period": "12"}})
    assert main(["fit", "--config", str(fit_cfg)]) == 0
    other = tmp_path / "other"
    other.mkdir()
    ts, _, _ = simulate(SimSpec(dims=(3, 7, 12), ranks=Ranks(1, (1, 2)), num_periods=40, seed=3))
    save_tensor_series(other / "tensors.npz", ts)
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"ranks": "1,1,2", "period": "12", "archive": str(tmp_path / "out" / "model.npz")},
        "run": {"out": "other"},
    })
    capsys.readouterr()
    assert main(["forecast", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "model.archive" in err and "data.archive" in err
    assert "(3, 7, 24)" in err and "(3, 7, 12)" in err
    assert sorted(p.name for p in other.iterdir()) == ["tensors.npz"]


def test_backtest_on_irregular_period_starts_fails_before_any_window(tmp_path, capsys):
    ts, _ = simulated_archive(tmp_path, t=70, seed=4)
    starts = ts.period_starts.copy()
    starts[60:] += np.timedelta64(1, "h")
    save_tensor_series(tmp_path / "out" / "tensors.npz",
                       TensorSeries(ts.values, starts, ts.provider_ids))
    cfg = write_config(tmp_path / "run.ini", {
        "model": {"ranks": "1,1,2", "period": "4"},
        "backtest": {"train_length": "40", "horizons": "1,4", "benchmarks": "vfm"},
    })
    capsys.readouterr()
    assert main(["backtest", "--config", str(cfg)]) != 0
    err = capsys.readouterr().err
    assert "tensors.npz" in err and f"start 60 ({starts[60]})" in err
    assert "window" not in err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_console_script_prints_schema(tmp_path):
    # Run the `[project.scripts]` entry point the way an installed wrapper
    # does, against this checkout's sources rather than any installed copy.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    entry = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["tensorcast"]
    module, func = entry.split(":")
    wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", wrapper, "--help"], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0
    assert "[calendar]" in result.stdout
    assert "backtest" in result.stdout
    # "backtest" also names a config section, so check the command list itself.
    for command in ("ingest", "ranks", "fit", "forecast", "backtest", "simulate", "report"):
        assert re.search(rf"^    {command} +[^=\s]", result.stdout, re.M), command
