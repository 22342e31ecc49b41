"""Tests for rolling evaluation, report emission, and the synthetic generator."""

from __future__ import annotations

import csv
import importlib.util
import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorcast import benchmarks
from tensorcast.evaluation import (
    EvalCell,
    EvalReport,
    RollingPlan,
    SimSpec,
    _prepare,
    emit_report,
    make_benchmark_forecaster,
    make_tensor_forecaster,
    merge_reports,
    rolling_evaluate,
    simulate,
)
from tensorcast.factor_model import Ranks
from tensorcast.forecast import ScoreModel
from tensorcast.panel import TensorSeries

from helpers import (make_series, oracle_rolling_evaluate, recorded_score_blocks, report_cell,
                     simulate_compact)


def random_series(rng: np.random.Generator, t: int, dims=(2, 3, 4)) -> TensorSeries:
    return make_series(5.0 + 2.0 * rng.standard_normal((t, *dims)))


def oracle_forecaster(full: TensorSeries):
    """Looks up the true future periods; rows beyond the data stay zero."""

    def fn(train: TensorSeries, n: int) -> np.ndarray:
        idx = int(np.searchsorted(full.period_starts, train.period_starts[-1])) + 1
        out = np.zeros((n, *full.values.shape[1:]))
        avail = full.values[idx : idx + n]
        out[: avail.shape[0]] = avail
        return out

    return fn


def target_mean_forecaster(full: TensorSeries):
    """Emits each target period's per-provider cell mean (the normalizer's center)."""

    def fn(train: TensorSeries, n: int) -> np.ndarray:
        idx = int(np.searchsorted(full.period_starts, train.period_starts[-1])) + 1
        num_providers = full.values.shape[1]
        out = np.zeros((n, *full.values.shape[1:]))
        for h in range(n):
            if idx + h >= full.num_periods:
                continue
            target = full.values[idx + h].reshape(num_providers, -1)
            out[h] = target.mean(axis=1).reshape(num_providers, *[1] * (full.values.ndim - 2))
        return out

    return fn


def persistence_forecaster(train: TensorSeries, n: int) -> np.ndarray:
    return np.repeat(train.values[-1][None], n, axis=0)


# ---------------------------------------------------------------------------
# rolling evaluation


def test_rolling_plan_validation():
    plan = RollingPlan(train_length=10)
    assert plan.horizons == (1, 4, 13, 26)
    with pytest.raises(ValueError, match="horizon"):
        RollingPlan(train_length=10, horizons=())
    with pytest.raises(ValueError, match=">= 1"):
        RollingPlan(train_length=10, horizons=(0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        RollingPlan(train_length=10, horizons=(1, 1))
    with pytest.raises(ValueError, match="at least 37 periods"):
        RollingPlan(train_length=10, horizons=(26,)).validate_for(36)
    RollingPlan(train_length=10, horizons=(26,)).validate_for(37)


@pytest.mark.parametrize("settings, field", [
    ({"train_length": 40.5}, "train_length"),  # once failed later, in rolling_evaluate
    ({"train_length": True}, "train_length"),
    ({"horizons": (1.0, 4)}, "horizons"),
    ({"horizons": (True, 4)}, "horizons"),  # once read as horizon 1
    ({"horizons": (np.bool_(True), 4)}, "horizons"),
])
def test_rolling_plan_rejects_counts_that_are_not_integers(settings, field):
    with pytest.raises(ValueError, match=field):
        RollingPlan(**{"train_length": 40, **settings})


def test_rolling_plan_stores_plain_int_counts_in_a_hashable_plan():
    plan = RollingPlan(np.int64(40), horizons=[np.int64(1), 4])
    assert plan == RollingPlan(40, (1, 4)) and hash(plan) == hash(RollingPlan(40, (1, 4)))
    assert type(plan.train_length) is int and all(type(n) is int for n in plan.horizons)


def test_oracle_forecaster_scores_zero():
    rng = np.random.default_rng(0)
    ts = random_series(rng, 20)
    plan = RollingPlan(train_length=12, horizons=(1, 2))
    report = rolling_evaluate(oracle_forecaster(ts), ts, plan, model="oracle")
    assert len(report.cells) == 2 * 2  # horizons x providers
    for cell in report.cells:
        assert not cell.failed
        assert cell.mse == 0.0
        assert cell.relative_mse == 0.0


def test_target_mean_forecaster_scores_one():
    rng = np.random.default_rng(1)
    ts = random_series(rng, 24)
    plan = RollingPlan(train_length=14, horizons=(1, 3))
    report = rolling_evaluate(target_mean_forecaster(ts), ts, plan, model="mean")
    for cell in report.cells:
        assert not cell.failed
        assert abs(cell.relative_mse - 1.0) < 1e-12


def test_per_window_error_matches_naive_loop():
    rng = np.random.default_rng(2)
    ts = random_series(rng, 30)
    t_train = 20
    plan = RollingPlan(train_length=t_train, horizons=(1, 3))
    report = rolling_evaluate(persistence_forecaster, ts, plan, model="last")

    w, n, i = 3, 3, 1
    target = ts.values[w + t_train + n - 1, i]
    pred = ts.values[w + t_train - 1, i]
    expected = float(np.sum((target - pred) ** 2) / target.size)
    cell = report_cell(report, "last", n, "P1")
    assert abs(cell.trace[w] - expected) < 1e-12
    assert abs(cell.mse - float(np.mean(cell.trace))) < 1e-12


def test_relative_mse_is_affine_invariant():
    rng = np.random.default_rng(3)
    ts = random_series(rng, 26)
    shifted = make_series(-7.0 + 3.5 * ts.values)
    plan = RollingPlan(train_length=16, horizons=(1, 4))
    base = rolling_evaluate(persistence_forecaster, ts, plan, model="last")
    moved = rolling_evaluate(persistence_forecaster, shifted, plan, model="last")
    for b, m in zip(base.cells, moved.cells):
        assert abs(b.relative_mse - m.relative_mse) < 1e-12


def test_window_layout_and_fit_reuse():
    rng = np.random.default_rng(4)
    t, t_train = 30, 20
    ts = random_series(rng, t)
    calls = []

    def recording(train: TensorSeries, n: int) -> np.ndarray:
        calls.append((train.num_periods, train.period_starts[0], n))
        return persistence_forecaster(train, n)

    plan = RollingPlan(train_length=t_train, horizons=(1, 4))
    report = rolling_evaluate(recording, ts, plan, model="rec")

    t_test = t - t_train
    assert len(calls) == t_test - 1  # one fit per window, windows set by the shortest horizon
    for w, (length, first_start, n) in enumerate(calls):
        assert length == t_train
        assert first_start == ts.period_starts[w]
        assert n == 4
    assert len(report_cell(report, "rec", 1, "P0").trace) == t_test - 1
    assert len(report_cell(report, "rec", 4, "P0").trace) == t_test - 4


def failing_windows(ts: TensorSeries, bad: set[int]):
    """Persistence forecaster that raises at the windows in ``bad``."""

    def fn(train: TensorSeries, n: int) -> np.ndarray:
        w = int(np.searchsorted(ts.period_starts, train.period_starts[0]))
        if w in bad:
            raise ValueError("window exploded")
        return persistence_forecaster(train, n)

    return fn


def test_failed_window_marks_only_horizons_it_feeds():
    rng = np.random.default_rng(5)
    ts = random_series(rng, 30)
    plan = RollingPlan(train_length=20, horizons=(1, 4))
    t_test = 10

    early = rolling_evaluate(failing_windows(ts, {2}), ts, plan, model="m")
    for cell in early.cells:
        assert cell.failed
        assert "window 2 failed" in cell.error and "window exploded" in cell.error
        assert np.isnan(cell.mse)
    # windows other than 2 still ran
    trace = report_cell(early, "m", 1, "P0").trace
    assert np.isnan(trace[2]) and np.isfinite(np.delete(trace, 2)).all()

    late = rolling_evaluate(failing_windows(ts, {7}), ts, plan, model="m")
    for cell in late.cells:
        if cell.horizon == 1:
            assert cell.failed  # window 7 < W = 9
        else:
            assert not cell.failed  # horizon 4 only uses windows 0..5
            assert np.isfinite(cell.mse)


def test_irregular_period_starts_fail_once_before_any_window():
    # A series built in code never passes the archive loader's spacing check;
    # the backtest states it once, naming the start in series terms.
    ts = simulate(SimSpec(dims=(3, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=70, seed=0))[0]
    starts = ts.period_starts.copy()
    starts[60:] += np.timedelta64(1, "h")
    irregular = TensorSeries(ts.values, starts, ts.provider_ids)
    calls = []

    def forecaster(train: TensorSeries, n: int) -> np.ndarray:
        calls.append(n)
        return np.zeros((n, *ts.tensor_dims))

    with pytest.raises(ValueError, match=r"not evenly spaced: start 60 "):
        rolling_evaluate(forecaster, irregular, RollingPlan(train_length=40, horizons=(1, 4)))
    assert not calls


def test_relative_mse_divides_by_the_mean_window_variance():
    rng = np.random.default_rng(6)
    ts = random_series(rng, 24)
    t_train = 18
    plan = RollingPlan(train_length=t_train, horizons=(1,))
    var_rep = rolling_evaluate(persistence_forecaster, ts, plan, model="m")
    assert var_rep.metadata["normalizer"] == "variance"

    for i, pid in enumerate(ts.provider_ids):
        spreads = []
        for w in range(24 - t_train - 1):
            flat = ts.values[w + t_train, i].ravel()
            spreads.append(np.mean((flat - flat.mean()) ** 2))
        cell = report_cell(var_rep, "m", 1, pid)
        assert abs(cell.relative_mse - cell.mse / np.mean(spreads)) < 1e-12


def test_forecaster_shape_is_checked():
    rng = np.random.default_rng(7)
    ts = random_series(rng, 20)
    plan = RollingPlan(train_length=14, horizons=(1,))

    def wrong_shape(train: TensorSeries, n: int) -> np.ndarray:
        return np.zeros((n, 2, 3))

    report = rolling_evaluate(wrong_shape, ts, plan, model="bad")
    assert all(cell.failed for cell in report.cells)
    assert "expected" in report.cells[0].error


@pytest.mark.parametrize("case", ["unsorted", "failures", "wrong_shape"])
def test_reports_equal_the_per_horizon_oracle_byte_for_byte(tmp_path, case):
    rng = np.random.default_rng(8)
    ts = random_series(rng, 40)
    # 20 evaluation periods: horizons 4, 1, 7 and 2 have 16, 19, 13 and 18 windows.
    plan = RollingPlan(train_length=20, horizons=(4, 1, 7, 2))
    fn = persistence_forecaster
    if case == "failures":
        # Window 1 feeds every horizon; window 15 lies beyond horizon 7's 13.
        fn = failing_windows(ts, {1, 15})
    elif case == "wrong_shape":
        fn = lambda train, n: np.zeros((n, 2, 3))  # noqa: E731
    report = rolling_evaluate(fn, ts, plan, model="m")
    oracle = oracle_rolling_evaluate(fn, ts, plan, model="m")
    oracle.metadata = dict(report.metadata)
    new, old = emit_report(report, tmp_path / "new"), emit_report(oracle, tmp_path / "old")
    for key in ("csv", "json", "md", "trace"):
        assert new[key].read_bytes() == old[key].read_bytes(), key
    if case == "failures":
        assert all("window 1 failed" in c.error for c in report.cells)
        assert np.isnan(report_cell(report, "m", 1, "P0").trace[[1, 15]]).all()


# ---------------------------------------------------------------------------
# forecaster handles


def test_tensor_forecaster_handle_runs():
    rng = np.random.default_rng(8)
    ts = random_series(rng, 30, dims=(3, 4, 6))
    fn = make_tensor_forecaster(ranks=Ranks(1, (1, 2)), score=ScoreModel(period=6))
    out = fn(ts, 3)
    assert out.shape == (3, 3, 4, 6)
    assert np.isfinite(out).all()


def test_benchmark_forecaster_handles_run():
    rng = np.random.default_rng(9)
    ts = random_series(rng, 24, dims=(2, 3, 4))
    for kind in ("MFM", "vfm", "FPCA"):
        out = make_benchmark_forecaster(kind, score=ScoreModel(period=6))(ts, 2)
        assert out.shape == (2, 2, 3, 4)
        assert np.isfinite(out).all()
    with pytest.raises(ValueError, match="unknown benchmark"):
        make_benchmark_forecaster("ARIMA")


def test_forecaster_handles_take_only_their_models_settings():
    # Accepted, another model's setting would be dropped without a word.
    with pytest.raises(TypeError, match="ncomp"):
        make_benchmark_forecaster("VFM", ncomp=4)
    with pytest.raises(TypeError, match="k_day"):
        make_tensor_forecaster(k_day=1)
    with pytest.raises(TypeError, match="k_hour"):
        make_benchmark_forecaster("FPCA", k_hour=3)


def test_rolling_evaluate_runs_the_handle_check_before_any_window(monkeypatch):
    # Accepted, ncomp=25 on 24-hour days would fail every window alike.
    calls = []
    monkeypatch.setattr(benchmarks, "fpca_forecast", lambda *args: calls.append(args))
    ts = random_series(np.random.default_rng(10), 30, dims=(2, 7, 24))
    with pytest.raises(ValueError, match=r"ncomp=25 out of range 1\.\.24"):
        rolling_evaluate(make_benchmark_forecaster("FPCA", ncomp=25), ts, RollingPlan(20, (1,)))
    assert calls == []


def test_benchmark_handles_pickle_to_the_same_forecasts(monkeypatch):
    # A handle crosses a process boundary (spawn or forkserver workers) by
    # pickle; each of the benchmark's handles must forecast the same bytes.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # workloads.py imports inputs.py
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.modules.pop("inputs", None)
    train, _, _ = simulate(SimSpec(dims=(3, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=110))
    for name, make in workloads.MODELS.items():
        handle = make()
        copy = pickle.loads(pickle.dumps(handle))
        assert copy == handle, name
        assert copy(train, 26).tobytes() == handle(train, 26).tobytes(), name


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"kind": "bogus"}, "unknown score model 'bogus'"),
        ({"period": 1}, "period must be >= 2, got 1"),
        ({"max_order": -1}, "max_order must be >= 0, got -1"),
        ({"period": 4.0}, "period must be an integer, got 4.0"),
        ({"period": "52"}, "period must be an integer, got '52'"),
        ({"max_order": 2.5}, "max_order must be an integer, got 2.5"),
        ({"max_order": True}, "max_order must be an integer, got True"),
        ({"period": True}, "period must be an integer, got True"),
    ],
)
def test_forecaster_handles_reject_bad_score_settings_at_construction(setting, message):
    # Accepted, these would fail every window of a backtest with the same
    # error; the handles take their settings as one ScoreModel, built first.
    with pytest.raises(ValueError, match=message):
        ScoreModel(**setting)


@pytest.mark.parametrize("kind", ["MFM", "VFM", "FPCA"])
def test_benchmark_forecaster_passes_score_model(kind):
    # FPCA forecasts its curve scores with ar_aic whatever kind the handle has.
    ts = random_series(np.random.default_rng(9), 24, dims=(2, 3, 4))
    for score_model in ("ar1", "ar_aic"):
        score = ScoreModel(period=6, kind=score_model, max_order=2)
        with recorded_score_blocks() as calls:
            make_benchmark_forecaster(kind, score=score)(ts, 2)
        expected = ScoreModel(period=6, kind="ar_aic", max_order=2) if kind == "FPCA" else score
        assert calls and {call[2] for call in calls} == {expected}


# ---------------------------------------------------------------------------
# synthetic generator


def test_simulate_constant_factor_is_the_loading_product():
    rng = np.random.default_rng(10)
    dims = (2, 3, 4)
    mu = rng.uniform(10.0, 20.0, size=dims)
    sigma = rng.uniform(0.5, 1.5, size=dims)
    spec = SimSpec(
        dims=dims,
        ranks=Ranks(1, (1, 1)),
        num_periods=5,
        factor_mean=1.0,
        amplitudes=0.0,
        ar_sd=0.0,
        nu_sd=0.0,
        eta_sds=0.0,
        mu=mu,
        sigma=sigma,
        seed=11,
    )
    ts, loadings, factors = simulate(spec)
    assert np.allclose(factors.values, 1.0, rtol=0, atol=1e-12)
    expected = mu + sigma * np.einsum(
        "i,a,b->iab", loadings.lam[:, 0], loadings.b[0][:, 0], loadings.b[1][:, 0]
    )
    for t in range(5):
        assert np.allclose(ts.values[t], expected, rtol=0, atol=1e-12)


def test_simulate_compact_form_equals_recursion():
    spec = SimSpec(
        dims=(3, 4, 5),
        ranks=Ranks(2, (2, 2)),
        num_periods=12,
        amplitudes=(1.0, 0.5),
        periods=(5, 7),
        ar_coefficient=0.5,
        ar_sd=1.0,
        nu_sd=0.3,
        eta_sds=(0.2, 0.1),
        seed=12,
    )
    ts_rec, load_rec, f_rec = simulate(spec)
    ts_com, load_com, f_com = simulate_compact(spec)
    assert np.max(np.abs(ts_rec.values - ts_com.values)) < 1e-12
    assert np.array_equal(load_rec.lam, load_com.lam)
    assert np.array_equal(f_rec.values, f_com.values)
    assert np.array_equal(ts_rec.period_starts, ts_com.period_starts)
    assert ts_rec.provider_ids == ts_com.provider_ids


def test_simulate_matches_hand_rolled_two_level_recursion():
    # Two seasonal layers, one factor everywhere: f1[s1,t] = b1[s1] f[t] + eta1,
    # f2[s1,s2,t] = b2[s2] f1[s1,t] + eta2, eps = lam[i] f2 + nu, y = mu + sigma eps.
    rng = np.random.default_rng(13)
    dims = (2, 3, 4)
    mu = rng.uniform(-1.0, 1.0, size=dims)
    sigma = rng.uniform(0.5, 2.0, size=dims)
    spec = SimSpec(
        dims=dims,
        ranks=Ranks(1, (1, 1)),
        num_periods=6,
        amplitudes=0.8,
        periods=4,
        ar_coefficient=0.4,
        ar_sd=0.6,
        nu_sd=0.4,
        eta_sds=(0.3, 0.2),
        mu=mu,
        sigma=sigma,
        seed=14,
    )
    draws, loadings = _prepare(spec)
    f = draws.core[:, 0, 0, 0]
    b1 = loadings.b[0][:, 0]
    b2 = loadings.b[1][:, 0]
    lam = loadings.lam[:, 0]
    eta1 = draws.eta[0][:, 0, :, 0]  # (T, S1)
    eta2 = draws.eta[1][:, 0]  # (T, S1, S2)

    expected = np.empty((6, *dims))
    for t in range(6):
        for i in range(dims[0]):
            for s1 in range(dims[1]):
                f1 = b1[s1] * f[t] + eta1[t, s1]
                for s2 in range(dims[2]):
                    f2 = b2[s2] * f1 + eta2[t, s1, s2]
                    eps = lam[i] * f2 + draws.nu[t, i, s1, s2]
                    expected[t, i, s1, s2] = mu[i, s1, s2] + sigma[i, s1, s2] * eps

    ts, _, _ = simulate(spec)
    assert np.max(np.abs(ts.values - expected)) < 1e-12


def test_simulate_is_deterministic_in_the_seed():
    spec = dict(dims=(2, 3, 4), ranks=Ranks(1, (1, 2)), num_periods=8, nu_sd=0.2, eta_sds=0.1)
    a, _, _ = simulate(SimSpec(seed=5, **spec))
    b, _, _ = simulate(SimSpec(seed=5, **spec))
    c, _, _ = simulate(SimSpec(seed=6, **spec))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_simulate_validates_its_spec():
    ranks = Ranks(1, (1, 1))
    with pytest.raises(ValueError, match="seasonal"):
        SimSpec(dims=(4,), ranks=ranks, num_periods=5)
    with pytest.raises(ValueError, match="ar_coefficient"):
        SimSpec(dims=(2, 3, 4), ranks=ranks, num_periods=5, ar_coefficient=1.5)
    with pytest.raises(ValueError, match=">= 0"):
        SimSpec(dims=(2, 3, 4), ranks=ranks, num_periods=5, nu_sd=-0.1)
    with pytest.raises(ValueError, match=">= 0"):
        SimSpec(dims=(2, 3, 4), ranks=ranks, num_periods=5, eta_sds=(0.1, -0.2))
    with pytest.raises(ValueError, match="mu shape"):
        SimSpec(dims=(2, 3, 4), ranks=ranks, num_periods=5, mu=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="seasonal ranks"):
        SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1,)), num_periods=5)


@pytest.mark.parametrize("setting", [
    {"factor_mean": np.nan}, {"amplitudes": np.inf}, {"amplitudes": (1.0, np.nan)},
    {"ar_coefficient": np.nan}, {"ar_sd": np.inf}, {"nu_sd": np.nan}, {"eta_sds": (0.1, np.nan)},
    {"mu": np.full((2, 3, 4), np.nan)}, {"sigma": np.full((2, 3, 4), np.inf)},
])
def test_sim_spec_rejects_non_finite_settings(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1, 1)), num_periods=5, **setting)


@pytest.mark.parametrize("setting, field", [
    ({"dims": (3.7, 7, 24)}, "dims"),  # once became (3, 7, 24)
    ({"dims": (3, True, 24)}, "dims"),  # once became (3, 1, 24)
    ({"dims": (3, 0, 24)}, "dims"),  # once reported as "seasonal rank 1 exceeds period 0"
    ({"periods": 52.5}, "periods"),  # once truncated by the generator
    ({"periods": (52, 0)}, "periods"),
    ({"num_periods": 60.5}, "num_periods"),  # once failed inside numpy
    ({"num_periods": 1}, "num_periods"),
    ({"seed": -1}, "seed"),  # once failed inside numpy
    ({"seed": 1.0}, "seed"),
    ({"ar_sd": -0.5}, "ar_sd"),
    ({"nu_sd": -0.5}, "nu_sd"),
    ({"dims": (3, 7, 24, 24)}, "dims"),  # three seasonal modes for two seasonal ranks
    ({"periods": ()}, "periods"),  # once a NaN panel with an error naming no setting
    ({"amplitudes": ()}, "amplitudes"),  # once zero amplitudes without a word
    ({"eta_sds": ()}, "eta_sds"),  # once zero shocks without a word
])
def test_sim_spec_rejects_bad_counts_naming_the_field(setting, field):
    spec = {"dims": (3, 7, 24), "ranks": Ranks(1, (1, 2)), "num_periods": 60, **setting}
    with pytest.raises(ValueError, match=field):
        SimSpec(**spec)


def test_sim_spec_compares_mu_and_sigma_by_value():
    def spec(**arrays):
        return SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1, 1)), num_periods=5, **arrays)

    mu = np.ones((2, 3, 4))
    assert spec(mu=mu) == spec(mu=mu.copy())
    assert spec(mu=mu, sigma=2 * mu) == spec(mu=mu.copy(), sigma=2 * mu)
    other = mu.copy()
    other[1, 2, 3] = 2.0
    assert spec(mu=mu) != spec(mu=other)
    assert spec(mu=mu) != spec()
    assert spec() != spec(sigma=mu)
    assert spec() == spec()


def test_sim_spec_stores_plain_int_counts():
    spec = SimSpec(dims=np.array([3, 7, 24]), ranks=Ranks(1, (1, 2)), num_periods=np.int64(60),
                   periods=(np.int32(52), 12), seed=np.uint8(3))
    assert (spec.dims, spec.num_periods, spec.periods, spec.seed) == ((3, 7, 24), 60, (52, 12), 3)
    assert all(type(v) is int for v in (*spec.dims, spec.num_periods, *spec.periods, spec.seed))


# ---------------------------------------------------------------------------
# report emission


def small_report() -> EvalReport:
    return EvalReport(
        cells=[
            EvalCell("TFM", 1, "P0", 0.5, 0.25, trace=np.array([0.4, 0.6])),
            EvalCell("TFM", 4, "P0", float("nan"), float("nan"), failed=True,
                     error="window 0 failed: ValueError: boom"),
            EvalCell("VFM", 1, "P0", 0.8, 0.4, trace=np.array([0.8])),
        ],
        metadata={"train_length": "20", "model": "several"},
    )


def csv_rows(path: Path) -> list[dict[str, str]]:
    """The rows of an emitted CSV file, read through a closed handle."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_emit_report_writes_all_formats(tmp_path):
    paths = emit_report(small_report(), tmp_path)
    assert sorted(p.name for p in paths.values()) == [
        "report.csv",
        "report.json",
        "report.md",
        "trace.csv",
    ]
    rows = csv_rows(paths["csv"])
    assert len(rows) == 3
    assert rows[1]["failed"] == "true" and "boom" in rows[1]["error"]

    payload = json.loads(paths["json"].read_text())
    assert payload["metadata"]["train_length"] == "20"
    failed = [c for c in payload["cells"] if c["failed"]]
    assert failed[0]["mse"] is None

    md = paths["md"].read_text()
    assert "## TFM" in md and "## VFM" in md
    assert "failed" in md and "0.2500" in md

    trace_rows = csv_rows(paths["trace"])
    assert len(trace_rows) == 3  # 2 windows + 1 window; failed cell has no trace
    assert trace_rows[0]["window"] == "0"


def test_emit_empty_report_is_header_only(tmp_path):
    paths = emit_report(EvalReport(cells=[]), tmp_path)
    lines = paths["csv"].read_text().strip().splitlines()
    assert lines == ["model,horizon,provider,mse,relative_mse,failed,error"]


def test_emitted_csv_round_trips_exactly(tmp_path):
    cell = EvalCell("TFM", 1, "AEP", 0.123456789012345678, 0.5802999999999999,
                    trace=np.array([0.1, 0.2]))
    report = EvalReport(cells=[cell])
    paths = emit_report(report, tmp_path)
    row = csv_rows(paths["csv"])[0]
    assert float(row["mse"]) == cell.mse
    assert float(row["relative_mse"]) == cell.relative_mse
    trace_rows = csv_rows(paths["trace"])
    assert [float(r["mse"]) for r in trace_rows] == list(cell.trace)


def test_merge_reports_concatenates_cells():
    a = EvalReport(cells=[EvalCell("TFM", 1, "P0", 0.5, 0.2)], metadata={"model": "TFM"})
    b = EvalReport(cells=[EvalCell("VFM", 1, "P0", 0.7, 0.3)], metadata={"model": "VFM"})
    merged = merge_reports([a, b])
    assert len(merged.cells) == 2
    assert merged.metadata["model"] == "VFM"


def test_simulate_fit_evaluate_is_bit_reproducible(tmp_path):
    spec = SimSpec(
        dims=(3, 4, 6),
        ranks=Ranks(1, (1, 2)),
        num_periods=40,
        periods=6,
        ar_coefficient=0.6,
        nu_sd=0.3,
        eta_sds=(0.1, 0.1),
        seed=21,
    )
    plan = RollingPlan(train_length=28, horizons=(1, 4))

    def run():
        ts, _, _ = simulate(spec)
        fn = make_tensor_forecaster(ranks=Ranks(1, (1, 2)), score=ScoreModel(period=6))
        return rolling_evaluate(fn, ts, plan, model="TFM")

    first, second = run(), run()
    for x, y in zip(first.cells, second.cells):
        assert (x.model, x.horizon, x.provider_id) == (y.model, y.horizon, y.provider_id)
        assert x.mse == y.mse and x.relative_mse == y.relative_mse
        assert np.array_equal(x.trace, y.trace)

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_report(first, dir_a)
    emit_report(second, dir_b)
    for name in ("report.csv", "report.json", "report.md", "trace.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
