"""Tests for the matrix / vector / functional PCA benchmark forecasters."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from tensorcast.benchmarks import (
    FPCA,
    MFM,
    VFM,
    _centred_pca,
    _component_count,
    fpca_forecast,
    mfm_forecast,
    split_providers,
    vfm_forecast,
)
from tensorcast.factor_model import (
    Ranks,
    extract_factors,
    fit_factor_model,
    initial_loadings,
    projected_loadings,
    reconstruct_common,
)
from tensorcast import forecast
from tensorcast.evaluation import SimSpec, simulate
from tensorcast.forecast import ScoreModel, forecast_factors, forecast_observations
from tensorcast.panel import (
    TensorSeries,
    cell_standardization,
    standardize,
)

from helpers import (
    full_eigh,
    looped_fpca_forecast,
    make_series,
    noiseless_series,
    orthonormal_loading,
    weekly_starts,
)


# Each baseline's forecast function with its settings record.
BASELINES = [(mfm_forecast, MFM), (vfm_forecast, VFM), (fpca_forecast, FPCA)]


def periodic_pair(t: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    grid = 2.0 * np.pi * np.arange(t) / period
    return np.sin(grid) + 0.1, np.cos(grid) - 0.2


# ---------------------------------------------------------------------------
# plumbing


def test_split_providers_slices_by_provider():
    values = np.arange(5 * 2 * 3 * 4, dtype=float).reshape(5, 2, 3, 4)
    ts = make_series(values)
    parts = split_providers(ts)
    assert len(parts) == 2
    for i, part in enumerate(parts):
        assert part.provider_ids == ["day0", "day1", "day2"]
        assert np.array_equal(part.values, values[:, i])
        assert np.array_equal(part.period_starts, ts.period_starts)


def test_split_providers_rejects_non_matrix_series():
    ts = TensorSeries(np.zeros((4, 2, 6)), weekly_starts(4), ["P0", "P1"])
    with pytest.raises(ValueError, match="S1, S2"):
        split_providers(ts)
    for forecaster, record in BASELINES:
        with pytest.raises(ValueError, match="S1, S2"):
            forecaster(ts, 1, record(score=ScoreModel(period=2)))


@pytest.mark.parametrize("forecaster, record", BASELINES, ids=["MFM", "VFM", "FPCA"])
def test_forecast_period_starts_continue_the_series(forecaster, record):
    rng = np.random.default_rng(0)
    ts = make_series(rng.standard_normal((24, 2, 3, 4)), ["A", "B"])
    fc = forecaster(ts, 3, record(score=ScoreModel(period=6)))
    expected = ts.period_starts[-1] + (168 * np.arange(1, 4)).astype("timedelta64[h]")
    assert np.array_equal(fc.period_starts, expected)
    assert fc.provider_ids == ["A", "B"]
    assert fc.num_periods == 3
    assert fc.values.shape == (3, 2, 3, 4)


# ---------------------------------------------------------------------------
# matrix factor model


def test_mfm_exact_on_noiseless_periodic_matrix_data():
    # One day factor, two hour factors, periodic scores: the standardized data
    # is exactly rank (1, 2) per week, so the fitted model extrapolates the
    # periodic factor paths without error.
    rng = np.random.default_rng(1)
    t, period, horizon = 36, 6, 2
    day = orthonormal_loading(rng, 7, 1)
    hour = orthonormal_loading(rng, 24, 2)
    s1, s2 = periodic_pair(t + horizon, period)
    scores = np.stack([s1, s2], axis=1)[:, None, :]  # (t+h, 1, 2)
    common = np.einsum("da,tab,hb->tdh", day, scores, hour)
    mu = rng.uniform(50.0, 100.0, size=(7, 24))
    full = mu + 10.0 * common
    ts = make_series(full[:t, None])

    fc = mfm_forecast(ts, horizon, MFM(score=ScoreModel(period=period)))
    truth = full[t : t + horizon]
    assert np.max(np.abs(fc.values[:, 0] - truth)) < 1e-6 * np.max(np.abs(truth))


def test_mfm_constant_data_forecasts_the_constant():
    # Neither provider's mean over 12 copies is bit-equal to its values, but
    # every cell's sigma is at the clamp floor, so no fit (and no clamp
    # warning) happens and each provider forecasts its per-cell mean.
    base = np.linspace(10.0, 50.0, 6 * 4).reshape(6, 4)
    values = np.stack([np.broadcast_to(base, (12, 6, 4)), np.full((12, 6, 4), 12345.6)], axis=1)
    ts = make_series(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fc = mfm_forecast(ts, 3, MFM(score=ScoreModel(period=4)))
    np.testing.assert_array_equal(fc.values, np.broadcast_to(values.mean(axis=0), (3, 2, 6, 4)))
    assert np.allclose(fc.values[:, 0], base, rtol=0, atol=1e-12)


def test_mfm_agrees_with_tensor_model_on_single_provider():
    # With one provider the tensor model's cross-section mode is degenerate
    # and the two estimation pipelines reduce to the same eigenproblems.
    rng = np.random.default_rng(2)
    ys, _, _ = noiseless_series(rng, (1, 7, 24), (1, 1, 2), t=60, noise_sd=0.05)

    model, factors = fit_factor_model(ys, Ranks(1, (1, 2)))
    ff = forecast_factors(factors, 4, score=ScoreModel(period=6))
    tfm = forecast_observations(ff, model.loadings, model.standardization).values

    mfm = mfm_forecast(ys, 4, MFM(score=ScoreModel(period=6))).values
    assert np.max(np.abs(mfm - tfm)) < 1e-6 * np.max(np.abs(tfm))


def test_mfm_fits_providers_independently():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 3, 4))
    b = rng.standard_normal((24, 3, 4))
    spec = MFM(score=ScoreModel(period=6))
    both = mfm_forecast(make_series(np.stack([a, b], axis=1), ["A", "B"]), 2, spec)
    alone = mfm_forecast(make_series(a[:, None], ["A"]), 2, spec)
    assert both.provider_ids == ["A", "B"]
    assert np.array_equal(both.values[:, 0], alone.values[:, 0])


# ---------------------------------------------------------------------------
# vector factor model


def test_vfm_exact_on_affine_two_dimensional_weeks():
    rng = np.random.default_rng(4)
    t, period, p = 36, 6, 24
    base = rng.uniform(10.0, 20.0, size=p)
    u = orthonormal_loading(rng, p, 2) / np.sqrt(p)
    s1, s2 = periodic_pair(t + 1, period)
    vecs = base + np.outer(s1, u[:, 0]) + np.outer(s2, u[:, 1])
    ts = make_series(vecs[:t].reshape(t, 1, 4, 6))

    fc = vfm_forecast(ts, 1, VFM(r=2, score=ScoreModel(period=period)))
    truth = vecs[t].reshape(4, 6)
    assert np.max(np.abs(fc.values[0, 0] - truth)) < 1e-6 * np.max(np.abs(truth))


def test_vfm_complete_basis_reconstructs_in_sample():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((170, 7, 24))
    z = cell_standardization(values)
    x = ((values - z.mu) / z.sigma).reshape(170, -1)
    centred = x[None].copy()
    mean, basis, _, _ = _centred_pca(centred, 168)
    recon = mean + centred @ basis @ basis.swapaxes(1, 2)
    assert np.max(np.abs(recon - x)) < 1e-8
    back = recon.reshape(-1, 7, 24) * z.sigma + z.mu
    assert np.max(np.abs(back - values)) < 1e-8 * np.max(np.abs(values))


def test_vfm_zero_variance_data_forecasts_its_constant():
    ts = make_series(np.full((12, 1, 3, 4), 7.5))
    with pytest.warns(RuntimeWarning):
        fc = vfm_forecast(ts, 1, VFM(r=2, score=ScoreModel(period=4)))
    np.testing.assert_allclose(fc.values, 7.5, rtol=1e-12)


@pytest.mark.parametrize("stacked", [False, True])
def test_vfm_constant_provider_forecasts_its_constant_and_leaves_the_others(stacked):
    # A provider without variation has no components; per provider, the
    # others' forecasts are bitwise those of the panel without it.
    ts, _, _ = simulate(SimSpec(dims=(4, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=60, seed=0))
    values = ts.values.copy()
    values[:, 2] = 5.0
    spec = VFM(stacked=stacked, score=ScoreModel(period=8))
    with pytest.warns(RuntimeWarning):
        fc = vfm_forecast(make_series(values), 4, spec).values
    assert np.isfinite(fc).all()
    np.testing.assert_allclose(fc[:, 2], 5.0, rtol=1e-9)
    if not stacked:
        rest = make_series(np.delete(values, 2, axis=1))
        np.testing.assert_array_equal(np.delete(fc, 2, axis=1), vfm_forecast(rest, 4, spec).values)


def test_vfm_requires_more_periods_than_components():
    rng = np.random.default_rng(6)
    ts = make_series(rng.standard_normal((5, 1, 2, 3)))
    with pytest.raises(ValueError, match="more periods than components"):
        vfm_forecast(ts, 1, VFM(r=5, score=ScoreModel(period=2)))
    ts_long = make_series(rng.standard_normal((10, 1, 2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        vfm_forecast(ts_long, 1, VFM(r=7, score=ScoreModel(period=2)))


@pytest.mark.parametrize("record, settings, message", [
    (MFM, {"k_day": 8, "k_hour": 2}, r"k_day=8 out of range 1\.\.7 \(S1\)"),
    (MFM, {"k_day": 1, "k_hour": 25}, r"k_hour=25 out of range 1\.\.24 \(S2\)"),
    (MFM, {"k_day": True, "k_hour": 2}, "k_day must be an integer, got True"),
    (MFM, {"k_day": 1, "k_hour": 0}, "k_hour must be >= 1, got 0"),
    (VFM, {"r": 169, "stacked": False}, r"r=169 out of range 1\.\.168"),
    (VFM, {"r": 300, "stacked": True}, "more periods than components"),
    (VFM, {"r": 2.0, "stacked": False}, "r must be an integer, got 2.0"),
    (FPCA, {"ncomp": 25}, r"ncomp=25 out of range 1\.\.24 \(S2\)"),
    (FPCA, {"ncomp": np.bool_(True)}, "ncomp must be an integer"),
])
def test_baseline_checks_reject_settings_the_series_cannot_take(record, settings, message):
    with pytest.raises(ValueError, match=message):
        record(**settings).check((171, 3, 7, 24))


def test_baseline_checks_pass_plain_int_settings():
    assert MFM(np.int64(7), 24).check((171, 3, 7, 24)) == Ranks(7, (24,))
    assert type(VFM(np.int32(170), True).check((171, 3, 7, 24))) is int
    assert FPCA(None).check((171, 3, 7, 24)) is None


@pytest.mark.parametrize("forecaster, spec", [
    (mfm_forecast, MFM(k_day=1.0)), (vfm_forecast, VFM(r=True)), (fpca_forecast, FPCA(ncomp=2.5)),
])
def test_forecasts_run_their_baseline_check_first(forecaster, spec):
    # A count that is not an integer fails before any data is touched.
    ts = make_series(np.random.default_rng(4).standard_normal((24, 2, 3, 4)))
    with pytest.raises(ValueError, match="must be an integer"):
        forecaster(ts, 1, replace(spec, score=ScoreModel(period=4)))


def test_vfm_with_kron_structured_loading_matches_mfm_reconstruction():
    # vec(lam f b') = kron(lam, b) vec(f) with the hour index running fastest,
    # so a vector model whose loading is the Kronecker product of the matrix
    # model's loadings reproduces the matrix model's common component.
    rng = np.random.default_rng(7)
    values = rng.standard_normal((40, 7, 24))
    z = cell_standardization(values)
    x = (values - z.mu) / z.sigma
    xs = TensorSeries(x, weekly_starts(40), [f"day{d}" for d in range(7)])
    ranks = Ranks(1, (2,))
    loadings = projected_loadings(initial_loadings(xs, ranks))
    common = reconstruct_common(extract_factors(xs, loadings).values, loadings)

    u = np.kron(loadings.lam, loadings.b[0]) / np.sqrt(7 * 24)
    assert np.max(np.abs(u.T @ u - np.eye(2))) < 1e-10
    xv = x.reshape(40, -1)
    recon = ((xv @ u) @ u.T).reshape(x.shape)
    assert np.max(np.abs(recon - common)) < 1e-10


def test_vfm_stacked_shares_factors_across_providers():
    rng = np.random.default_rng(8)
    t, period, p = 36, 6, 12
    s1, s2 = periodic_pair(t + 1, period)
    series = []
    truths = []
    for pid in ("A", "B"):
        base = rng.uniform(5.0, 9.0, size=p)
        u = orthonormal_loading(rng, p, 2) / np.sqrt(p)
        vecs = base + np.outer(s1, u[:, 0]) + np.outer(s2, u[:, 1])
        series.append(vecs[:t].reshape(t, 3, 4))
        truths.append(vecs[t].reshape(3, 4))

    ts = make_series(np.stack(series, axis=1), ["A", "B"])
    fc = vfm_forecast(ts, 1, VFM(r=2, stacked=True, score=ScoreModel(period=period)))
    for i, truth in enumerate(truths):
        assert np.max(np.abs(fc.values[0, i] - truth)) < 1e-6 * np.max(np.abs(truth))


# ---------------------------------------------------------------------------
# functional PCA


def test_fpca_exact_on_one_component_curves():
    # Every day's curves vary along a single component whose score follows a
    # drift line, an exact AR(1); the AIC order search finds the zero-residual
    # fit and the forecast continues the line without error.
    rng = np.random.default_rng(9)
    t, horizon = 30, 3
    days, hours = 3, 5
    mu = rng.uniform(20.0, 40.0, size=(days, hours))
    w = rng.uniform(0.5, 1.5, size=(days, hours)) * rng.choice([-1.0, 1.0], size=(days, hours))
    s = 1.0 + 0.05 * np.arange(t + horizon)
    full = mu + w * s[:, None, None]
    ts = make_series(full[:t, None])

    fc = fpca_forecast(ts, horizon, FPCA(score=ScoreModel(period=6)))
    truth = full[t : t + horizon]
    assert np.max(np.abs(fc.values[:, 0] - truth)) < 1e-5 * np.max(np.abs(truth))


def test_fpca_complete_basis_reconstructs_curves():
    rng = np.random.default_rng(10)
    curves = rng.standard_normal((30, 6))
    centred = curves[None].copy()
    mean_curve, basis, _, _ = _centred_pca(centred, 6)
    recon = mean_curve + centred @ basis @ basis.swapaxes(1, 2)
    assert np.max(np.abs(recon - curves)) < 1e-8


def test_fpca_day_slices_keep_their_rows():
    # Day d carries a signature level 10 (d+1); the merged week matrix must
    # keep each day's forecast in its own row.
    rng = np.random.default_rng(11)
    t, period = 16, 4
    days, hours = 4, 3
    curve = np.array([1.0, -0.5, 0.25])
    s = np.sin(2.0 * np.pi * np.arange(t + 1) / period) + 0.2
    full = np.empty((t + 1, days, hours))
    for d in range(days):
        full[:, d, :] = 10.0 * (d + 1) + (d + 1) * np.outer(s, curve)
    ts = make_series(full[:t, None])

    fc = fpca_forecast(ts, 1, FPCA(score=ScoreModel(period=period)))
    truth = full[t]
    assert np.max(np.abs(fc.values[0, 0] - truth)) < 1e-6 * np.max(np.abs(truth))
    row_levels = fc.values[0, 0].mean(axis=1)
    assert np.all(np.diff(row_levels) > 5.0)


def test_fpca_flat_day_forecasts_its_mean():
    t, period = 16, 4
    s = np.sin(2.0 * np.pi * np.arange(t + 1) / period)
    full = np.empty((t + 1, 2, 3))
    full[:, 0, :] = 42.0
    full[:, 1, :] = 5.0 + np.outer(s, np.array([1.0, 2.0, 3.0]))
    ts = make_series(full[:t, None])
    with pytest.warns(RuntimeWarning):
        fc = fpca_forecast(ts, 1, FPCA(score=ScoreModel(period=period)))
    assert np.allclose(fc.values[0, 0, 0], 42.0, rtol=0, atol=1e-10)
    assert np.max(np.abs(fc.values[0, 0, 1] - full[t, 1])) < 1e-6


def test_fpca_component_count_selection():
    assert _component_count(np.array([0.96, 0.04]), None, 2) == 1
    assert _component_count(np.array([0.5, 0.3, 0.15, 0.05]), None, 4) == 3
    assert _component_count(np.full(24, 1.0 / 24), None, 24) == 6
    assert _component_count(np.zeros(4), None, 4) == 1
    assert _component_count(np.array([0.9, 0.1]), 2, 2) == 2


# ---------------------------------------------------------------------------
# shared behavior


def test_benchmarks_are_deterministic():
    rng = np.random.default_rng(12)
    ts = make_series(50.0 + 5.0 * rng.standard_normal((24, 2, 3, 4)), ["A", "B"])
    for forecaster, record in BASELINES:
        first = forecaster(ts, 2, record(score=ScoreModel(period=6)))
        second = forecaster(ts, 2, record(score=ScoreModel(period=6)))
        assert first.provider_ids == ["A", "B"]
        assert np.array_equal(first.values, second.values)


def test_panel_standardization_keeps_per_provider_forecasts_independent():
    # VFM and FPCA standardize the whole panel at once; a provider's
    # forecast must still not depend on the other providers, bit for bit.
    rng = np.random.default_rng(13)
    a = 50.0 + 5.0 * rng.standard_normal((24, 3, 4))
    b = rng.standard_normal((24, 3, 4))
    both = make_series(np.stack([a, b], axis=1), ["A", "B"])
    alone = make_series(a[:, None], ["A"])
    for forecaster, record in BASELINES[1:]:
        spec = record(score=ScoreModel(period=6))
        pair = forecaster(both, 2, spec).values[:, 0]
        assert np.array_equal(pair, forecaster(alone, 2, spec).values[:, 0])


# ---------------------------------------------------------------------------
# stacked eigen layer against the per-matrix full-eigh oracle


@pytest.fixture(scope="module")
def baseline_windows():
    """Training windows 0, 33, 66 and 99 of the 100-window backtest on the
    first 272 weeks of the seed-0 paper panel."""
    ts, _, _ = simulate(SimSpec(dims=(9, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=342, seed=0))
    return [
        TensorSeries(ts.values[w : w + 171], ts.period_starts[w : w + 171], ts.provider_ids)
        for w in (0, 33, 66, 99)
    ]


@pytest.fixture
def aic_orders(monkeypatch):
    """Per-series AR orders chosen by every fit_ar_aic call, in call order."""
    orders: list[np.ndarray] = []
    real = forecast.fit_ar_aic

    def record(x, max_order):
        fit = real(x, max_order)
        orders.append(np.count_nonzero(fit.coeffs, axis=0))
        return fit

    monkeypatch.setattr(forecast, "fit_ar_aic", record)
    return orders


# Tolerances: the certified partial path puts VFM's vectors within 1e-12
# (sine of the angle) of the full eigh's; the largest forecast difference
# seen over every 10th window of the 342-week panel was 7.8e-14.
@pytest.mark.parametrize("stacked", [False, True], ids=["per-provider", "stacked"])
def test_vfm_matches_full_eigh_oracle(baseline_windows, stacked):
    for ys in baseline_windows:
        new = vfm_forecast(ys, 26, VFM(stacked=stacked)).values
        with full_eigh():
            old = vfm_forecast(ys, 26, VFM(stacked=stacked)).values
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-10)


@pytest.mark.parametrize("ncomp", [None, 4], ids=["auto", "four"])
def test_fpca_matches_per_slice_oracle(baseline_windows, aic_orders, ncomp):
    for ys in baseline_windows:
        new = fpca_forecast(ys, 26, FPCA(ncomp=ncomp)).values
        new_orders = np.concatenate(aic_orders)
        aic_orders.clear()
        old, counts = looped_fpca_forecast(ys, 26, ncomp=ncomp)
        old_orders = np.concatenate(aic_orders)
        aic_orders.clear()
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-10)
        assert new_orders.size and np.any(new_orders > 0)
        np.testing.assert_array_equal(new_orders, old_orders)

        x = standardize(ys, cell_standardization(ys.values)).values
        _, _, eigvals, _ = _centred_pca(x.reshape(171, -1, 24).swapaxes(0, 1), 24)
        assert _component_count(eigvals, ncomp, 24).tolist() == counts
