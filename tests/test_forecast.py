"""Seasonal decomposition, AR fitting, and forecasting tests."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    chunked_forecast_series,
    make_series,
    noiseless_series,
    padded_classical_decompose,
    random_loading_set,
    recorded_score_blocks,
    scalar_adjusted,
    scalar_classical_decompose,
    scalar_fit_ar,
    scalar_fit_ar_aic,
    scalar_forecast_series,
    weekly_starts,
)
from tensorcast import forecast
from tensorcast.evaluation import SimSpec, make_benchmark_forecaster, simulate
from tensorcast.factor_model import (
    FactorSeries,
    Ranks,
    extract_factors,
    fit_factor_model,
    reconstruct_common,
)
from tensorcast.forecast import (
    ARFit,
    ScoreModel,
    classical_decompose,
    fit_ar,
    fit_ar1,
    fit_ar_aic,
    forecast_ar,
    forecast_ar1,
    forecast_factors,
    forecast_observations,
    forecast_series,
    future_starts,
)
from tensorcast.benchmarks import FPCA, MFM, VFM, fpca_forecast, mfm_forecast, vfm_forecast
from tensorcast.panel import Standardization, TensorSeries, destandardize


def _ar1(c: float, phi: float) -> ARFit:
    """A one-series AR(1) fit."""
    return ARFit(intercept=np.array([c]), coeffs=np.array([[phi]]))


def _residual_variance(fit: ARFit, x: np.ndarray) -> float:
    """Mean squared one-step residual of a one-series fit on its (T, 1) sample."""
    p = fit.order
    pred = fit.intercept[0] + sum(fit.coeffs[i, 0] * x[p - 1 - i : len(x) - 1 - i, 0]
                                  for i in range(p))
    return float(np.mean((x[p:, 0] - pred) ** 2))


@pytest.mark.parametrize(
    "stage",
    [
        lambda x: classical_decompose(x, 4),
        lambda x: fit_ar(x, 1),
        fit_ar1,
        lambda x: fit_ar_aic(x, 2),
        lambda x: forecast_ar(_ar1(0.0, 0.5), x, 3),
        lambda x: forecast_ar1(_ar1(0.0, 0.5), x[-1], 3),
    ],
    ids=["classical_decompose", "fit_ar", "fit_ar1", "fit_ar_aic", "forecast_ar", "forecast_ar1"],
)
def test_stage_functions_take_only_a_block(stage):
    # One shape check, ahead of every other rule: a constant 1-D series
    # would otherwise fail fit_ar1's constant-series rule.
    x = np.random.default_rng(2).standard_normal(40).cumsum()
    for bad in (x, np.full(40, 1.0), x.reshape(40, 1, 1)):
        with pytest.raises(ValueError, match=r"expected a \(T, k\) block of series"):
            stage(bad)
    stage(x[:, None])


class TestClassicalDecompose:
    def test_pure_seasonal_signal(self):
        s = np.array([1.0, -2.0, 0.5, 0.5])
        x = s[np.arange(16) % 4, None]
        np.testing.assert_allclose(classical_decompose(x, 4), s[:, None], atol=1e-12)

    def test_linear_trend_no_seasonality(self):
        t = np.arange(20, dtype=float)
        x = 3.0 + 0.7 * t[:, None]
        # A centered moving average reproduces a linear function exactly, so
        # nothing of the line is left in the seasonal indices.
        np.testing.assert_allclose(classical_decompose(x, 4), 0.0, atol=1e-10)

    def test_composite_signal_recovery(self):
        rng = np.random.default_rng(0)
        m, t = 52, 208
        s = rng.standard_normal(m)
        s -= s.mean()
        trend = 1.5 + 0.02 * np.arange(t)
        x = trend + s[np.arange(t) % m]
        np.testing.assert_allclose(classical_decompose(x[:, None], m), s[:, None], atol=1e-9)

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="need at least 8 points"):
            classical_decompose(np.zeros((7, 1)), 4)

    def test_seasonal_sums_to_zero_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 1))
        seasonal = classical_decompose(x, 5)
        assert abs(seasonal.sum()) < 1e-10
        np.testing.assert_allclose(classical_decompose(x + 17.0, 5), seasonal, atol=1e-10)


class TestFitAr1:
    def test_deterministic_halving_recursion(self):
        x = 0.5 ** np.arange(30)[:, None]
        fit = fit_ar1(x)
        assert abs(fit.coeffs[0, 0] - 0.5) < 1e-12
        assert abs(fit.intercept[0]) < 1e-12
        assert _residual_variance(fit, x) < 1e-12

    def test_recovers_simulated_coefficient(self):
        rng = np.random.default_rng(3)
        x = np.empty(2000)
        x[0] = 0.0
        for t in range(1, 2000):
            x[t] = 1.0 + 0.7 * x[t - 1] + rng.standard_normal()
        fit = fit_ar1(x[:, None])
        assert abs(fit.coeffs[0, 0] - 0.7) < 0.05

    def test_constant_series_errors(self):
        with pytest.raises(ValueError, match="constant"):
            fit_ar1(np.full((10, 1), 2.5))

    def test_too_short_errors(self):
        # fit_ar1 applies fit_ar's rule before its constant-regressor check.
        for x in (np.array([[1.0], [2.0]]), np.array([[1.0]])):
            for fit in (lambda x: fit_ar(x, 1), fit_ar1):
                with pytest.raises(ValueError, match="need at least 3 observations for order 1"):
                    fit(x)


class TestForecastAr1:
    def test_phi_zero_forecasts_mean(self):
        out = forecast_ar1(_ar1(3.0, 0.0), last=np.array([100.0]), n=4)
        np.testing.assert_array_equal(out, np.full((4, 1), 3.0))

    def test_random_walk_forecasts_flat(self):
        out = forecast_ar1(_ar1(0.0, 1.0), last=np.array([7.0]), n=5)
        np.testing.assert_array_equal(out, np.full((5, 1), 7.0))

    def test_halving_recursion(self):
        out = forecast_ar1(_ar1(0.0, 0.5), last=np.array([8.0]), n=3)
        np.testing.assert_array_equal(out, [[4.0], [2.0], [1.0]])

    def test_converges_to_stationary_mean(self):
        c, phi, last = 2.0, 0.8, 11.0
        mean = c / (1 - phi)
        out = forecast_ar1(_ar1(c, phi), last=np.array([last]), n=60)
        for h in (1, 10, 30, 60):
            assert abs(out[h - 1, 0] - mean) < abs(phi) ** h * abs(last - mean) + 1e-12

    @pytest.mark.parametrize("forecast_fn, history",
                             [(forecast_ar, np.ones((20, 3))), (forecast_ar1, np.ones(3))])
    def test_fit_and_history_widths_must_match(self, forecast_fn, history):
        fit = ARFit(np.zeros(2), np.full((1, 2), 0.5))
        with pytest.raises(ValueError, match="fit has 2 series, history has 3"):
            forecast_fn(fit, history, 4)


class TestFitArGeneral:
    def test_ar0_is_mean_model(self):
        x = np.array([[1.0], [3.0], [5.0], [3.0]])
        fit = fit_ar(x, 0)
        assert fit.order == 0
        assert fit.intercept[0] == pytest.approx(3.0)
        np.testing.assert_array_equal(forecast_ar(fit, x, 3), np.full((3, 1), fit.intercept))

    def test_order_one_matches_fit_ar1(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 1)).cumsum(axis=0)
        fit, direct = fit_ar1(x), fit_ar(x, 1)
        for name in ("intercept", "coeffs"):
            assert np.array_equal(getattr(fit, name), getattr(direct, name)), name
        np.testing.assert_array_equal(forecast_ar1(fit, x[-1], 6), forecast_ar(fit, x, 6))

    def test_exact_ar2_recursion_recovered(self):
        x = np.empty((40, 1))
        x[0], x[1] = 1.0, 0.5
        for t in range(2, 40):
            x[t] = 0.3 + 0.6 * x[t - 1] - 0.2 * x[t - 2]
        fit = fit_ar(x, 2)
        np.testing.assert_allclose(fit.coeffs[:, 0], (0.6, -0.2), atol=1e-8)
        assert _residual_variance(fit, x) < 1e-12

    def test_aic_prefers_small_order_for_constants_and_finds_structure(self):
        # A block fit pads every column's coefficients to the largest
        # candidate order; order 0 leaves them all zero.
        fit = fit_ar_aic(np.full((30, 1), 4.0), 5)
        assert not fit.coeffs.any() and fit.intercept[0] == pytest.approx(4.0)
        rng = np.random.default_rng(5)
        x = np.empty((400, 1))
        x[0] = x[1] = 0.0
        for t in range(2, 400):
            x[t] = 0.5 * x[t - 1] + 0.3 * x[t - 2] + 0.1 * rng.standard_normal()
        assert fit_ar_aic(x, 5).coeffs.any()

    def test_block_fits_match_the_scalar_oracle_per_column(self):
        x = _mixed_block(120, 8, 4)[:, np.arange(8) % 5 != 4]
        for order in (0, 1, 3):
            fit = fit_ar(x, order)
            for j in range(x.shape[1]):
                oracle = scalar_fit_ar(x[:, j], order)
                for name in ("intercept", "coeffs"):
                    np.testing.assert_allclose(getattr(fit, name)[..., j], getattr(oracle, name)[..., 0],
                                               rtol=1e-9, atol=1e-12, err_msg=name)


class TestForecastSeries:
    def test_purely_seasonal_series(self):
        m = 6
        s = np.array([2.0, -1.0, 0.5, -0.5, -2.0, 1.0])
        x = 3.0 + s[np.arange(24) % m]
        out = forecast_series(x, 8, score=ScoreModel(period=m))
        expected = 3.0 + s[(24 + np.arange(8)) % m]
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_ar_only_series_matches_direct_ar1(self):
        # A drift line x_t = a + b t is an exact AR(1) recursion (phi=1, c=b)
        # and the one AR path whose decomposition seasonal vanishes: the
        # centered moving average reproduces a line exactly, so nothing leaks
        # into the seasonal indices. (A decaying |phi|<1 transient would leak
        # into the trend windows and violate the seasonal-free premise.)
        t = 156
        x = 2.0 + 0.03 * np.arange(t)
        direct = forecast_ar1(fit_ar1(x[:, None]), x[-1:], 4)[:, 0]
        via_decomposition = forecast_series(x, 4, score=ScoreModel(period=52))
        np.testing.assert_allclose(via_decomposition, direct, atol=1e-6)

    def test_zero_series_forecasts_zero(self):
        out = forecast_series(np.zeros(30), 5, score=ScoreModel(period=4))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_unknown_score_model_is_rejected_even_on_flat_data(self):
        with pytest.raises(ValueError, match="unknown score model 'bogus'"):
            ScoreModel(period=4, kind="bogus")

    @pytest.mark.parametrize("score_model", ["ar1", "ar_aic"])
    def test_block_forecasts_each_column_as_its_own_series(self, score_model):
        rng = np.random.default_rng(3)
        t, m = 40, 4
        block = np.empty((t, 3))
        block[:, 0] = rng.standard_normal(t).cumsum()
        block[:, 1] = 2.0 + np.array([1.0, -1.0, 0.5, -0.5])[np.arange(t) % m]  # flat once adjusted
        block[:, 2] = rng.standard_normal(t)
        score = ScoreModel(period=m, kind=score_model, max_order=2)
        out = forecast_series(block, 5, score=score)
        assert out.shape == (5, 3)
        for j in range(3):
            single = forecast_series(block[:, j], 5, score=score)
            assert np.array_equal(out[:, j], single)
        tensor = forecast_series(block.reshape(t, 1, 3), 5, score=score)
        assert np.array_equal(tensor, out.reshape(5, 1, 3))


def _mixed_block(t: int, k: int, period: int) -> np.ndarray:
    """(t, k) score block cycling through five kinds of series, column j of
    kind j % 5: random walk, AR(2), AR(3), white noise, and a seasonal
    pattern that is flat once adjusted."""
    rng = np.random.default_rng(31)
    kind = np.arange(k) % 5
    block = rng.standard_normal((t, k))
    block[:, kind == 0] = block[:, kind == 0].cumsum(axis=0)
    for which, phi in ((1, (0.6, -0.5)), (2, (0.3, 0.2, -0.6))):
        cols = kind == which
        for s in range(1, t):
            block[s, cols] += sum(c * block[s - 1 - i, cols] for i, c in enumerate(phi) if s > i)
    flat = kind == 4
    pattern = rng.standard_normal((period, np.count_nonzero(flat)))
    block[:, flat] = np.flatnonzero(flat) + pattern[np.arange(t) % period]
    return block


@pytest.mark.parametrize("score_model", ["ar1", "ar_aic"])
def test_block_forecast_is_bit_identical_across_chunk_boundaries(score_model):
    # 300 series span ten design chunks; columns 31, 32 and 33 straddle the
    # first boundary and 299 is the last series of a short final chunk.
    t, period = 120, 4
    block = _mixed_block(t, 300, period)
    score = ScoreModel(period=period, kind=score_model, max_order=4)
    out = forecast_series(block, 7, score=score)
    for j in range(300):
        assert np.array_equal(out[:, j], forecast_series(block[:, j], 7, score=score)), j
    seasonal = classical_decompose(block, period)
    adjusted = block - seasonal[np.arange(t) % period]
    coeffs = fit_ar_aic(adjusted[:, np.arange(300) % 5 != 4], 4).coeffs
    orders = np.max(np.arange(1, 5)[:, None] * (coeffs != 0), axis=0, initial=0)
    assert len(np.unique(orders)) >= 3
    assert forecast_series(np.empty((t, 0)), 7, score=score).shape == (7, 0)


@pytest.mark.parametrize("score_model", ["ar1", "ar_aic"])
def test_score_model_accepts_numpy_integer_settings(score_model):
    block = _mixed_block(40, 5, 4)
    plain = ScoreModel(period=4, kind=score_model, max_order=2)
    numpy_ints = ScoreModel(period=np.int64(4), kind=score_model, max_order=np.int32(2))
    assert np.array_equal(forecast_series(block, 3, score=numpy_ints),
                          forecast_series(block, 3, score=plain))


class TestForecastFactors:
    def test_periodic_factors_forecast_exactly(self):
        t, m = 24, 6
        vals = np.empty((t, 1, 1, 2))
        vals[:, 0, 0, 0] = np.sin(2 * np.pi * np.arange(t) / m) + 2.0
        vals[:, 0, 0, 1] = np.cos(2 * np.pi * np.arange(t) / m) - 1.0
        f = FactorSeries(
            values=vals,
            period_starts=np.datetime64("2020-01-06T00", "h")
            + (168 * np.arange(t)).astype("timedelta64[h]"),
            provider_ids=["p"],
        )
        ff = forecast_factors(f, n=4, score=ScoreModel(period=m))
        # Horizon h predicts the series continuation at 0-based index t-1+h.
        future = t + np.arange(4)
        expected = np.empty((4, 1, 1, 2))
        expected[:, 0, 0, 0] = np.sin(2 * np.pi * future / m) + 2.0
        expected[:, 0, 0, 1] = np.cos(2 * np.pi * future / m) - 1.0
        np.testing.assert_allclose(ff.values, expected, atol=1e-8)
        assert str(ff.period_starts[0]) > str(f.period_starts[-1])

    def test_zero_factors_forecast_zero(self):
        f = FactorSeries(
            values=np.zeros((20, 2, 1, 1)),
            period_starts=np.datetime64("2020-01-06T00", "h")
            + (168 * np.arange(20)).astype("timedelta64[h]"),
            provider_ids=["p"],
        )
        ff = forecast_factors(f, n=3, score=ScoreModel(period=4))
        np.testing.assert_array_equal(ff.values, np.zeros((3, 2, 1, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((30, 2, 1, 2))
        f = FactorSeries(
            values=vals,
            period_starts=np.datetime64("2020-01-06T00", "h")
            + (168 * np.arange(30)).astype("timedelta64[h]"),
            provider_ids=["p"],
        )
        a = forecast_factors(f, n=5, score=ScoreModel(period=4))
        b = forecast_factors(f, n=5, score=ScoreModel(period=4))
        assert a.values.tobytes() == b.values.tobytes()


class TestForecastObservations:
    def test_zero_factor_forecast_returns_mu(self):
        rng = np.random.default_rng(7)
        loadings = random_loading_set(rng, (3, 4, 5), (1, 1, 1))
        z = Standardization(
            mu=rng.uniform(10, 20, (3, 4, 5)), sigma=rng.uniform(0.5, 2, (3, 4, 5))
        )
        ff = FactorSeries(
            values=np.zeros((2, 1, 1, 1)),
            period_starts=np.zeros(2, dtype="datetime64[h]"),
            provider_ids=["a", "b", "c"],
        )
        out = forecast_observations(ff, loadings, z)
        np.testing.assert_array_equal(out.values, np.broadcast_to(z.mu, (2, 3, 4, 5)))

    def test_same_reconstruction_as_fitted_values(self):
        # In-sample fitted values: the common component, destandardized.
        rng = np.random.default_rng(8)
        loadings = random_loading_set(rng, (4, 3, 5), (2, 1, 2))
        factors = rng.standard_normal((6, 2, 1, 2))
        z = Standardization(mu=rng.uniform(1, 2, (4, 3, 5)), sigma=rng.uniform(0.5, 2, (4, 3, 5)))
        starts = np.zeros(6, dtype="datetime64[h]")
        f = FactorSeries(values=factors, period_starts=starts, provider_ids=list("abcd"))
        common = TensorSeries(reconstruct_common(factors, loadings), starts, list("abcd"))
        a = destandardize(common, z).values
        b = forecast_observations(f, loadings, z).values
        assert a.tobytes() == b.tobytes()

    def test_noiseless_periodic_system_one_step_ahead(self):
        # Exactly periodic factors, noiseless observations: the pipeline must
        # predict the next tensor almost exactly.
        rng = np.random.default_rng(9)
        t, m = 157, 52
        dims, ranks = (5, 4, 6), (1, 1, 2)
        loadings = random_loading_set(rng, dims, ranks)
        grid = np.arange(t)
        factors = np.empty((t, *ranks))
        factors[:, 0, 0, 0] = np.sin(2 * np.pi * grid / m) + 2.0
        factors[:, 0, 0, 1] = np.cos(2 * np.pi * grid / m) - 1.0
        values = reconstruct_common(factors, loadings)
        mu = rng.uniform(50, 100, dims)
        sigma = rng.uniform(0.5, 2.0, dims)
        raw = destandardize(make_series(values), Standardization(mu=mu, sigma=sigma))

        train = make_series(raw.values[: t - 1])
        model, fitted_factors = fit_factor_model(train, Ranks(*ranks[:1], ranks[1:]))
        ff = forecast_factors(fitted_factors, n=1, score=ScoreModel(period=m))
        pred = forecast_observations(ff, model.loadings, model.standardization)
        truth = raw.values[t - 1]
        rel = np.linalg.norm(pred.values[0] - truth) / np.linalg.norm(truth)
        assert rel < 1e-6


def test_future_starts_continue_even_spacing_and_reject_irregular_starts():
    starts = weekly_starts(6)
    expected = starts[-1] + (168 * np.arange(1, 4)).astype("timedelta64[h]")
    np.testing.assert_array_equal(future_starts(starts, 3), expected)
    with pytest.raises(ValueError, match="at least 2 periods"):
        future_starts(starts[:1], 3)
    for stalled in (starts[::-1], np.repeat(starts[:1], 6)):
        with pytest.raises(ValueError, match="must increase"):
            future_starts(stalled, 3)

    irregular = starts.copy()
    irregular[4:] += np.timedelta64(1, "h")
    with pytest.raises(ValueError, match=r"not evenly spaced: start 4 "):
        future_starts(irregular, 3)
    # Every forecaster takes its future starts from the one rule.
    rng = np.random.default_rng(40)
    factors = FactorSeries(values=rng.standard_normal((6, 1, 1)), period_starts=irregular,
                           provider_ids=["P0"])
    with pytest.raises(ValueError, match=r"not evenly spaced: start 4 "):
        forecast_factors(factors, 2, score=ScoreModel(period=2))
    ts = TensorSeries(rng.standard_normal((6, 1, 3, 4)), irregular, ["P0"])
    for forecaster, record in ((mfm_forecast, MFM), (vfm_forecast, VFM), (fpca_forecast, FPCA)):
        with pytest.raises(ValueError, match=r"not evenly spaced: start 4 "):
            forecaster(ts, 2, record(score=ScoreModel(period=2)))


# ---------------------------------------------------------------------------
# The batched forecaster against the scalar oracle (tests/helpers.py)

# Stacked QR least squares and cumulative-sum trends reorder the scalar path's
# floating-point sums; forecasts agree to this absolute tolerance.
ORACLE_TOLERANCE = 1e-10


def _forecast_test_series():
    """(x, period, max_order) of the series the forecast tests above use."""
    rng = np.random.default_rng(3)
    seasonal = np.array([2.0, -1.0, 0.5, -0.5, -2.0, 1.0])
    block = np.empty((40, 3))
    block[:, 0] = rng.standard_normal(40).cumsum()
    block[:, 1] = 2.0 + np.array([1.0, -1.0, 0.5, -0.5])[np.arange(40) % 4]
    block[:, 2] = rng.standard_normal(40)
    grid = np.arange(24)
    periodic = np.stack([np.sin(2 * np.pi * grid / 6) + 2.0, np.cos(2 * np.pi * grid / 6) - 1.0], 1)
    return [
        (3.0 + seasonal[np.arange(24) % 6], 6, 5),
        (2.0 + 0.03 * np.arange(156), 52, 5),
        (np.zeros(30), 4, 5),
        (block, 4, 2),
        (periodic, 6, 5),
        (np.random.default_rng(6).standard_normal((30, 2, 1, 2)), 4, 5),
    ]


@pytest.mark.parametrize("score_model", ["ar1", "ar_aic"])
def test_forecast_series_matches_scalar_oracle_on_forecast_test_series(score_model):
    for x, period, max_order in _forecast_test_series():
        score = ScoreModel(period, score_model, max_order)
        batched = forecast_series(x, 26, score=score)
        scalar = scalar_forecast_series(x, 26, score=score)
        assert batched.shape == scalar.shape
        assert np.max(np.abs(batched - scalar)) <= ORACLE_TOLERANCE


@pytest.mark.parametrize("t, period", [(40, 5), (30, 4), (208, 52)])
def test_block_decomposition_matches_scalar_per_column(t, period):
    block = np.random.default_rng(t).standard_normal((t, 3)).cumsum(axis=0)
    seasonal = classical_decompose(block, period)
    assert seasonal.shape == (period, 3)
    for j in range(3):
        assert np.max(np.abs(seasonal[:, j] - scalar_classical_decompose(block[:, j], period))) <= 1e-12


def test_decomposition_is_bit_identical_to_the_padded_layout():
    # Reports stay byte-identical only if the in-place decomposition adds the
    # same values in the same order as the zero-padded cycle layout.
    rng = np.random.default_rng(5)
    for m in (2, 3, 7, 12, 24, 52):
        for t in sorted({2 * m, 2 * m + 1, 2 * m + m // 2, 3 * m - 1, 171, 200}):
            x = rng.standard_normal((t, 4)).cumsum(axis=0)
            expected = padded_classical_decompose(x, m)
            assert np.array_equal(classical_decompose(x, m), expected), (m, t)


@pytest.fixture(scope="module")
def baseline_score_blocks():
    """forecast_series calls of MFM, VFM and FPCA (4 components, as in the
    backtest-baselines benchmark) on windows 0, 33, 66 and 99 of the seed-0
    paper panel: 171 training weeks, 26 steps ahead."""
    ts = simulate(SimSpec(dims=(9, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=342, seed=0))[0]
    handles = {
        "MFM": make_benchmark_forecaster("MFM"),
        "VFM": make_benchmark_forecaster("VFM"),
        "FPCA": make_benchmark_forecaster("FPCA", ncomp=4),
    }
    calls = {}
    for w in (0, 33, 66, 99):
        train = TensorSeries(ts.values[w : w + 171], ts.period_starts[w : w + 171], ts.provider_ids)
        for name, handle in handles.items():
            with recorded_score_blocks() as recorded:
                handle(train, 26)
            calls[name, w] = recorded
    return calls


def test_baselines_forecast_all_scores_of_a_window_in_one_call(baseline_score_blocks):
    widths = {name: recorded[0][0].reshape(171, -1).shape[1]
              for (name, _), recorded in baseline_score_blocks.items()}
    assert all(len(recorded) == 1 for recorded in baseline_score_blocks.values())
    assert widths == {"MFM": 9 * 2, "VFM": 9 * 2, "FPCA": 9 * 7 * 4}


@pytest.mark.parametrize("score_model", ["ar1", "ar_aic"])
def test_forecast_series_matches_scalar_oracle_on_baseline_score_blocks(
    baseline_score_blocks, score_model
):
    for recorded in baseline_score_blocks.values():
        x, n, score = recorded[0]
        score = replace(score, kind=score_model)
        batched = forecast_series(x, n, score=score)
        scalar = scalar_forecast_series(x, n, score=score)
        assert np.max(np.abs(batched - scalar)) <= ORACLE_TOLERANCE


@pytest.mark.parametrize("score_model", ["ar1", "ar_aic"])
def test_forecast_series_matches_chunked_oracle_on_baseline_score_blocks(
    baseline_score_blocks, score_model
):
    for recorded in baseline_score_blocks.values():
        x, n, score = recorded[0]
        score = replace(score, kind=score_model)
        assert np.array_equal(forecast_series(x, n, score=score),
                              chunked_forecast_series(x, n, score=score))


def test_fpca_aic_orders_match_scalar_oracle(baseline_score_blocks):
    for (name, _), recorded in baseline_score_blocks.items():
        if name != "FPCA":
            continue
        x, _, score = recorded[0]
        period, max_order = score.period, score.max_order
        assert score.kind == "ar_aic"
        seasonal = classical_decompose(x, period)
        coeffs = fit_ar_aic(x - seasonal[np.arange(len(x)) % period], max_order).coeffs
        # Block fits zero-pad each series' coefficients to the largest order.
        batched = np.max(np.arange(1, len(coeffs) + 1)[:, None] * (coeffs != 0), axis=0, initial=0)
        scalar = []
        for column in x.T:
            _, adjusted, flat = scalar_adjusted(column, period)
            assert not flat
            scalar.append(scalar_fit_ar_aic(adjusted, max_order).order)
        np.testing.assert_array_equal(batched, scalar)


@pytest.mark.parametrize(
    "score_model, stages",
    [
        ("ar1", {"classical_decompose", "fit_ar1", "fit_ar", "forecast_ar1", "forecast_ar"}),
        ("ar_aic", {"classical_decompose", "fit_ar_aic", "fit_ar", "forecast_ar"}),
    ],
)
def test_forecast_series_runs_the_traced_stage_functions(monkeypatch, score_model, stages):
    # The benchmark's traced runs time these names and fail when one never
    # fires, so forecast_series must reach them through the module namespace.
    called = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            called[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("classical_decompose", "fit_ar1", "forecast_ar1", "fit_ar_aic", "fit_ar",
                 "forecast_ar"):
        monkeypatch.setattr(forecast, name, counted(name, getattr(forecast, name)))
    block = np.random.default_rng(20).standard_normal((40, 3)).cumsum(axis=0)
    forecast.forecast_series(block, 5, score=ScoreModel(period=4, kind=score_model, max_order=2))
    assert set(called) == stages


def test_ar_aic_block_runs_one_recursion_and_one_refit_per_order(
    monkeypatch, baseline_score_blocks
):
    x, n, score = baseline_score_blocks["FPCA", 0][0]
    assert x.reshape(171, -1).shape[1] == 252 and score.kind == "ar_aic"
    calls = {}

    def recorded(name, real):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return real(*args, **kwargs)

        return wrapper

    for name in ("fit_ar_aic", "fit_ar", "forecast_ar"):
        monkeypatch.setattr(forecast, name, recorded(name, getattr(forecast, name)))
    monkeypatch.setattr(np.linalg, "qr", recorded("qr", np.linalg.qr))
    forecast.forecast_series(x, n, score=score)
    assert len(calls["fit_ar_aic"]) == len(calls["forecast_ar"]) == 1
    refits = {order: block.shape[1] for block, order in calls["fit_ar"]}
    assert len(refits) == len(calls["fit_ar"]) <= score.max_order + 1
    assert sum(refits.values()) == 252
    bound = math.ceil(252 / 32) + sum(math.ceil(width / 32) for width in refits.values())
    assert len(calls["qr"]) <= bound
    assert max(len(stack) for stack, in calls["qr"]) <= 32


def forecast_series_peak(width: int, kind: str) -> int:
    """tracemalloc peak of a warm forecast_series call on a (171, width) block."""
    block = np.random.default_rng(21).standard_normal((171, width)).cumsum(axis=0)
    forecast_series(block, 26, score=ScoreModel(period=52, kind=kind))
    tracemalloc.start()
    try:
        forecast_series(block, 26, score=ScoreModel(period=52, kind=kind))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forecast_series_memory_is_bounded_by_its_chunks():
    # An unchunked (171, 252) ar_aic block stacks designs of about 7 MiB.
    # Width 300 holds the decomposition's block-sized temporaries to the
    # bound as well (at most three alive at once).
    for width in (252, 300):
        assert forecast_series_peak(width, "ar_aic") < 2 * 2**20, width


def test_forecast_series_ar1_memory_is_bounded_by_its_chunks():
    for width in (252, 300):
        assert forecast_series_peak(width, "ar1") < 2 * 2**20, width
