"""Factor forecasting: seasonal decomposition plus AR extrapolation.

Each scalar factor coordinate series is handled the same way: estimate a
deterministic seasonal component with the classical additive decomposition,
fit an autoregression to the seasonally adjusted series (trend is left in, so
low-frequency movement is extrapolated rather than frozen), forecast
recursively, and add the seasonal index of each future position back.
Observation-space forecasts then reapply the loadings and the per-cell
standardization, the same reconstruction used for in-sample fitted values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor_model import FactorSeries, LoadingSet, fitted_values
from .panel import Standardization, TensorSeries

__all__ = [
    "SeasonalDecomp",
    "AR1Fit",
    "ARFit",
    "classical_decompose",
    "fit_ar1",
    "forecast_ar1",
    "fit_ar",
    "fit_ar_aic",
    "forecast_ar",
    "forecast_series",
    "future_starts",
    "forecast_factors",
    "forecast_observations",
]

# A seasonally adjusted series with relative spread below this is treated as
# constant and forecast flat; AR(1) least squares is undefined there.
_FLAT_TOLERANCE = 1e-12

SCORE_MODELS = ("ar1", "ar_aic")


@dataclass
class SeasonalDecomp:
    """Additive decomposition x = trend + seasonal[t mod m] + remainder."""

    period: int
    seasonal: np.ndarray  # length m, sums to zero
    trend: np.ndarray  # length T, edges filled with nearest interior value
    remainder: np.ndarray  # length T


@dataclass(frozen=True)
class AR1Fit:
    """First-order autoregression x_t = c + phi x_{t-1} + e_t."""

    c: float
    phi: float
    variance: float


@dataclass(frozen=True)
class ARFit:
    """Autoregression of order p: x_t = c + sum_i coeffs[i] x_{t-1-i} + e_t."""

    intercept: float
    coeffs: tuple[float, ...]
    variance: float

    @property
    def order(self) -> int:
        return len(self.coeffs)


def classical_decompose(x: np.ndarray, period: int) -> SeasonalDecomp:
    """Classical additive decomposition with a centered moving-average trend.

    For even periods the trend uses the standard 2 x m average (window m+1
    with half weights at the ends). Seasonal indices are positionwise means of
    the detrended interior, re-centered to sum to zero. Trend edges are filled
    with the nearest defined value; the remainder uses the filled trend.
    """
    x = np.asarray(x, dtype=float)
    m = int(period)
    t = len(x)
    if m < 2:
        raise ValueError(f"period must be >= 2, got {m}")
    if t < 2 * m:
        raise ValueError(f"need at least {2 * m} points for period {m}, got {t}")

    if m % 2 == 0:
        weights = np.full(m + 1, 1.0 / m)
        weights[0] = weights[-1] = 0.5 / m
    else:
        weights = np.full(m, 1.0 / m)
    half = len(weights) // 2
    trend = np.full(t, np.nan)
    trend[half : t - half] = np.convolve(x, weights, mode="valid")

    interior = slice(half, t - half)
    detrended = x[interior] - trend[interior]
    positions = np.arange(half, t - half) % m
    seasonal = np.array([detrended[positions == p].mean() for p in range(m)])
    seasonal -= seasonal.mean()

    trend[:half] = trend[half]
    trend[t - half :] = trend[t - half - 1]
    remainder = x - trend - seasonal[np.arange(t) % m]
    return SeasonalDecomp(period=m, seasonal=seasonal, trend=trend, remainder=remainder)


def fit_ar1(x: np.ndarray) -> AR1Fit:
    """Conditional least squares for x_t = c + phi x_{t-1} + e_t.

    The innovation variance is the residual mean square. A constant series
    (zero lagged-regressor variance) is an error.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 3:
        raise ValueError(f"need at least 3 observations, got {len(x)}")
    lag, y = x[:-1], x[1:]
    if np.ptp(lag) == 0.0:
        raise ValueError("constant series: lagged regressor has zero variance")
    design = np.column_stack([np.ones(len(lag)), lag])
    (c, phi), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ (c, phi)
    return AR1Fit(c=float(c), phi=float(phi), variance=float(np.mean(resid**2)))


def forecast_ar1(fit: AR1Fit, last: float, n: int) -> np.ndarray:
    """Recursive n-step forecast: xhat_h = c + phi xhat_{h-1}, seeded by last."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    out = np.empty(n)
    current = float(last)
    for h in range(n):
        current = fit.c + fit.phi * current
        out[h] = current
    return out


def _ar_design(x: np.ndarray, order: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    y = x[start:]
    cols = [np.ones(len(y))] + [x[start - i : len(x) - i] for i in range(1, order + 1)]
    return np.column_stack(cols), y


def fit_ar(x: np.ndarray, order: int) -> ARFit:
    """Conditional least squares for an AR(order) with intercept; order 0 is
    the mean model."""
    x = np.asarray(x, dtype=float)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if len(x) < order + 2:
        raise ValueError(f"need at least {order + 2} observations for order {order}")
    design, y = _ar_design(x, order, order)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    return ARFit(
        intercept=float(beta[0]),
        coeffs=tuple(float(b) for b in beta[1:]),
        variance=float(np.mean(resid**2)),
    )


def fit_ar_aic(x: np.ndarray, max_order: int = 5) -> ARFit:
    """AR with the order (0..max_order) chosen by AIC on a common sample.

    All candidate orders are scored on the observations from max_order
    onward so their likelihoods are comparable; the winner is refit on the
    full series. Ties go to the smaller order.
    """
    x = np.asarray(x, dtype=float)
    pmax = max(0, min(int(max_order), (len(x) - 2) // 2))
    aics = []
    for p in range(pmax + 1):
        design, y = _ar_design(x, p, pmax)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        sigma2 = float(np.mean((y - design @ beta) ** 2))
        n_eff = len(y)
        aic = (n_eff * np.log(sigma2) if sigma2 > 0 else -np.inf) + 2 * (p + 1)
        aics.append(aic)
    best = int(np.argmin(aics))
    return fit_ar(x, best)


def forecast_ar(fit: ARFit, history: np.ndarray, n: int) -> np.ndarray:
    """Recursive n-step forecast from the last `order` observed values."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    history = np.asarray(history, dtype=float)
    if len(history) < fit.order:
        raise ValueError(f"need {fit.order} trailing values, got {len(history)}")
    window = list(history[len(history) - fit.order :])
    out = np.empty(n)
    for h in range(n):
        value = fit.intercept + sum(c * window[-1 - i] for i, c in enumerate(fit.coeffs))
        out[h] = value
        window.append(value)
    return out


def forecast_series(
    x: np.ndarray, period: int, n: int, score_model: str = "ar1", max_order: int = 5
) -> np.ndarray:
    """Deseasonalize, extrapolate, and re-seasonalize each series of a block.

    x is (T, ...) and every trailing coordinate is one scalar series, forecast
    on its own; the result is (n, ...), so a 1-D x gives an (n,) forecast.
    The autoregression sees a series minus its seasonal component (trend
    included). A numerically constant adjusted series gets a flat mean
    forecast, the exact extrapolation of a purely seasonal signal. Future
    positions T+h carry the seasonal index at (T+h-1) mod period.
    """
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if score_model not in SCORE_MODELS:
        raise ValueError(f"unknown score model {score_model!r}")
    x = np.asarray(x, dtype=float)
    t = x.shape[0]
    series = x.reshape(t, -1)
    out = np.empty((n, series.shape[1]))
    for j in range(series.shape[1]):
        seasonal = classical_decompose(series[:, j], period).seasonal
        adjusted = series[:, j] - seasonal[np.arange(t) % period]
        if np.ptp(adjusted) <= _FLAT_TOLERANCE * max(1.0, float(np.max(np.abs(adjusted)))):
            extrapolated = float(np.mean(adjusted))
        elif score_model == "ar1":
            extrapolated = forecast_ar1(fit_ar1(adjusted), adjusted[-1], n)
        else:
            extrapolated = forecast_ar(fit_ar_aic(adjusted, max_order), adjusted, n)
        out[:, j] = extrapolated + seasonal[(t + np.arange(n)) % period]
    return out.reshape(n, *x.shape[1:])


def future_starts(period_starts: np.ndarray, n: int) -> np.ndarray:
    """Starts of the n periods after an evenly spaced series of period starts."""
    if len(period_starts) < 2:
        raise ValueError("need at least 2 periods to infer the period spacing")
    steps = np.diff(period_starts)
    if steps[0] <= 0:
        raise ValueError(f"period starts must increase, got a step of {steps[0]}")
    uneven = np.flatnonzero(steps != steps[0])
    if uneven.size:
        i = int(uneven[0]) + 1
        raise ValueError(
            f"period starts are not evenly spaced: start {i} ({period_starts[i]}) "
            f"follows its predecessor by {steps[i - 1]}, not {steps[0]}"
        )
    return period_starts[-1] + steps[0] * np.arange(1, n + 1)


def forecast_factors(
    f: FactorSeries,
    n: int,
    period: int = 52,
    score_model: str = "ar1",
    max_order: int = 5,
) -> FactorSeries:
    """Forecast every factor coordinate independently n periods ahead.

    values[h-1] of the result predicts period T+h.
    """
    return FactorSeries(
        values=forecast_series(f.values, period, n, score_model, max_order),
        period_starts=future_starts(f.period_starts, n),
        provider_ids=list(f.provider_ids),
    )


def forecast_observations(
    ff: FactorSeries, loadings: LoadingSet, z: Standardization
) -> TensorSeries:
    """Observation-space forecasts: the in-sample reconstruction
    (fitted_values) applied to forecast factor tensors."""
    return fitted_values(ff, loadings, z)
