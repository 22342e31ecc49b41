"""Factor forecasting: seasonal decomposition plus AR extrapolation.

Each scalar factor coordinate series is handled the same way: estimate a
deterministic seasonal component with the classical additive decomposition,
fit an autoregression to the seasonally adjusted series (trend is left in, so
low-frequency movement is extrapolated rather than frozen), forecast
recursively, and add the seasonal index of each future position back.
forecast_observations then reapplies the loadings and the per-cell
standardization, to forecast factors as to in-sample ones.

forecast_series takes a whole (T, ...) block of score series, 1-D included,
and hands its stage functions the one shape they take, a (T, k) block; a
model forecasts all of a window's scores in one call. Every step is one
stacked pass over the block: the trend from cumulative sums, the seasonal
means summed cycle by cycle, the AIC scores of every order from one QR of
the augmented design, one batched QR refit per distinct order, and one
recursion; only _ar_factor builds its designs in chunks of _CHUNK series.
Sums over time run in a fixed order along each series and each design is
factored on its own, so a series' forecast does not depend on the block
around it. They run in a different order than a per-series loop
(np.convolve, np.linalg.lstsq), so results match that loop within 1e-10,
not byte for byte; the loop is the oracle in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor_model import FactorSeries, LoadingSet, reconstruct_common
from .panel import Standardization, TensorSeries, as_count, destandardize, period_step

__all__ = [
    "ARFit",
    "classical_decompose",
    "fit_ar1",
    "forecast_ar1",
    "fit_ar",
    "fit_ar_aic",
    "forecast_ar",
    "ScoreModel",
    "forecast_series",
    "future_starts",
    "forecast_factors",
    "forecast_observations",
]

# A seasonally adjusted series with relative spread below this is treated as
# constant and forecast flat; AR(1) least squares is undefined there.
_FLAT_TOLERANCE = 1e-12

# A residual sum of squares at most this fraction of the response's sum of
# squares is an exact fit: rounding, not a misfit. AIC scores it as -inf, so
# the smallest order that fits exactly wins.
_EXACT_FIT = 1e-28

# _ar_factor stacks and factors the least-squares designs of this many series
# at a time, which bounds them at a few hundred KiB for any block width.
_CHUNK = 32

SCORE_MODELS = ("ar1", "ar_aic")


@dataclass(frozen=True)
class ScoreModel:
    """Score-forecast settings: seasonal period, AR kind (one of SCORE_MODELS)
    and the largest order ar_aic may pick; bad settings fail when built."""

    period: int = 52
    kind: str = "ar1"
    max_order: int = 5

    def __post_init__(self):
        object.__setattr__(self, "period", as_count("period", self.period, 2))
        if self.kind not in SCORE_MODELS:
            raise ValueError(f"unknown score model {self.kind!r}")
        object.__setattr__(self, "max_order", as_count("max_order", self.max_order, 0))


@dataclass(frozen=True)
class ARFit:
    """Autoregressions of order p, one per column of a (T, k) block:
    x_t = intercept + sum_i coeffs[i] x_{t-1-i} + e_t.

    intercept is a (k,) array and coeffs is (p, k); a series of lower order
    than p has zeros in its trailing rows.
    """

    intercept: np.ndarray
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _block(x: np.ndarray) -> np.ndarray:
    """x as a float (T, k) block of series; any other shape is a ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a (T, k) block of series, got shape {x.shape}")
    return x


def _rows(x: np.ndarray) -> np.ndarray:
    """A (T, k) block as a C-contiguous (k, T) array, one series per row.

    Sums over time then run along the contiguous last axis, which numpy adds
    up the same way for one row or many: a series' result does not depend on
    the block it sits in.
    """
    return np.ascontiguousarray(x.T)


def classical_decompose(x: np.ndarray, period: int) -> np.ndarray:
    """Seasonal indices of the classical additive decomposition
    x = trend + seasonal[t mod m] + remainder, with a centered moving-average
    trend.

    x is a (T, k) block of series, each decomposed on its own; the result is
    (m, k). For even periods the trend uses the standard 2 x m average
    (window m+1 with half weights at the ends). Seasonal indices are
    positionwise means of the detrended interior, re-centered to sum to zero.
    """
    x = _block(x)
    m = as_count("period", period, 2)
    t = x.shape[0]
    if t < 2 * m:
        raise ValueError(f"need at least {2 * m} points for period {m}, got {t}")

    rows = _rows(x)
    k = rows.shape[0]
    half = m // 2
    csum = np.zeros((k, t + 1))
    np.cumsum(rows, axis=1, out=csum[:, 1:])
    window_sums = csum[:, m:] - csum[:, :-m]  # sums of m consecutive values
    del csum
    if m % 2 == 0:
        detrended = window_sums[:, :-1] + window_sums[:, 1:]
        detrended /= 2 * m
    else:
        detrended = window_sums
        detrended /= m
    del window_sums
    # The interior trend becomes the detrended interior in place; it starts
    # at position half, so cycle 0 fills positions half.. and each later
    # cycle adds its values one cycle at a time.
    np.subtract(rows[:, half : t - half], detrended, out=detrended)
    seasonal = np.zeros((k, m))
    seasonal[:, half:] = detrended[:, : m - half]
    for start in range(m - half, detrended.shape[1], m):
        cycle = detrended[:, start : start + m]
        seasonal[:, : cycle.shape[1]] += cycle
    seasonal /= np.bincount(np.arange(half, t - half) % m, minlength=m)
    seasonal -= seasonal.mean(axis=1, keepdims=True)
    return seasonal.T


def _ar_factor(rows: np.ndarray, order: int, start: int) -> np.ndarray:
    """Triangular factors of the stacked designs [1, x_{t-1}, ..., x_{t-order}, x_t]
    over t >= start, one per row of rows: (k, order + 2, order + 2).

    The leading (order + 1) block and the last column's head solve the least
    squares of x_t on the lags; the last column's squared entries below row i
    sum to the residual sum of squares of the order i - 1 regression. The
    designs are stacked and factored _CHUNK rows at a time.
    """
    k, t = rows.shape
    r = np.zeros((k, order + 2, order + 2))  # rows a short factor lacks: an exact fit
    for lo in range(0, k, _CHUNK):
        chunk = rows[lo : lo + _CHUNK]
        y = chunk[:, start:]
        lags = [chunk[:, start - i : t - i] for i in range(1, order + 1)]
        factor = np.linalg.qr(np.stack([np.ones_like(y), *lags, y], axis=-1), mode="r")
        r[lo : lo + _CHUNK, : factor.shape[1]] = factor
    return r


def _require_length(x: np.ndarray, order: int) -> None:
    """An AR(order) fit needs at least as many equations as coefficients."""
    need = max(order + 2, 2 * order + 1)
    if len(x) < need:
        raise ValueError(f"need at least {need} observations for order {order}")


def fit_ar1(x: np.ndarray) -> ARFit:
    """fit_ar(x, 1): x_t = c + phi x_{t-1} + e_t per column, coeffs (1, k).

    A constant series (zero lagged-regressor variance) is an error.
    """
    x = _block(x)
    _require_length(x, 1)
    if np.any(np.ptp(x[:-1], axis=0) == 0.0):
        raise ValueError("constant series: lagged regressor has zero variance")
    return fit_ar(x, 1)


def forecast_ar1(fit: ARFit, last: np.ndarray, n: int) -> np.ndarray:
    """forecast_ar seeded by the last row alone: a (k,) last gives (n, k)."""
    return forecast_ar(fit, np.asarray(last, dtype=float)[None], n)


def fit_ar(x: np.ndarray, order: int) -> ARFit:
    """Conditional least squares for an AR(order) with intercept, fitted to
    each column of a (T, k) block; order 0 is the mean model."""
    x = _block(x)
    order = as_count("order", order, 0)
    _require_length(x, order)
    r = _ar_factor(_rows(x), order, order)
    p = order + 1
    beta = np.linalg.solve(r[:, :p, :p], r[:, :p, p:])[:, :, 0]
    return ARFit(beta[:, 0], np.ascontiguousarray(beta[:, 1:].T))


def fit_ar_aic(x: np.ndarray, max_order: int) -> ARFit:
    """AR with the order (0..max_order) chosen by AIC on a common sample.

    All candidate orders are scored on the observations from max_order
    onward so their likelihoods are comparable; the winner is refit on the
    full series. Ties go to the smaller order. Each column of the (T, k)
    block picks its own order, the columns that share an order are refit
    together, and the coefficients are zero-padded to the largest candidate
    order.
    """
    x = _block(x)
    t, k = x.shape
    if t < 2:
        raise ValueError(f"need at least 2 observations, got {t}")
    pmax = min(as_count("max_order", max_order, 0), (t - 2) // 2)
    # One factorization scores every nested order: rss[:, p] is the residual
    # sum of squares of order p on the common sample.
    r = _ar_factor(_rows(x), pmax, pmax)
    tail = r[:, 1:, -1] ** 2
    rss = np.cumsum(tail[:, ::-1], axis=1)[:, ::-1]
    total = rss[:, :1] + r[:, :1, -1] ** 2
    n_eff = t - pmax
    with np.errstate(divide="ignore"):
        fit_term = np.where(rss <= _EXACT_FIT * total, -np.inf, n_eff * np.log(rss / n_eff))
    orders = np.argmin(fit_term + 2 * np.arange(1, pmax + 2), axis=1)
    intercept, coeffs = np.empty(k), np.zeros((pmax, k))
    for p in np.unique(orders):
        cols = np.flatnonzero(orders == p)
        fit = fit_ar(x[:, cols], int(p))
        intercept[cols], coeffs[:p, cols] = fit.intercept, fit.coeffs
    return ARFit(intercept, coeffs)


def forecast_ar(fit: ARFit, history: np.ndarray, n: int) -> np.ndarray:
    """Recursive n-step forecast of each column of a (T, k) history from its
    last `order` values: (n, k)."""
    history = _block(history)
    n = as_count("horizon", n, 1)
    if len(history) < fit.order:
        raise ValueError(f"need {fit.order} trailing values, got {len(history)}")
    if history.shape[1] != len(fit.intercept):
        raise ValueError(f"fit has {len(fit.intercept)} series, history has {history.shape[1]}")
    window = list(history[len(history) - fit.order :])
    out = np.empty((n, len(fit.intercept)))
    for h in range(n):
        lagged = 0.0
        for i in range(fit.order):
            lagged = lagged + fit.coeffs[i] * window[-1 - i]
        out[h] = fit.intercept + lagged
        window.append(out[h])
    return out


def forecast_series(x: np.ndarray, n: int, *, score: ScoreModel = ScoreModel()) -> np.ndarray:
    """Deseasonalize, extrapolate, and re-seasonalize each series of a block.

    x is (T, ...) and every trailing coordinate is one scalar series, forecast
    on its own; the result is (n, ...), so a 1-D x gives an (n,) forecast.
    The autoregression sees a series minus its seasonal component (trend
    included). A numerically constant adjusted series gets a flat mean
    forecast, the exact extrapolation of a purely seasonal signal. Future
    positions T+h carry the seasonal index at (T+h-1) mod score.period.

    Every step runs once over the whole block (only _ar_factor chunks its
    designs); a series' forecast is bit-identical whatever block it sits in.
    """
    n = as_count("horizon", n, 1)
    x = np.asarray(x, dtype=float)
    t = x.shape[0]
    series = x.reshape(t, -1)
    seasonal = classical_decompose(series, score.period)
    adjusted = series - seasonal[np.arange(t) % score.period]
    scale = np.maximum(1.0, np.max(np.abs(adjusted), axis=0))
    flat = np.ptp(adjusted, axis=0) <= _FLAT_TOLERANCE * scale
    out = np.empty((n, series.shape[1]))
    out[:, flat] = _rows(adjusted[:, flat]).mean(axis=1)
    if not flat.all():
        live = adjusted[:, ~flat]
        if score.kind == "ar1":
            out[:, ~flat] = forecast_ar1(fit_ar1(live), live[-1], n)
        else:
            out[:, ~flat] = forecast_ar(fit_ar_aic(live, score.max_order), live, n)
    out += seasonal[(t + np.arange(n)) % score.period]
    return out.reshape(n, *x.shape[1:])


def future_starts(period_starts: np.ndarray, n: int) -> np.ndarray:
    """Starts of the n periods after an evenly spaced series of period starts."""
    return period_starts[-1] + period_step(period_starts) * np.arange(1, n + 1)


def forecast_factors(f: FactorSeries, n: int, *, score: ScoreModel = ScoreModel()) -> FactorSeries:
    """Forecast every factor coordinate independently n periods ahead.

    values[h-1] of the result predicts period T+h.
    """
    return FactorSeries(
        values=forecast_series(f.values, n, score=score),
        period_starts=future_starts(f.period_starts, n),
        provider_ids=list(f.provider_ids),
    )


def forecast_observations(
    ff: FactorSeries, loadings: LoadingSet, z: Standardization
) -> TensorSeries:
    """Observations of a factor series, forecast or in-sample: the common
    component (reconstruct_common) destandardized to each cell's scale."""
    common = reconstruct_common(ff.values, loadings)
    return destandardize(TensorSeries(common, ff.period_starts, ff.provider_ids), z)
