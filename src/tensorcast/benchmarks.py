"""Reference forecasters that factorize weekly matrices per provider.

Three baselines share the per-cell standardization and the seasonal-plus-AR
score forecaster (forecast_series) used by the tensor model. MFM and VFM take
the score model as an argument, so with the tensor model's setting their
accuracy differences come from the factorization alone; FPCA's scores always
use ar_aic:

* MFM: a two-mode (day x hour) factor model per provider, fitted by the
  tensor model's own fit_factor_model with days as the cross-section.
* VFM: weeks flattened to vectors, factors by plain PCA.
* FPCA: one principal-component basis per day of the week over daily curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor_model import Ranks, fit_factor_model
from .forecast import forecast_factors, forecast_observations, forecast_series, future_starts
from .panel import TensorSeries, cell_standardization
from .tensor import top_eigenvectors

_FPCA_VARIANCE_TARGET = 0.95
_FPCA_MAX_COMPONENTS = 6


@dataclass
class ProviderMatrixSeries:
    """One provider's weekly matrices: values[t] is (days x hours)."""

    provider_id: str
    values: np.ndarray  # (T, S1, S2)
    period_starts: np.ndarray  # datetime64[h], length T

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"expected (T, days, hours) values, got shape {self.values.shape}")
        if len(self.period_starts) != self.values.shape[0]:
            raise ValueError("one start timestamp per period required")

    @property
    def num_periods(self) -> int:
        return self.values.shape[0]

    @property
    def matrix_dims(self) -> tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]


@dataclass
class BenchmarkForecast:
    """Per-provider forecast matrices from one baseline model."""

    model: str  # "MFM" | "VFM" | "FPCA"
    provider_ids: list[str]
    values: np.ndarray  # (n, N, S1, S2)
    period_starts: np.ndarray  # datetime64[h], length n

    @property
    def horizon(self) -> int:
        return self.values.shape[0]


def split_providers(ts: TensorSeries) -> list[ProviderMatrixSeries]:
    """One matrix series per provider, in the series' provider order."""
    if ts.values.ndim != 4:
        raise ValueError(f"expected a (T, N, S1, S2) series, got shape {ts.values.shape}")
    return [
        ProviderMatrixSeries(
            provider_id=pid,
            values=ts.values[:, i].copy(),
            period_starts=ts.period_starts.copy(),
        )
        for i, pid in enumerate(ts.provider_ids)
    ]


def _check_common_shape(series: list[ProviderMatrixSeries]) -> tuple[int, int, int]:
    if not series:
        raise ValueError("need at least one provider series")
    shape = series[0].values.shape
    for ms in series[1:]:
        if ms.values.shape != shape:
            raise ValueError(f"provider series shapes differ: {ms.values.shape} vs {shape}")
    return shape


def _vectorize_weeks(values: np.ndarray) -> np.ndarray:
    # Flattened coordinate s2 * S1 + s1: the day index runs fastest, matching
    # the row order of kron(hour_basis, day_basis).
    t = values.shape[0]
    return values.transpose(0, 2, 1).reshape(t, -1)


def _matricize_weeks(vecs: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    s1, s2 = dims
    return vecs.reshape(vecs.shape[0], s2, s1).transpose(0, 2, 1)


def mfm_forecast(
    series: list[ProviderMatrixSeries],
    n: int,
    k_day: int = 1,
    k_hour: int = 2,
    period: int = 52,
    score_model: str = "ar1",
    max_order: int = 5,
) -> BenchmarkForecast:
    """Matrix-factor-model forecasts, one independent fit per provider.

    Each provider's weekly matrices are fitted by the tensor factor model
    (fit_factor_model) with days as the cross-section and hours as the one
    seasonal mode, followed by the shared score forecaster. Constant cells
    carry no factor signal; a provider whose cells all equal their per-cell
    mean (standardized data identically zero) forecasts that mean.
    """
    shape = _check_common_shape(series)
    ranks = Ranks(r=k_day, k=(k_hour,))
    day_labels = [f"day{d}" for d in range(shape[1])]
    out = np.empty((n, len(series), shape[1], shape[2]))
    for i, ms in enumerate(series):
        mu = ms.values.mean(axis=0)
        if np.all(ms.values == mu):
            out[:, i] = mu
            continue
        ys = TensorSeries(values=ms.values, period_starts=ms.period_starts, provider_ids=day_labels)
        model, factors = fit_factor_model(ys, ranks=ranks)
        ff = forecast_factors(factors, n, period=period, score_model=score_model, max_order=max_order)
        out[:, i] = forecast_observations(ff, model.loadings, model.standardization).values
    return BenchmarkForecast(
        model="MFM",
        provider_ids=[ms.provider_id for ms in series],
        values=out,
        period_starts=future_starts(series[0].period_starts, n),
    )


def _pca_fit(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal top-r principal directions and scores of centered rows."""
    t, p = x.shape
    if not 1 <= r <= p:
        raise ValueError(f"component count {r} out of range 1..{p}")
    cov = x.T @ x / t
    if np.max(np.abs(cov)) == 0.0:
        raise ValueError("degenerate covariance: data has no variation")
    basis, _ = top_eigenvectors(cov, r)
    return basis, x @ basis


def vfm_forecast(
    series: list[ProviderMatrixSeries],
    n: int,
    r: int = 2,
    period: int = 52,
    score_model: str = "ar1",
    max_order: int = 5,
    stacked: bool = False,
) -> BenchmarkForecast:
    """Vector-factor-model forecasts: PCA on flattened weekly matrices.

    Default is one PCA per provider on its standardized week vectors; with
    stacked=True all providers' coordinates join a single PCA so the factors
    are shared across providers.
    """
    shape = _check_common_shape(series)
    dims = shape[1], shape[2]
    if shape[0] <= r:
        raise ValueError(f"need more periods than components, got T={shape[0]} with r={r}")

    standardized = []
    scales = []
    for ms in series:
        z = cell_standardization(ms.values)
        scales.append(z)
        standardized.append(_vectorize_weeks((ms.values - z.mu) / z.sigma))

    def _score_forecasts(scores: np.ndarray) -> np.ndarray:
        future = np.empty((n, scores.shape[1]))
        for j in range(scores.shape[1]):
            future[:, j] = forecast_series(scores[:, j], period, n, score_model, max_order)
        return future

    out = np.empty((n, len(series), *dims))
    if stacked:
        x = np.concatenate(standardized, axis=1)
        basis, scores = _pca_fit(x, r)
        recon = _score_forecasts(scores) @ basis.T
        width = dims[0] * dims[1]
        for i, z in enumerate(scales):
            block = recon[:, i * width : (i + 1) * width]
            out[:, i] = _matricize_weeks(block, dims) * z.sigma + z.mu
    else:
        for i, (x, z) in enumerate(zip(standardized, scales)):
            basis, scores = _pca_fit(x, r)
            recon = _score_forecasts(scores) @ basis.T
            out[:, i] = _matricize_weeks(recon, dims) * z.sigma + z.mu
    return BenchmarkForecast(
        model="VFM",
        provider_ids=[ms.provider_id for ms in series],
        values=out,
        period_starts=future_starts(series[0].period_starts, n),
    )


def _component_count(eigvals: np.ndarray, requested: int | None, limit: int) -> int:
    if requested is not None:
        if not 1 <= requested <= limit:
            raise ValueError(f"component count {requested} out of range 1..{limit}")
        return requested
    total = float(np.sum(np.clip(eigvals, 0.0, None)))
    if total == 0.0:
        return 1
    share = np.cumsum(np.clip(eigvals, 0.0, None)) / total
    chosen = int(np.searchsorted(share, _FPCA_VARIANCE_TARGET)) + 1
    return min(chosen, _FPCA_MAX_COMPONENTS, limit)


def _day_curve_fit(
    curves: np.ndarray, ncomp: int | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Mean curve, principal component curves, and scores for one day slice.

    Curves with no variation return (mean, None, None); the caller forecasts
    the mean curve directly.
    """
    mean_curve = curves.mean(axis=0)
    centered = curves - mean_curve
    cov = centered.T @ centered / curves.shape[0]
    if np.max(np.abs(cov)) == 0.0:
        return mean_curve, None, None
    eigvals = np.linalg.eigvalsh(cov)[::-1]
    count = _component_count(eigvals, ncomp, curves.shape[1])
    basis, _ = top_eigenvectors(cov, count)
    return mean_curve, basis, centered @ basis


def fpca_forecast(
    series: list[ProviderMatrixSeries],
    n: int,
    ncomp: int | None = None,
    period: int = 52,
    score_model: str = "ar_aic",
    max_order: int = 5,
) -> BenchmarkForecast:
    """Functional-PCA forecasts: one curve basis per provider and day of week.

    Each day-of-week slice gives a (T x hours) sample of daily curves on the
    standardized scale. Curves are centered, decomposed into principal
    component curves (enough to explain 95% of variance, at most 6, unless
    ncomp is given), and the component scores are forecast with the shared
    seasonal-plus-autoregression path. Forecast curves reassemble into weekly
    matrices with day slices in their original row order.
    """
    shape = _check_common_shape(series)
    num_days, num_hours = shape[1], shape[2]
    out = np.empty((n, len(series), num_days, num_hours))
    for i, ms in enumerate(series):
        z = cell_standardization(ms.values)
        x = (ms.values - z.mu) / z.sigma
        common = np.empty((n, num_days, num_hours))
        for d in range(num_days):
            mean_curve, basis, scores = _day_curve_fit(x[:, d, :], ncomp)
            if basis is None:
                common[:, d] = mean_curve
                continue
            future = np.empty((n, basis.shape[1]))
            for j in range(basis.shape[1]):
                future[:, j] = forecast_series(scores[:, j], period, n, score_model, max_order)
            common[:, d] = mean_curve + future @ basis.T
        out[:, i] = common * z.sigma + z.mu
    return BenchmarkForecast(
        model="FPCA",
        provider_ids=[ms.provider_id for ms in series],
        values=out,
        period_starts=future_starts(series[0].period_starts, n),
    )
