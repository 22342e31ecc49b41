"""Reference forecasters that factorize the weekly matrices of each provider.

Each baseline takes a (T, N, S1, S2) TensorSeries (days x hours per provider
and week) and returns the forecast TensorSeries, as the tensor model does.
All three share the per-cell standardization and the seasonal-plus-AR score
forecaster (forecast_series) used by the tensor model; each fits all of a
window's score blocks before forecasting them in one call. MFM and VFM take
the score model as an argument, so with the tensor model's setting their
accuracy differences come from the factorization alone; FPCA's scores
always use ar_aic:

* MFM: a two-mode (day x hour) factor model per provider, fitted by the
  tensor model's own fit_factor_model with days as the cross-section.
* VFM: weeks flattened to vectors, factors by plain PCA.
* FPCA: one principal-component basis per day of the week over daily curves.
"""

from __future__ import annotations

import numpy as np

from .factor_model import FactorSeries, Ranks, fit_factor_model
from .forecast import forecast_factors, forecast_observations, forecast_series, future_starts
from .panel import TensorSeries, cell_moments, destandardize, estimate_standardization, standardize
from .tensor import top_eigenvectors

_FPCA_VARIANCE_TARGET = 0.95
_FPCA_MAX_COMPONENTS = 6


def _require_matrices(ts: TensorSeries) -> None:
    if ts.values.ndim != 4:
        raise ValueError(f"expected a (T, N, S1, S2) series, got shape {ts.values.shape}")


def _label_forecast(ts: TensorSeries, values: np.ndarray) -> TensorSeries:
    """Forecast values labeled with ts's providers and the periods that follow it."""
    return TensorSeries(
        values=values,
        period_starts=future_starts(ts.period_starts, values.shape[0]),
        provider_ids=list(ts.provider_ids),
    )


def split_providers(ts: TensorSeries) -> list[TensorSeries]:
    """One (T, S1, S2) series per provider, in the series' provider order.

    The days are the cross-section of each part (labeled day0, day1, ...) and
    the hours its one seasonal mode.
    """
    _require_matrices(ts)
    return [
        TensorSeries(
            values=ts.values[:, i].copy(),
            period_starts=ts.period_starts.copy(),
            provider_ids=[f"day{d}" for d in range(ts.values.shape[2])],
        )
        for i in range(ts.values.shape[1])
    ]


def _vectorize_weeks(values: np.ndarray) -> np.ndarray:
    # (T, ..., S1, S2) -> (T, ... * S2 * S1). Within each matrix the
    # flattened coordinate is s2 * S1 + s1: the day index runs fastest,
    # matching the row order of kron(hour_basis, day_basis). The result is a
    # C-contiguous copy; the PCA products depend on operand layout in the
    # last bits.
    return np.ascontiguousarray(values.swapaxes(-1, -2)).reshape(values.shape[0], -1)


def _matricize_weeks(vecs: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    # Inverse of _vectorize_weeks for matrices of dims (..., S1, S2).
    *lead, s1, s2 = dims
    return vecs.reshape(vecs.shape[0], *lead, s2, s1).swapaxes(-1, -2)


def mfm_forecast(
    ts: TensorSeries,
    n: int,
    k_day: int = 1,
    k_hour: int = 2,
    period: int = 52,
    score_model: str = "ar1",
    max_order: int = 5,
) -> TensorSeries:
    """Matrix-factor-model forecasts, one independent fit per provider.

    Each provider's weekly matrices (split_providers) are fitted by the tensor
    factor model (fit_factor_model) with days as the cross-section and hours
    as the one seasonal mode, followed by the shared score forecaster.
    Constant cells carry no factor signal; a provider whose every cell's
    sigma is below the standardization's clamp floor (cell_moments)
    forecasts its per-cell mean.
    """
    ranks = Ranks(r=k_day, k=(k_hour,))
    out = np.empty((n, *ts.tensor_dims))
    fitted = []  # (provider index, model, factor values)
    for i, ys in enumerate(split_providers(ts)):
        mu, sigma, floor = cell_moments(ys.values)
        if np.all(sigma < floor):
            out[:, i] = mu
            continue
        model, factors = fit_factor_model(ys, ranks=ranks)
        fitted.append((i, model, factors.values))
    if fitted:
        # One score forecast for every fitted provider's factors at once.
        stacked = FactorSeries(
            values=np.stack([values for *_, values in fitted], axis=1),
            period_starts=ts.period_starts,
            provider_ids=[ts.provider_ids[i] for i, *_ in fitted],
        )
        ff = forecast_factors(stacked, n, period=period, score_model=score_model,
                              max_order=max_order)
        for j, (i, model, _) in enumerate(fitted):
            part = FactorSeries(values=ff.values[:, j], period_starts=ff.period_starts,
                                provider_ids=model.provider_ids)
            out[:, i] = forecast_observations(part, model.loadings, model.standardization).values
    return _label_forecast(ts, out)


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
    ts: TensorSeries,
    n: int,
    r: int = 2,
    period: int = 52,
    score_model: str = "ar1",
    max_order: int = 5,
    stacked: bool = False,
) -> TensorSeries:
    """Vector-factor-model forecasts: PCA on flattened weekly matrices.

    Default is one PCA per provider on its standardized week vectors; with
    stacked=True all providers' coordinates join a single PCA so the factors
    are shared across providers.
    """
    _require_matrices(ts)
    if ts.num_periods <= r:
        raise ValueError(f"need more periods than components, got T={ts.num_periods} with r={r}")
    z = estimate_standardization(ts)
    x = standardize(ts, z).values

    blocks = [x] if stacked else [x[:, i] for i in range(x.shape[1])]
    fits = [_pca_fit(_vectorize_weeks(block), r) for block in blocks]
    # One score forecast for every block's r scores at once.
    future = forecast_series(np.concatenate([scores for _, scores in fits], axis=1),
                             period, n, score_model, max_order)
    common = [
        _matricize_weeks(part @ basis.T, block.shape[1:])
        for part, (basis, _), block in zip(np.split(future, len(fits), axis=1), fits, blocks)
    ]
    common = common[0] if stacked else np.stack(common, axis=1)
    return destandardize(_label_forecast(ts, common), z)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean curve, principal component curves, and scores for one day slice.

    Curves with no variation have no components: an empty basis and score
    block, so the forecast is the mean curve.
    """
    mean_curve = curves.mean(axis=0)
    centered = curves - mean_curve
    cov = centered.T @ centered / curves.shape[0]
    if np.max(np.abs(cov)) == 0.0:
        return mean_curve, np.empty((curves.shape[1], 0)), np.empty((curves.shape[0], 0))
    basis, eigvals = top_eigenvectors(cov, curves.shape[1])
    basis = basis[:, : _component_count(eigvals, ncomp, curves.shape[1])]
    return mean_curve, basis, centered @ basis


def fpca_forecast(
    ts: TensorSeries,
    n: int,
    ncomp: int | None = None,
    period: int = 52,
    max_order: int = 5,
) -> TensorSeries:
    """Functional-PCA forecasts: one curve basis per provider and day of week.

    Each (provider, day-of-week) slice gives a (T x hours) sample of daily
    curves on the standardized scale. Curves are centered, decomposed into
    principal component curves (enough to explain 95% of variance, at most 6,
    unless ncomp is given), and the component scores of every slice are
    forecast together with the shared seasonal-plus-autoregression path, each
    AR order chosen by AIC (score model ar_aic). Forecast curves reassemble
    into weekly matrices with day slices in their original row order.
    """
    _require_matrices(ts)
    z = estimate_standardization(ts)
    x = standardize(ts, z).values
    slices = list(np.ndindex(*ts.tensor_dims[:2]))
    fits = [_day_curve_fit(x[:, i, d], ncomp) for i, d in slices]
    scores = np.concatenate([s for _, _, s in fits], axis=1)
    future = forecast_series(scores, period, n, "ar_aic", max_order)
    bounds = np.cumsum([s.shape[1] for _, _, s in fits])[:-1]
    common = np.empty((n, *ts.tensor_dims))
    for (i, d), (mean_curve, basis, _), part in zip(slices, fits, np.split(future, bounds, axis=1)):
        common[:, i, d] = mean_curve + part @ basis.T
    return destandardize(_label_forecast(ts, common), z)
