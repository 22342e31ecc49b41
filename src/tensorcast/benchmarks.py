"""Reference forecasters that factorize the weekly matrices of each provider.

Each baseline takes a (T, N, S1, S2) TensorSeries (days x hours per provider
and week) and returns the forecast TensorSeries, as the tensor model does.
All three share the per-cell standardization and the seasonal-plus-AR score
forecaster (forecast_series) used by the tensor model; each fits all of a
window's score blocks before forecasting them in one call. Each takes its
settings as one record (MFM, VFM, FPCA) whose score field is a ScoreModel, so
with the tensor model's settings MFM's and VFM's accuracy differences come
from the factorization alone; FPCA's scores always use ar_aic:

* MFM: a two-mode (day x hour) factor model per provider, fitted by the
  tensor model's own fit_factor_model with days as the cross-section.
* VFM: weeks flattened to vectors, factors by plain PCA.
* FPCA: one principal-component basis per day of the week over daily curves.

VFM and FPCA decompose all of a window's covariances in one stacked
top_eigenvectors call (_centred_pca).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .factor_model import FactorSeries, Ranks, fit_factor_model
from .forecast import (ScoreModel, forecast_factors, forecast_observations, forecast_series,
                       future_starts)
from .panel import (TensorSeries, as_count, cell_moments, cell_standardization, destandardize,
                    standardize)
from .tensor import top_eigenvectors

__all__ = ["split_providers", "MFM", "VFM", "FPCA", "mfm_forecast", "vfm_forecast",
           "fpca_forecast"]

_FPCA_VARIANCE_TARGET = 0.95
_FPCA_MAX_COMPONENTS = 6


def _require_matrices(shape: Sequence[int]) -> tuple[int, ...]:
    if len(shape) != 4:
        raise ValueError(f"expected a (T, N, S1, S2) series, got shape {tuple(shape)}")
    return tuple(shape)


def _count_within(keyword: str, value: object, limit: int, what: str) -> int:
    value = as_count(keyword, value, 1)
    if value > limit:
        raise ValueError(f"{keyword}={value} out of range 1..{limit} ({what})")
    return value


@dataclass(frozen=True)
class MFM:
    """MFM's settings and forecaster handle: k_day x k_hour factors per provider."""

    k_day: int = 1
    k_hour: int = 2
    score: ScoreModel = ScoreModel()

    def check(self, shape: Sequence[int]) -> Ranks:
        """The per-provider ranks on a (T, N, S1, S2) series: k_day <= S1, k_hour <= S2."""
        _, _, s1, s2 = _require_matrices(shape)
        return Ranks(_count_within("k_day", self.k_day, s1, "S1"),
                     (_count_within("k_hour", self.k_hour, s2, "S2"),))

    def __call__(self, train: TensorSeries, n: int) -> np.ndarray:
        return mfm_forecast(train, n, self).values


@dataclass(frozen=True)
class VFM:
    """VFM's settings and forecaster handle: r components per provider, or shared if stacked."""

    r: int = 2
    stacked: bool = False
    score: ScoreModel = ScoreModel()

    def check(self, shape: Sequence[int]) -> int:
        """The component count on a (T, N, S1, S2) series: < T and <= the week-vector length."""
        t, n, s1, s2 = _require_matrices(shape)
        r = _count_within("r", self.r, n * s1 * s2 if self.stacked else s1 * s2,
                          "the week-vector length")
        if t <= r:
            raise ValueError(f"need more periods than components, got T={t} with r={r}")
        return r

    def __call__(self, train: TensorSeries, n: int) -> np.ndarray:
        return vfm_forecast(train, n, self).values


@dataclass(frozen=True)
class FPCA:
    """FPCA's settings and forecaster handle: ncomp curve components (None: automatic)."""

    ncomp: int | None = None
    score: ScoreModel = ScoreModel()

    def check(self, shape: Sequence[int]) -> int | None:
        """The component count on a (T, N, S1, S2) series: None (automatic) or <= S2."""
        s2 = _require_matrices(shape)[3]
        return None if self.ncomp is None else _count_within("ncomp", self.ncomp, s2, "S2")

    def __call__(self, train: TensorSeries, n: int) -> np.ndarray:
        return fpca_forecast(train, n, self).values


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
    _require_matrices(ts.values.shape)
    return [
        TensorSeries(
            values=ts.values[:, i].copy(),
            period_starts=ts.period_starts.copy(),
            provider_ids=[f"day{d}" for d in range(ts.values.shape[2])],
        )
        for i in range(ts.values.shape[1])
    ]


def _vectorize_weeks(values: np.ndarray) -> np.ndarray:
    # (..., S1, S2) -> (..., S2 * S1). Within each matrix the flattened
    # coordinate is s2 * S1 + s1: the day index runs fastest, matching the
    # row order of kron(hour_basis, day_basis). The result is a C-contiguous
    # copy; the PCA products depend on operand layout in the last bits.
    return np.ascontiguousarray(values.swapaxes(-1, -2)).reshape(*values.shape[:-2], -1)


def _matricize_weeks(vecs: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    # Inverse of _vectorize_weeks for matrices of dims (..., S1, S2).
    s1, s2 = dims[-2:]
    return vecs.reshape(*vecs.shape[:-1], s2, s1).swapaxes(-1, -2)


def mfm_forecast(ts: TensorSeries, n: int, spec: MFM = MFM()) -> TensorSeries:
    """Matrix-factor-model forecasts, one independent fit per provider.

    Each provider's weekly matrices (split_providers) are fitted by the tensor
    factor model (fit_factor_model) with days as the cross-section and hours
    as the one seasonal mode, followed by the shared score forecaster.
    Constant cells carry no factor signal; a provider whose every cell's
    sigma is below the standardization's clamp floor (cell_moments)
    forecasts its per-cell mean.
    """
    ranks = spec.check(ts.values.shape)
    mu, sigma, floor = cell_moments(ts.values)
    out = np.empty((n, *ts.tensor_dims))
    fitted = []  # (provider index, model, factor values)
    for i, ys in enumerate(split_providers(ts)):
        if np.all(sigma[i] < floor[i]):
            out[:, i] = mu[i]
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
        ff = forecast_factors(stacked, n, score=spec.score)
        for j, (i, model, _) in enumerate(fitted):
            part = FactorSeries(values=ff.values[:, j], period_starts=ff.period_starts,
                                provider_ids=model.provider_ids)
            out[:, i] = forecast_observations(part, model.loadings, model.standardization).values
    return _label_forecast(ts, out)


def _centred_pca(blocks: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Centred PCA of each (T, p) block of a (B, T, p) stack.

    Centres the blocks in place, so callers pass a stack they own. Returns
    the mean rows (B, p), the k leading principal directions (B, p, k) and
    their variances (B, k), descending, and whether each block varies at all
    (B,). The directions come from one top_eigenvectors call on the stacked
    covariances.
    """
    mean = blocks.mean(axis=1)
    blocks -= mean[:, None]
    cov = blocks.swapaxes(1, 2) @ blocks
    cov /= blocks.shape[1]
    varies = cov.reshape(len(cov), -1).any(axis=1)
    basis, variances = top_eigenvectors(cov, k)
    return mean, basis, variances, varies


def vfm_forecast(ts: TensorSeries, n: int, spec: VFM = VFM()) -> TensorSeries:
    """Vector-factor-model forecasts: PCA on flattened weekly matrices.

    Default is one PCA per provider on its standardized week vectors; with
    spec.stacked all providers' coordinates join a single PCA so the factors
    are shared across providers.
    """
    r = spec.check(ts.values.shape)
    z = cell_standardization(ts.values)
    t, num = ts.values.shape[:2]
    # (B, T, p) week vectors: one block per provider, or one of all providers.
    x = standardize(ts, z).values
    blocks = (_vectorize_weeks(x).reshape(1, t, -1) if spec.stacked
              else _vectorize_weeks(x.swapaxes(0, 1)))
    del x  # the blocks are a copy; keep one panel-sized array alive, not two
    mean, basis, _, varies = _centred_pca(blocks, r)
    if not varies.all():
        raise ValueError("degenerate covariance: data has no variation")
    # One score forecast for every block's r scores at once.
    scores = (blocks @ basis).swapaxes(0, 1).reshape(t, -1)
    future = forecast_series(scores, n, score=spec.score)
    parts = future.reshape(n, len(blocks), r).swapaxes(0, 1)
    vecs = (mean[:, None] + parts @ basis.swapaxes(1, 2)).swapaxes(0, 1)
    common = _matricize_weeks(vecs.reshape(n, num, -1), ts.tensor_dims)
    return destandardize(_label_forecast(ts, common), z)


def _component_count(eigvals: np.ndarray, requested: int | None, limit: int) -> np.ndarray:
    """Components kept per eigenvalue row (..., p): requested (FPCA.check's), or enough
    for _FPCA_VARIANCE_TARGET of the variance, at most _FPCA_MAX_COMPONENTS."""
    if requested is not None:
        return np.full(eigvals.shape[:-1], requested)
    variances = np.clip(eigvals, 0.0, None)
    total = np.sum(variances, axis=-1, keepdims=True)
    share = np.divide(np.cumsum(variances, axis=-1), total, out=np.zeros_like(variances),
                      where=total > 0.0)
    covered = np.sum(share < _FPCA_VARIANCE_TARGET, axis=-1) + 1
    return np.where(total[..., 0] > 0.0, np.minimum(covered, min(_FPCA_MAX_COMPONENTS, limit)), 1)


def fpca_forecast(ts: TensorSeries, n: int, spec: FPCA = FPCA()) -> TensorSeries:
    """Functional-PCA forecasts: one curve basis per provider and day of week.

    Each (provider, day-of-week) slice gives a (T x hours) sample of daily
    curves on the standardized scale. Curves are centered, decomposed into
    principal component curves (enough to explain 95% of variance, at most 6,
    unless spec.ncomp is given), and the component scores of every slice are
    forecast together with the shared seasonal-plus-autoregression path at
    spec.score's period and max_order, each AR order chosen by AIC (kind
    ar_aic, whatever spec.score's kind). Forecast curves reassemble into weekly matrices
    with day slices in their original row order.
    """
    ncomp = spec.check(ts.values.shape)
    z = cell_standardization(ts.values)
    x = standardize(ts, z).values
    t, s2 = x.shape[0], x.shape[-1]
    # One (T, hours) block of daily curves per (provider, day) slice, in
    # provider-major order: a view of x, which nothing else reads.
    blocks = x.reshape(t, -1, s2).swapaxes(0, 1)
    mean, basis, eigvals, varies = _centred_pca(blocks, s2)
    # Curves with no variation have no components: their forecast is the mean curve.
    counts = np.where(varies, _component_count(eigvals, ncomp, s2), 0)
    basis = basis[:, :, : counts.max()]
    kept = np.arange(basis.shape[2]) < counts[:, None]  # (slices, components) mask
    scores = (blocks @ basis).swapaxes(0, 1)[:, kept]
    padded = np.zeros((n, *kept.shape))
    padded[:, kept] = forecast_series(scores, n, score=replace(spec.score, kind="ar_aic"))
    curves = mean[:, None] + padded.swapaxes(0, 1) @ basis.swapaxes(1, 2)
    common = curves.swapaxes(0, 1).reshape(n, *ts.tensor_dims)
    return destandardize(_label_forecast(ts, common), z)
