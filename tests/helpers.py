"""Shared constructions for synthetic factor-model data in tests, small
tensor and report utilities that only the tests use, and the oracles that the batched
code is checked against: the scalar score forecaster, the score forecaster
that ran every step once per chunk of 32 series, the per-matrix full
eigendecomposition, the per-slice functional PCA, the first pass that
solves every column, the rank rule on a first pass at the candidate
maxima, rank selection by mode products on the series, the rolling
evaluation loop that kept per-horizon error and dispersion arrays, the
row-by-row forecast.csv writer, and the .npz writer that built each member
in memory first."""

from __future__ import annotations

import csv
import io
import zipfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from tensorcast import benchmarks, evaluation, factor_model, forecast
from tensorcast.evaluation import EvalCell, EvalReport, RollingPlan, SimSpec, _prepare
from tensorcast.factor_model import (
    FactorSeries,
    InitialLoadings,
    LoadingSet,
    Ranks,
    TensorFactorModel,
    _ratio_argmax,
    _stack_unfoldings,
    _widths,
    extract_factors,
    projected_loadings,
    rank_bounds,
    reconstruct_common,
    select_ranks,
)
from tensorcast.forecast import ARFit, ScoreModel
from tensorcast.panel import (
    CalendarSpec,
    PanelSeries,
    TensorSeries,
    cell_standardization,
    standardize,
)
from tensorcast.tensor import mode_product, top_eigenvectors


def weekly_starts(t: int) -> np.ndarray:
    return np.datetime64("2020-01-06T00", "h") + (168 * np.arange(t)).astype("timedelta64[h]")


def seasonal_indices(cal: CalendarSpec, hour_index: int) -> tuple[int, ...]:
    """Per-level seasonal indices (0-based) of an hour: its period offset
    decomposed mixed-radix, the last period varying fastest."""
    offset = cal.period_offset(hour_index)
    out = []
    for extent in reversed(cal.periods):
        out.append(offset % extent)
        offset //= extent
    return tuple(reversed(out))


def unfold_panel(ts: TensorSeries) -> PanelSeries:
    """Inverse of :func:`tensorcast.panel.fold` on the retained span."""
    num_periods, n = ts.values.shape[:2]
    period = int(np.prod(ts.tensor_dims[1:]))
    flat = ts.values.transpose(1, 0, *range(2, ts.values.ndim)).reshape(n, num_periods * period)
    start = ts.period_starts[0]
    timestamps = start + np.arange(num_periods * period, dtype=np.int64).astype("timedelta64[h]")
    return PanelSeries(
        provider_ids=list(ts.provider_ids),
        timestamps=timestamps,
        values=np.ascontiguousarray(flat),
    )


def make_series(values: np.ndarray, provider_ids: Sequence[str] | None = None) -> TensorSeries:
    values = np.asarray(values, dtype=float)
    if provider_ids is None:
        provider_ids = [f"P{i}" for i in range(values.shape[1])]
    return TensorSeries(
        values=values,
        period_starts=weekly_starts(values.shape[0]),
        provider_ids=list(provider_ids),
    )


def orthonormal_loading(rng: np.random.Generator, p: int, r: int) -> np.ndarray:
    """A p x r matrix with A'A = p I and the estimator's sign convention."""
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    anchor = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[anchor, np.arange(r)])
    return np.sqrt(p) * q * signs


def random_loading_set(rng: np.random.Generator, dims, ranks) -> LoadingSet:
    """LoadingSet with scale-convention loadings; dims/ranks include mode 0."""
    lam = orthonormal_loading(rng, dims[0], ranks[0])
    b = [orthonormal_loading(rng, s, k) for s, k in zip(dims[1:], ranks[1:])]
    return LoadingSet(lam=lam, b=b)


def noiseless_series(rng: np.random.Generator, dims, ranks, t: int, noise_sd: float = 0.0):
    """Series drawn exactly from the factor model (plus optional iid noise)."""
    loadings = random_loading_set(rng, dims, ranks)
    factors = rng.standard_normal((t, *ranks))
    values = reconstruct_common(factors, loadings)
    if noise_sd:
        values = values + noise_sd * rng.standard_normal(values.shape)
    return make_series(values), loadings, factors


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of a and b.

    Computed as the spectral norm of (I - P_a) Q_b, which stays accurate for
    nearly identical spans (the sqrt(1 - cos^2) route loses half the digits).
    """
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    resid = qb - qa @ (qa.T @ qb)
    return float(np.linalg.norm(resid, 2))


def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k matricization of ``x`` (modes are 0-based).

    Returns the (p_k, prod of other extents) matrix whose columns enumerate
    the remaining indices with the lowest remaining mode varying fastest.
    """
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for a {x.ndim}-way tensor")
    return np.reshape(np.moveaxis(x, mode, 0), (x.shape[mode], -1), order="F")


def refold(m: np.ndarray, mode: int, dims: Sequence[int]) -> np.ndarray:
    """Inverse of unfold: rebuild the tensor with extents ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    m = np.asarray(m)
    rest = tuple(d for i, d in enumerate(dims) if i != mode)
    expected = (dims[mode], int(np.prod(rest, dtype=np.int64)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} at mode {mode}")
    return np.moveaxis(np.reshape(m, (dims[mode], *rest), order="F"), 0, mode)


def kron(a: np.ndarray, b: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more matrices, left to right."""
    out = np.kron(np.asarray(a), np.asarray(b))
    for m in rest:
        out = np.kron(out, np.asarray(m))
    return out


def hadamard(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise product; the operands must have identical shapes."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x * y


def frobenius_norm(x: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(np.asarray(x, dtype=float)))))


def report_cell(report: EvalReport, model: str, horizon: int, provider_id: str) -> EvalCell:
    """The report's one cell for (model, horizon, provider)."""
    for c in report.cells:
        if (c.model, c.horizon, c.provider_id) == (model, horizon, provider_id):
            return c
    raise KeyError(f"no cell ({model}, {horizon}, {provider_id})")


def simulate_compact(spec: SimSpec) -> tuple[TensorSeries, LoadingSet, FactorSeries]:
    """evaluation.simulate assembled in the compact form: common component plus
    the composite error, with each level's shock pushed through all
    higher-level loadings. Consumes the same draws as the recursion."""
    draws, loadings = _prepare(spec)
    eps = reconstruct_common(draws.core, loadings) + draws.nu
    num_levels = len(loadings.b)
    for j in range(1, num_levels + 1):
        h = draws.eta[j - 1]
        for level in range(j + 1, num_levels + 1):
            h = mode_product(h, loadings.b[level - 1], level + 1)
        eps = eps + mode_product(h, loadings.lam, 1)
    mu = spec.mu if spec.mu is not None else np.zeros(spec.dims)
    sigma = spec.sigma if spec.sigma is not None else np.ones(spec.dims)
    ts = make_series(mu + sigma * eps)
    factors = FactorSeries(
        values=draws.core, period_starts=ts.period_starts, provider_ids=ts.provider_ids
    )
    return ts, loadings, factors


def oracle_top_eigenvectors(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """tensor.top_eigenvectors for one matrix by a full np.linalg.eigh: the
    oracle for the stacked and the certified partial paths."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not 1 <= k <= s.shape[0]:
        raise ValueError(f"k={k} out of range for a {s.shape[0]}x{s.shape[0]} matrix")
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.T)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(w)[::-1][:k]
    w = w[order]
    v = v[:, order]
    anchor = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[anchor, np.arange(k)])
    signs[signs == 0] = 1.0
    return v * signs, w


def looped_top_eigenvectors(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """oracle_top_eigenvectors over each matrix of a (..., p, p) stack."""
    s = np.asarray(s, dtype=float)
    pairs = [oracle_top_eigenvectors(m, k) for m in s.reshape(-1, *s.shape[-2:])]
    vecs = np.stack([v for v, _ in pairs]).reshape(*s.shape[:-1], k)
    return vecs, np.stack([w for _, w in pairs]).reshape(*s.shape[:-2], k)


@contextmanager
def full_eigh() -> Iterator[None]:
    """Run the baselines on the per-matrix full-eigh oracle inside the block."""
    saved = benchmarks.top_eigenvectors
    benchmarks.top_eigenvectors = looped_top_eigenvectors
    try:
        yield
    finally:
        benchmarks.top_eigenvectors = saved


def scalar_component_count(eigvals: np.ndarray, requested: int | None, limit: int) -> int:
    """benchmarks._component_count for one slice's eigenvalues."""
    if requested is not None:
        return requested
    total = float(np.sum(np.clip(eigvals, 0.0, None)))
    if total == 0.0:
        return 1
    share = np.cumsum(np.clip(eigvals, 0.0, None)) / total
    chosen = int(np.searchsorted(share, benchmarks._FPCA_VARIANCE_TARGET)) + 1
    return min(chosen, benchmarks._FPCA_MAX_COMPONENTS, limit)


def looped_fpca_forecast(
    ts: TensorSeries, n: int, ncomp: int | None = None, *, score: ScoreModel = ScoreModel()
) -> tuple[np.ndarray, list[int]]:
    """benchmarks.fpca_forecast as a loop over the (provider, day) slices, each
    with its own full eigh; returns the forecast values and the per-slice
    component counts."""
    z = cell_standardization(ts.values)
    x = standardize(ts, z).values
    fits = []
    for i, d in np.ndindex(*ts.tensor_dims[:2]):
        curves = x[:, i, d]
        mean_curve = curves.mean(axis=0)
        centered = curves - mean_curve
        cov = centered.T @ centered / curves.shape[0]
        if np.max(np.abs(cov)) == 0.0:
            fits.append((mean_curve, np.empty((curves.shape[1], 0)), np.empty((curves.shape[0], 0))))
            continue
        basis, eigvals = oracle_top_eigenvectors(cov, curves.shape[1])
        basis = basis[:, : scalar_component_count(eigvals, ncomp, curves.shape[1])]
        fits.append((mean_curve, basis, centered @ basis))
    scores = np.concatenate([s for _, _, s in fits], axis=1)
    future = forecast.forecast_series(scores, n, score=replace(score, kind="ar_aic"))
    bounds = np.cumsum([s.shape[1] for _, _, s in fits])[:-1]
    common = np.empty((n, *ts.tensor_dims))
    slices = np.ndindex(*ts.tensor_dims[:2])
    for (i, d), (mean_curve, basis, _), part in zip(slices, fits, np.split(future, bounds, axis=1)):
        common[:, i, d] = mean_curve + part @ basis.T
    return z.mu + z.sigma * common, [basis.shape[1] for _, basis, _ in fits]


def einsum_initial_loadings(
    xs: TensorSeries, ranks: Ranks | tuple[int, Sequence[int]]
) -> InitialLoadings:
    """sliced_initial_loadings with each moment summed by ``np.einsum`` over
    the stacked unfoldings: the oracle for the BLAS products."""
    return _full_eigh_first_pass(xs, ranks, lambda x: np.einsum("tsp,tsq->pq", x, x))


def einsum_projected_covariances(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """factor_model._projected_covariances with the outer products summed by
    ``np.einsum`` over the compressed blocks."""
    n, *seasonal = (block.shape[1] for block in blocks)
    s_total = int(np.prod(seasonal))
    scale = blocks[0].shape[0] * n * s_total
    divisors = [s_total] + [s_total // s_j for s_j in seasonal]
    return [
        np.einsum("tsp,tup->su", block, block) / (scale * d)
        for block, d in zip(blocks, divisors)
    ]


@contextmanager
def einsum_moments() -> Iterator[None]:
    """Run the estimator on the einsum oracle moments inside the block."""
    saved = factor_model.initial_loadings, factor_model._projected_covariances
    factor_model.initial_loadings = einsum_initial_loadings
    factor_model._projected_covariances = einsum_projected_covariances
    try:
        yield
    finally:
        factor_model.initial_loadings, factor_model._projected_covariances = saved


def _full_eigh_first_pass(
    xs: TensorSeries, ranks: Ranks | tuple[int, Sequence[int]], moment
) -> InitialLoadings:
    """factor_model.initial_loadings with each moment given by ``moment`` of
    the stacked unfolding and each basis sliced from the full eigenbasis.
    Candidate maxima choose the ranks through factor_model.select_ranks."""
    scale = xs.num_periods * int(np.prod(xs.tensor_dims))
    unfoldings = [_stack_unfoldings(xs.values, mode) for mode in range(len(xs.tensor_dims))]
    moments = [moment(x) / scale for x in unfoldings]
    if not isinstance(ranks, Ranks):
        ranks = select_ranks(unfoldings, moments, *ranks)
    bases, blocks = [], []
    for x, cov, width in zip(unfoldings, moments, _widths(ranks)):
        basis = np.sqrt(x.shape[2]) * oracle_top_eigenvectors(cov, x.shape[2])[0][:, :width]
        bases.append(basis)
        blocks.append((x.reshape(-1, x.shape[2]) @ basis).reshape(*x.shape[:2], width))
    return InitialLoadings(ranks=ranks, bases=bases, blocks=blocks)


def sliced_initial_loadings(
    xs: TensorSeries, ranks: Ranks | tuple[int, Sequence[int]]
) -> InitialLoadings:
    """factor_model.initial_loadings with each basis sliced from the full
    eigenbasis, so every request takes the full eigen path: the oracle for a
    first pass that solves only the columns it keeps."""
    return _full_eigh_first_pass(
        xs, ranks, lambda x: x.reshape(-1, x.shape[2]).T @ x.reshape(-1, x.shape[2])
    )


def maxima_ranks(xs: TensorSeries, r_max: int, k_max: Sequence[int]) -> Ranks:
    """The eigenvalue-ratio rule on a first pass at the candidate maxima:
    the ratios of each mode are taken over the leading eigenvalues of the
    projected covariance of its block, compressed through the leading
    prod(c) / c_m columns of its first-pass eigenbasis. factor_model used
    this rule before select_ranks compressed each mode on the other modes'
    row moments; it is the oracle for the ranks that rule chooses."""
    maxima = (r_max, *k_max)
    init = sliced_initial_loadings(xs, Ranks(r_max, tuple(k_max)))
    r, *k = (
        _ratio_argmax(top_eigenvectors(cov, c + 1)[1], c)
        for cov, c in zip(factor_model._projected_covariances(init.blocks), maxima)
    )
    return Ranks(r, tuple(k))


def row_moment_spectra(xs: TensorSeries, r_max: int, k_max: Sequence[int]) -> list[np.ndarray]:
    """Per mode m, the c_m + 1 leading eigenvalues that
    factor_model.select_ranks reads, up to scale, computed by mode products
    on the series: each mode's row moment is the second moment of its
    fibers, its leading eigenvectors compress the mode through
    tensor.mode_product, and each mode's covariance is summed over the
    fibers of the compressed series. The oracle for the partial traces and
    Kronecker products of select_ranks."""
    t, maxima = xs.num_periods, (r_max, *k_max)

    def fiber_moment(values, mode):
        fibers = np.moveaxis(values, mode + 1, 1).reshape(t, values.shape[mode + 1], -1)
        return np.einsum("tpa,tqa->pq", fibers, fibers)

    leading = [oracle_top_eigenvectors(fiber_moment(xs.values, j), c)[0]
               for j, c in enumerate(maxima)]
    spectra = []
    for mode, c in enumerate(maxima):
        compressed = xs.values
        for j, u in enumerate(leading):
            if j != mode:
                compressed = mode_product(compressed, u.T, j + 1)
        spectra.append(oracle_top_eigenvectors(fiber_moment(compressed, mode), c + 1)[1])
    return spectra


def sliced_fit_factor_model(
    ys: TensorSeries, ranks: Ranks | None = None, r_max: int = 3, k_max: Sequence[int] | None = None
) -> tuple[TensorFactorModel, FactorSeries]:
    """factor_model.fit_factor_model on sliced_initial_loadings."""
    z = cell_standardization(ys.values)
    xs = standardize(ys, z)
    init = sliced_initial_loadings(
        xs, rank_bounds(xs.tensor_dims, r_max, k_max) if ranks is None else ranks
    )
    loadings = projected_loadings(init)
    model = TensorFactorModel(
        ranks=init.ranks, loadings=loadings, standardization=z, provider_ids=list(ys.provider_ids)
    )
    return model, extract_factors(xs, loadings)


@contextmanager
def sliced_first_pass() -> Iterator[None]:
    """Run the tensor forecaster handles on sliced_fit_factor_model inside the block."""
    saved = evaluation.fit_factor_model
    evaluation.fit_factor_model = sliced_fit_factor_model
    try:
        yield
    finally:
        evaluation.fit_factor_model = saved


# ---------------------------------------------------------------------------
# Scalar score forecaster: one series at a time, np.convolve trend, lstsq AR
# fits and Python recursions. The oracle for the batched forecast module.


def scalar_classical_decompose(x: np.ndarray, period: int) -> np.ndarray:
    """forecast.classical_decompose for one series: its seasonal indices."""
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
    detrended = x[half : t - half] - np.convolve(x, weights, mode="valid")
    positions = np.arange(half, t - half) % m
    seasonal = np.array([detrended[positions == p].mean() for p in range(m)])
    seasonal -= seasonal.mean()
    return seasonal


def padded_classical_decompose(x: np.ndarray, period: int) -> np.ndarray:
    """forecast.classical_decompose with the detrended interior laid out in
    whole cycles, zeros outside it, and summed cycle by cycle: the layout it
    replaced, whose results it must equal bit for bit."""
    rows = np.ascontiguousarray(np.asarray(x, dtype=float).reshape(len(x), -1).T)
    k, t = rows.shape
    m, half = period, period // 2
    csum = np.zeros((k, t + 1))
    np.cumsum(rows, axis=1, out=csum[:, 1:])
    window_sums = csum[:, m:] - csum[:, :-m]
    if m % 2 == 0:
        interior = (window_sums[:, :-1] + window_sums[:, 1:]) / (2 * m)
    else:
        interior = window_sums / m
    cycles = -(-(t - half) // m)
    laid_out = np.zeros((k, cycles * m))
    laid_out[:, half : t - half] = rows[:, half : t - half] - interior
    by_cycle = laid_out.reshape(k, cycles, m)
    seasonal = by_cycle[:, 0].copy()
    for c in range(1, cycles):
        seasonal += by_cycle[:, c]
    seasonal /= np.bincount(np.arange(half, t - half) % m, minlength=m)
    seasonal -= seasonal.mean(axis=1, keepdims=True)
    return seasonal.T.reshape(m, *np.shape(x)[1:])


def _scalar_ar_design(x: np.ndarray, order: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    y = x[start:]
    cols = [np.ones(len(y))] + [x[start - i : len(x) - i] for i in range(1, order + 1)]
    return np.column_stack(cols), y


def scalar_fit_ar(x: np.ndarray, order: int) -> ARFit:
    """forecast.fit_ar for one series (T,), by lstsq: a one-column ARFit."""
    x = np.asarray(x, dtype=float)
    design, y = _scalar_ar_design(x, order, order)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return ARFit(intercept=beta[:1], coeffs=beta[1:, None])


def scalar_fit_ar1(x: np.ndarray) -> ARFit:
    """forecast.fit_ar1 for one series, by lstsq."""
    x = np.asarray(x, dtype=float)
    if np.ptp(x[:-1]) == 0.0:
        raise ValueError("constant series: lagged regressor has zero variance")
    return scalar_fit_ar(x, 1)


def scalar_fit_ar_aic(x: np.ndarray, max_order: int) -> ARFit:
    """forecast.fit_ar_aic for one series: one lstsq per candidate order."""
    x = np.asarray(x, dtype=float)
    pmax = max(0, min(int(max_order), (len(x) - 2) // 2))
    aics = []
    for p in range(pmax + 1):
        design, y = _scalar_ar_design(x, p, pmax)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        sigma2 = float(np.mean((y - design @ beta) ** 2))
        n_eff = len(y)
        aic = (n_eff * np.log(sigma2) if sigma2 > 0 else -np.inf) + 2 * (p + 1)
        aics.append(aic)
    best = int(np.argmin(aics))
    return scalar_fit_ar(x, best)


def scalar_forecast_ar(fit: ARFit, history: np.ndarray, n: int) -> np.ndarray:
    """forecast.forecast_ar for a one-column fit and one series (T,)."""
    history = np.asarray(history, dtype=float)
    window = list(history[len(history) - fit.order :])
    intercept, coeffs = float(fit.intercept[0]), [float(c) for c in fit.coeffs[:, 0]]
    out = np.empty(n)
    for h in range(n):
        value = intercept + sum(c * window[-1 - i] for i, c in enumerate(coeffs))
        out[h] = value
        window.append(value)
    return out


def scalar_adjusted(x: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Seasonal indices, seasonally adjusted series and the flat test of one series."""
    seasonal = scalar_classical_decompose(x, period)
    adjusted = x - seasonal[np.arange(len(x)) % period]
    tolerance = forecast._FLAT_TOLERANCE * max(1.0, float(np.max(np.abs(adjusted))))
    return seasonal, adjusted, bool(np.ptp(adjusted) <= tolerance)


def scalar_forecast_series(
    x: np.ndarray, n: int, *, score: ScoreModel = ScoreModel()
) -> np.ndarray:
    """forecast.forecast_series as a loop over the series of the block."""
    period = score.period
    x = np.asarray(x, dtype=float)
    t = x.shape[0]
    series = x.reshape(t, -1)
    out = np.empty((n, series.shape[1]))
    for j in range(series.shape[1]):
        seasonal, adjusted, flat = scalar_adjusted(series[:, j], period)
        if flat:
            extrapolated = float(np.mean(adjusted))
        elif score.kind == "ar1":
            extrapolated = scalar_forecast_ar(scalar_fit_ar1(adjusted), adjusted, n)
        else:
            extrapolated = scalar_forecast_ar(scalar_fit_ar_aic(adjusted, score.max_order), adjusted, n)
        out[:, j] = extrapolated + seasonal[(t + np.arange(n)) % period]
    return out.reshape(n, *x.shape[1:])


def chunked_forecast_series(
    x: np.ndarray, n: int, *, score: ScoreModel = ScoreModel()
) -> np.ndarray:
    """forecast.forecast_series as it ran before its chunk bound moved into
    _ar_factor: every step, from the decomposition to the recursion, once per
    chunk of 32 series."""
    x = np.asarray(x, dtype=float)
    t = x.shape[0]
    series = x.reshape(t, -1)
    out = np.empty((n, series.shape[1]))
    for lo in range(0, series.shape[1], 32):
        block = series[:, lo : lo + 32]
        seasonal = forecast.classical_decompose(block, score.period)
        adjusted = block - seasonal[np.arange(t) % score.period]
        scale = np.maximum(1.0, np.max(np.abs(adjusted), axis=0))
        flat = np.ptp(adjusted, axis=0) <= forecast._FLAT_TOLERANCE * scale
        extrapolated = np.empty((n, block.shape[1]))
        extrapolated[:, flat] = forecast._rows(adjusted[:, flat]).mean(axis=1)
        if not flat.all():
            live = adjusted[:, ~flat]
            if score.kind == "ar1":
                fit = forecast.fit_ar1(live)
                extrapolated[:, ~flat] = forecast.forecast_ar1(fit, live[-1], n)
            else:
                fit = forecast.fit_ar_aic(live, score.max_order)
                extrapolated[:, ~flat] = forecast.forecast_ar(fit, live, n)
        out[:, lo : lo + 32] = extrapolated + seasonal[(t + np.arange(n)) % score.period]
    return out.reshape(n, *x.shape[1:])


@contextmanager
def recorded_score_blocks() -> Iterator[list[tuple[np.ndarray, int, ScoreModel]]]:
    """Record (x, n, score) of every forecast_series call made inside the
    block, by the baselines and by forecast_factors."""
    calls: list[tuple[np.ndarray, int, ScoreModel]] = []
    real, saved = forecast.forecast_series, benchmarks.forecast_series

    def record(x, n, *, score=ScoreModel()):
        calls.append((np.array(x, dtype=float), n, score))
        return real(x, n, score=score)

    forecast.forecast_series = benchmarks.forecast_series = record
    try:
        yield calls
    finally:
        forecast.forecast_series, benchmarks.forecast_series = real, saved


def oracle_rolling_evaluate(
    forecast_fn,
    ts: TensorSeries,
    plan: RollingPlan,
    model: str = "model",
) -> EvalReport:
    """evaluation.rolling_evaluate with one error and one dispersion array per
    horizon, the target's dispersion recomputed for each window and horizon
    that scores it: the oracle of the single (horizon, window, provider)
    error array."""
    plan.validate_for(ts.num_periods)
    t_train = plan.train_length
    t_test = ts.num_periods - t_train
    horizons = sorted(plan.horizons)
    n_max = horizons[-1]
    num_providers = ts.values.shape[1]
    cells_per_provider = int(np.prod(ts.tensor_dims[1:]))

    window_counts = {n: t_test - n for n in horizons}
    traces = {n: np.full((w, num_providers), np.nan) for n, w in window_counts.items()}
    norms = {n: np.full((w, num_providers), np.nan) for n, w in window_counts.items()}
    failed_windows: dict[int, str] = {}

    for w in range(max(window_counts.values())):
        train = TensorSeries(
            values=ts.values[w : w + t_train],
            period_starts=ts.period_starts[w : w + t_train],
            provider_ids=ts.provider_ids,
        )
        try:
            fc = np.asarray(forecast_fn(train, n_max), dtype=float)
            if fc.shape != (n_max, *ts.tensor_dims):
                raise ValueError(
                    f"forecaster returned shape {fc.shape}, expected {(n_max, *ts.tensor_dims)}"
                )
        except Exception as exc:  # noqa: BLE001 - graceful degradation per window
            failed_windows[w] = f"{type(exc).__name__}: {exc}"
            continue
        for n in horizons:
            if w >= window_counts[n]:
                continue
            target = ts.values[w + t_train + n - 1]
            err = target - fc[n - 1]
            flat_t = target.reshape(num_providers, -1)
            traces[n][w] = np.sum(err.reshape(num_providers, -1) ** 2, axis=1) / cells_per_provider
            norms[n][w] = np.mean((flat_t - flat_t.mean(axis=1, keepdims=True)) ** 2, axis=1)

    cells = []
    for n in horizons:
        bad = [w for w in failed_windows if w < window_counts[n]]
        note = failed_windows[bad[0]] if bad else ""
        for i, pid in enumerate(ts.provider_ids):
            trace = traces[n][:, i]
            if bad:
                cells.append(
                    EvalCell(model, n, pid, float("nan"), float("nan"), True,
                             f"window {bad[0]} failed: {note}", trace)
                )
                continue
            mse = float(np.mean(trace))
            norm = float(np.mean(norms[n][:, i]))
            rel = mse / norm if norm > 0 else float("nan")
            cells.append(EvalCell(model, n, pid, mse, rel, False, "", trace))
    return EvalReport(cells=cells)


def rowwise_forecast_csv(path: Path, fc: TensorSeries) -> None:
    """forecast.csv written one csv.writer row per cell: the oracle of the
    CLI's column-wise writer."""
    num_seasonal = fc.values.ndim - 2
    starts = np.datetime_as_string(fc.period_starts, unit="h")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["period_start", "provider", *(f"s{j + 1}" for j in range(num_seasonal)), "value"]
        )
        for t in range(fc.values.shape[0]):
            for i, pid in enumerate(fc.provider_ids):
                block = fc.values[t, i]
                for idx in np.ndindex(*block.shape):
                    writer.writerow([starts[t], pid, *idx, repr(float(block[idx]))])


def deflated_copy(src: Path, dst: Path) -> None:
    """Repack an .npz archive with every member deflated, as archives were
    written before members were stored."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zout:
        for info in zin.infolist():
            zout.writestr(info.filename, zin.read(info))


def buffered_write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """panel.write_npz as it was, each member built in an in-memory buffer and
    copied out of it into the archive: the oracle of the streamed writer."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())
