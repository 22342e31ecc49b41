"""Tensor factor model estimation by two-pass projected eigendecomposition.

The model for a standardized series of (N, S1, ..., SM) tensors x_t is

    x_t = f_t x1 Lambda x2 B(1) ... x(M+1) B(M) + e_t

with an N x R cross-sectional loading Lambda, seasonal loadings B(j) of shape
S_j x K_j, and R x K1 x ... x KM latent factor tensors f_t. Estimation is
one loop over the modes, cross-section first, in two passes. The initial pass
unfolds each mode once, eigendecomposes the unprojected second-moment matrix
of that unfolding, and compresses the unfolding through the leading columns
of its eigenbasis that the ranks call for: a coarse estimate of the loading
space complementary to the mode. The projection pass eigendecomposes the
covariance of each compressed block, which strips most of the noise and
yields the final loadings. Automatic rank selection reads the initial pass's
moments and unfoldings before any basis is formed: each mode's row moment,
a partial trace of another mode's moment, compresses that mode, and the
ratios come from the covariance of the series compressed on every other
mode. The pass then continues at the chosen ranks exactly as a fixed-rank
pass does. Factors follow by linear projection, with the loading scale
conventions

    Lambda' Lambda = N I,   B(j)' B(j) = S_j I

making the projection an exact inverse of the noiseless model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .panel import (
    Standardization,
    TensorSeries,
    as_count,
    as_counts,
    cell_standardization,
    read_npz,
    standardize,
    write_npz,
)
from .tensor import multi_mode_product, top_eigenvectors

__all__ = [
    "Ranks",
    "LoadingSet",
    "FactorSeries",
    "InitialLoadings",
    "TensorFactorModel",
    "initial_loadings",
    "projected_loadings",
    "extract_factors",
    "reconstruct_common",
    "rank_bounds",
    "select_ranks",
    "in_sample_mse",
    "fit_factor_model",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class Ranks:
    """Factor counts: r for the cross-section mode, k[j] for seasonal mode j."""

    r: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", as_count("r", self.r, 1))
        object.__setattr__(self, "k", as_counts("k", self.k, 1))

    def validate_against(self, dims: Sequence[int]) -> None:
        n, seasonal = dims[0], tuple(dims[1:])
        if len(self.k) != len(seasonal):
            raise ValueError(f"{len(self.k)} seasonal ranks for {len(seasonal)} seasonal modes")
        if self.r > n:
            raise ValueError(f"r={self.r} exceeds cross-section size {n}")
        for k_j, s_j in zip(self.k, seasonal):
            if k_j > s_j:
                raise ValueError(f"seasonal rank {k_j} exceeds period {s_j}")


@dataclass
class LoadingSet:
    """Estimated loadings: lam is N x R, b[j] is S_j x K_j.

    Columns follow the eigenvector conventions: lam'lam = N I and
    b[j]'b[j] = S_j I (to 1e-8 relative), largest-magnitude entry of each
    column positive.
    """

    lam: np.ndarray
    b: list[np.ndarray]

    def __post_init__(self):
        for name, mat in [("lam", self.lam)] + [(f"b[{j}]", m) for j, m in enumerate(self.b)]:
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} must be finite")
            p = mat.shape[0]
            gram = mat.T @ mat / p
            if np.max(np.abs(gram - np.eye(mat.shape[1]))) > 1e-8:
                raise ValueError(f"{name} does not satisfy the sqrt({p}) scale convention")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.lam.shape[0], *(m.shape[0] for m in self.b))


@dataclass
class FactorSeries:
    """Factor tensors, extracted or forecast: values[t] has dims (R, K1, ..., KM).

    Period starts and provider labels ride along so downstream reconstruction
    can rebuild a fully labeled TensorSeries.
    """

    values: np.ndarray  # (T, R, K1, ..., KM)
    period_starts: np.ndarray
    provider_ids: list[str]


@dataclass
class InitialLoadings:
    """First-pass output at given ranks, one entry per mode (cross-section first).

    With counts c = (R, K1, ..., KM), mode m's width w_m is prod(c) / c[m].
    bases[m] holds the leading w_m columns of mode m's first-pass eigenbasis,
    scaled by the square root of its row count; blocks[m] is mode m's stacked
    unfolding compressed through bases[m], of shape (T, p_m, w_m).
    """

    ranks: Ranks
    bases: list[np.ndarray]
    blocks: list[np.ndarray]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(block.shape[1] for block in self.blocks)


@dataclass
class TensorFactorModel:
    """A fitted model: ranks, loadings, and the standardization it was fit under."""

    ranks: Ranks
    loadings: LoadingSet
    standardization: Standardization
    provider_ids: list[str]


def _stack_unfoldings(values: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k unfoldings of every period tensor, stacked along a leading axis.

    values has shape (T, p0, ..., pK-1); the result has shape (T, p_mode, rest)
    whose columns enumerate the remaining modes in ascending order with the
    lowest one varying fastest (the column-major unfolding of tensor.py).
    """
    x = np.moveaxis(values, mode + 1, 1)
    rest = x.shape[2:]
    if rest:
        # Fortran-order flattening of the trailing axes == C-order of them reversed.
        x = x.transpose(0, 1, *range(x.ndim - 1, 1, -1))
    cols = int(np.prod(rest)) if rest else 1
    return x.reshape(values.shape[0], values.shape[mode + 1], cols)


def _widths(ranks: Ranks) -> list[int]:
    """Per mode, the product of the factor counts of every other mode."""
    counts = (ranks.r, *ranks.k)
    total = int(np.prod(counts))
    return [total // c for c in counts]


def _compressed(x: np.ndarray, cov: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis of a first-pass mode, sqrt(q) times the ``width`` leading
    eigenvectors of its (q, q) moment ``cov``, and its (T, p, q) stacked
    unfolding ``x`` compressed through that basis."""
    # Asking for the width columns alone lets a narrow request on a large
    # moment (two of 168 or 216 at the paper's fixed ranks) take the
    # certified partial path; the rest are one full eigh.
    basis = np.sqrt(x.shape[2]) * top_eigenvectors(cov, width)[0]
    return basis, (x.reshape(-1, x.shape[2]) @ basis).reshape(*x.shape[:2], width)


def initial_loadings(
    xs: TensorSeries, ranks: Ranks | tuple[int, Sequence[int]]
) -> InitialLoadings:
    """First estimation pass at the given ranks, one mode at a time.

    Mode m's stacked unfolding, reshaped to (T p_m, q_m), gives the averaged
    second-moment matrix m'm / (T N S); its basis is sqrt(q_m) times the
    w_m leading sign-normalised eigenvectors from top_eigenvectors, and its
    block is the unfolding times that basis. Each mode is unfolded once.
    At given ranks each unfolding is compressed and dropped before the next
    mode's is built. ``ranks`` may instead be the candidate maxima
    (r_max, k_max) of :func:`rank_bounds`: then every unfolding and moment
    is kept until :func:`select_ranks` has chosen the ranks from them, and
    the bases and blocks follow at the chosen ranks as above.
    """
    if xs.values.ndim < 3:
        raise ValueError("series tensors need a cross-section mode and at least one seasonal mode")
    given = isinstance(ranks, Ranks)
    if given:
        ranks.validate_against(xs.tensor_dims)
    scale = xs.num_periods * int(np.prod(xs.tensor_dims))
    unfoldings, moments, passes = [], [], []
    for mode in range(len(xs.tensor_dims)):
        x = _stack_unfoldings(xs.values, mode)
        m = x.reshape(-1, x.shape[2])
        cov = m.T @ m / scale
        if np.max(np.abs(cov)) == 0.0:
            raise ValueError("degenerate covariance: series is identically zero")
        if given:
            # One unfolding alive at a time: when all three are freed together
            # on a long series, glibc returns their pages to the kernel and
            # the next fit faults them in again (about 2400 page faults per
            # paper-shape fit at T = 342).
            passes.append(_compressed(x, cov, _widths(ranks)[mode]))
        else:
            unfoldings.append(x)
            moments.append(cov)
        del x, m
    if not given:
        ranks = select_ranks(unfoldings, moments, *ranks)
        passes = [_compressed(*args) for args in zip(unfoldings, moments, _widths(ranks))]
    return InitialLoadings(ranks=ranks, bases=[b for b, _ in passes], blocks=[c for _, c in passes])


def _projected_covariances(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Second-pass covariance of each mode from its compressed (T, p_m, w_m)
    block.

    Time is folded into the columns of each block, so every covariance is one
    product of a 2-D block with its transpose, divided by T N S times the
    product of the seasonal extents other than the mode's own.
    """
    dims = [block.shape[1] for block in blocks]
    t = blocks[0].shape[0]
    scale = t * int(np.prod(dims))
    s_total = int(np.prod(dims[1:]))
    covs = []
    for mode, (p, block) in enumerate(zip(dims, blocks)):
        c = block.swapaxes(0, 1).reshape(p, -1)
        covs.append(c @ c.T / (scale * (s_total // p if mode else s_total)))
    return covs


def projected_loadings(init: InitialLoadings) -> LoadingSet:
    """Second estimation pass: final loadings at init.ranks from the projected
    covariances."""
    counts = (init.ranks.r, *init.ranks.k)
    mats = [
        np.sqrt(p) * top_eigenvectors(cov, c)[0]
        for p, c, cov in zip(init.dims, counts, _projected_covariances(init.blocks))
    ]
    return LoadingSet(lam=mats[0], b=mats[1:])


def extract_factors(xs: TensorSeries, loadings: LoadingSet) -> FactorSeries:
    """Linear projection of each tensor onto the factor space.

    f_t = (1/(N S)) x_t x1 lam' x2 b[0]' ... ; with the loading scale
    conventions this inverts the noiseless model exactly.
    """
    if loadings.dims != xs.tensor_dims:
        raise ValueError(f"loading dims {loadings.dims} != tensor dims {xs.tensor_dims}")
    n = xs.tensor_dims[0]
    s_total = int(np.prod(xs.tensor_dims[1:]))
    out = multi_mode_product(xs.values, [None, loadings.lam.T, *(b.T for b in loadings.b)])
    return FactorSeries(
        values=out / (n * s_total),
        period_starts=xs.period_starts.copy(),
        provider_ids=list(xs.provider_ids),
    )


def reconstruct_common(factor_values: np.ndarray, loadings: LoadingSet) -> np.ndarray:
    """Common component on the standardized scale of a factor series
    (T, R, K1, ...): f_t x1 lam x2 b[0] ... for every period t."""
    if factor_values.ndim != len(loadings.b) + 2:
        raise ValueError(f"expected a (T, R, K1, ..., KM) factor series for {len(loadings.b) + 1} "
                         f"loading matrices, got shape {factor_values.shape}")
    return multi_mode_product(factor_values, [None, loadings.lam, *loadings.b])


# Ratios within 10% of the best are treated as tied; without a band, the
# argmax over the near-flat ratios of factorless data is effectively random
# instead of resolving toward the smaller rank.
_RATIO_TIE_BAND = 1.1


def _ratio_argmax(eigvals: np.ndarray, count: int) -> int:
    """Eigenvalue-ratio rule: rank = argmax_i lam_i / lam_{i+1}, 1 <= i <= count,
    over the count + 1 leading eigenvalues in descending order.

    Ties resolve toward the smaller rank, where "tied" means within the
    relative band _RATIO_TIE_BAND of the maximum ratio. Zero-over-zero ratios
    are excluded; positive-over-zero counts as an infinite gap.
    """
    w = np.clip(eigvals, 0.0, None)  # roundoff can leave tiny negatives on PSD input
    num, den = w[:count], w[1 : count + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    ratios[np.isnan(ratios)] = -np.inf
    best = np.max(ratios)
    if best == -np.inf:
        raise ValueError("all candidate eigenvalue ratios are undefined (zero spectrum)")
    return int(np.argmax(ratios >= best / _RATIO_TIE_BAND)) + 1


def _check_bounds(dims: Sequence[int], r_max: int, k_max: Sequence[int]) -> None:
    """Reject candidate maxima that tensors of the given dims cannot take.
    They need one k_max entry per seasonal mode, 1 <= r_max < N and
    1 <= k_j < S_j, so every eigenvalue ratio has a next eigenvalue."""
    n, *seasonal = dims
    if len(k_max) != len(seasonal):
        raise ValueError(f"expected {len(seasonal)} k_max entries for {len(seasonal)} "
                         f"seasonal modes, got {len(k_max)}")
    if not 1 <= r_max < n:
        raise ValueError(f"r_max must lie in [1, {n - 1}], got {r_max}")
    for k_j, s_j in zip(k_max, seasonal):
        if not 1 <= k_j < s_j:
            raise ValueError(f"k_max entry {k_j} must lie in [1, {s_j - 1}]")


def rank_bounds(
    dims: Sequence[int], r_max: int, k_max: Sequence[int] | None
) -> tuple[int, tuple[int, ...]]:
    """Candidate maxima (r_max, k_max) for :func:`select_ranks` on tensors of
    the given dims.

    r_max is capped at N - 1; a k_max of None means min(3, S_j - 1) per seasonal
    mode. An explicit k_max is checked, not lowered: it needs one bound per
    seasonal mode, each in [1, S_j - 1]. Fewer than 2 providers leave no
    cross-section ratio to compare. Either problem is a ValueError.
    """
    if dims[0] < 2:
        raise ValueError("automatic rank selection needs at least 2 providers")
    if k_max is None:
        k_max = [min(3, s_j - 1) for s_j in dims[1:]]
    k_max = as_counts("k_max", k_max, 1)
    bounds = min(as_count("r_max", r_max, 1), dims[0] - 1), k_max
    _check_bounds(dims, *bounds)
    return bounds


def _row_moments(moments: Sequence[np.ndarray], dims: Sequence[int]) -> list[np.ndarray]:
    """Per mode j, its p_j x p_j second moment summed over time and every
    other mode: a partial trace of mode 0's first-pass moment, or of mode
    1's for j = 0. That moment's rows and columns enumerate its other modes
    with the lowest varying fastest, so in C order their axes run from the
    highest mode down."""
    rows = []
    for j in range(len(dims)):
        source = 1 if j == 0 else 0
        axes = [mode for mode in reversed(range(len(dims))) if mode != source]
        full = moments[source].reshape([dims[mode] for mode in axes] * 2)
        # Equal labels on a row axis and its column axis sum their diagonal.
        labels, kept = list(range(len(axes))), axes.index(j)
        cols = labels[:kept] + [len(axes)] + labels[kept + 1 :]
        rows.append(np.einsum(full, labels + cols, [kept, len(axes)]))
    return rows


def select_ranks(
    unfoldings: Sequence[np.ndarray], moments: Sequence[np.ndarray], r_max: int,
    k_max: Sequence[int]
) -> Ranks:
    """Choose factor counts by the eigenvalue-ratio criterion per mode.

    ``unfoldings`` and ``moments`` are a first pass's stacked (T, p_m, q_m)
    unfoldings and q_m x q_m second moments, and (r_max, k_max) the candidate
    maxima c. The c_j leading eigenvectors of each mode's row moment,
    partial traces of the first-pass moments, compress that mode. For each
    mode m the ratios are taken over the c_m + 1 leading eigenvalues of the
    projected covariance of the series compressed on every other mode, as
    in the projected estimation of Yu, He, Kong and Zhang (2022).
    """
    dims = [x.shape[1] for x in unfoldings]
    _check_bounds(dims, r_max, k_max)
    maxima = (r_max, *k_max)
    leading = [top_eigenvectors(row, c)[0] for row, c in zip(_row_moments(moments, dims), maxima)]
    blocks = []
    for mode, x in enumerate(unfoldings):
        # Unfolding columns enumerate the other modes lowest fastest, so their
        # compression is the Kronecker product from the highest mode down.
        compress = reduce(np.kron, [leading[j] for j in reversed(range(len(dims))) if j != mode])
        blocks.append((x.reshape(-1, x.shape[2]) @ compress).reshape(*x.shape[:2], -1))
    r, *k = (
        _ratio_argmax(top_eigenvectors(cov, c + 1)[1], c)
        for cov, c in zip(_projected_covariances(blocks), maxima)
    )
    return Ranks(r, tuple(k))


def in_sample_mse(y: TensorSeries, y_fit: TensorSeries) -> float:
    """Mean squared entrywise difference over all periods and cells."""
    if y.values.shape != y_fit.values.shape:
        raise ValueError(f"shape mismatch {y.values.shape} vs {y_fit.values.shape}")
    return float(np.mean(np.square(y.values - y_fit.values)))


def fit_factor_model(
    ys: TensorSeries, ranks: Ranks | None = None, r_max: int = 3, k_max: Sequence[int] | None = None
) -> tuple[TensorFactorModel, FactorSeries]:
    """Standardize, (optionally) select ranks, and run both estimation passes.

    The first pass runs once. Given no ranks, it receives the candidate
    maxima of :func:`rank_bounds` and chooses the ranks from its own moments
    before forming any basis, so an automatic fit is bitwise the fixed fit at
    the ranks it chose. Returns the fitted model together with the extracted
    factor series.
    """
    z = cell_standardization(ys.values)
    xs = standardize(ys, z)
    if ranks is None:
        ranks = rank_bounds(xs.tensor_dims, r_max, k_max)
    init = initial_loadings(xs, ranks)
    loadings = projected_loadings(init)
    factors = extract_factors(xs, loadings)
    model = TensorFactorModel(
        ranks=init.ranks, loadings=loadings, standardization=z, provider_ids=list(ys.provider_ids)
    )
    return model, factors


def save_model(path: str | Path, model: TensorFactorModel) -> None:
    """Write a model archive (.npz): ranks, loadings, standardization, labels."""
    arrays = {
        "r": np.array(model.ranks.r),
        "k": np.array(model.ranks.k),
        "lam": model.loadings.lam,
        "mu": model.standardization.mu,
        "sigma": model.standardization.sigma,
        "provider_ids": np.array(model.provider_ids),
    }
    for j, mat in enumerate(model.loadings.b):
        arrays[f"b{j}"] = mat
    write_npz(path, arrays)


def load_model(path: str | Path) -> TensorFactorModel:
    """Read an archive written by :func:`save_model`; a record's ValueError
    (ranks that are no counts, non-finite loadings or scales) names the path."""
    archive = read_npz(path, ("r", "k", "lam", "mu", "sigma", "provider_ids"))
    b = read_npz(path, [f"b{j}" for j in range(archive["k"].size)])
    try:
        return TensorFactorModel(
            ranks=Ranks(archive["r"].item(), archive["k"].tolist()),
            loadings=LoadingSet(lam=archive["lam"], b=list(b.values())),
            standardization=Standardization(mu=archive["mu"], sigma=archive["sigma"]),
            provider_ids=[str(p) for p in archive["provider_ids"]],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
