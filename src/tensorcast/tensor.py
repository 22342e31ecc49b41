"""Dense tensor algebra: mode products and batched symmetric eigendecomposition.

Tensors are plain numpy arrays in numpy's own C order (last index varies
fastest). The mode-k unfolding X_(k) of a tensor x is the (p_k, product of
the other extents) matrix whose columns enumerate the remaining modes in
ascending order, the highest one varying fastest: np.moveaxis(x, k, 0)
reshaped to two dimensions. The factor-model code builds it per period in
factor_model._stack_unfoldings. Under that convention the multilinear
identity

    X_(0) == A1 @ F_(0) @ kron(A2, ..., AK).T   for x = f x1 A1 x2 A2 ... xK AK

holds exactly, which is what the factor-model code relies on.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "mode_product",
    "multi_mode_product",
    "top_eigenvectors",
]


def mode_product(x: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k product: premultiply every mode-k fiber of ``x`` by ``a``."""
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for a {x.ndim}-way tensor")
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] != x.shape[mode]:
        raise ValueError(
            f"matrix of shape {a.shape} cannot act on mode {mode} of extent {x.shape[mode]}"
        )
    return np.moveaxis(np.tensordot(a, x, axes=(1, mode)), 0, mode)


def multi_mode_product(x: np.ndarray, matrices: Iterable[np.ndarray | None]) -> np.ndarray:
    """Apply one matrix per mode in sequence; ``None`` leaves a mode untouched."""
    out = x
    for mode, a in enumerate(matrices):
        if a is not None:
            out = mode_product(out, a, mode)
    return out


# A request for the k leading eigenpairs of a stack of p x p matrices (one
# matrix is a stack of one) goes to block subspace iteration with Rayleigh-Ritz
# extraction (Saad, Numerical Methods for Large Eigenvalue Problems, 2011) when
# its block of k + _EXTRA columns is at most p / _PARTIAL_RATIO; every other
# request, such as 5 columns of 63 (no faster by sweeps) or 13 of 168 (never
# certified), is one full np.linalg.eigh of the stack.
# Each orthonormalisation follows _POWERS products with the matrix, from a
# start block seeded with _START_SEED; a member is accepted once its Ritz pairs
# are certified to _CERTIFY_TOL, else it takes the full path after _MAX_SWEEPS
# orthonormalisations, over twice the 4 any seed-0 paper-panel request needed.
_EXTRA = 4
_PARTIAL_RATIO = 24
_POWERS = 3
_MAX_SWEEPS = 10
_CERTIFY_TOL = 1e-12
_START_SEED = 0


def top_eigenvectors(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpairs of a symmetric matrix, or of each matrix of a stack.

    For s of shape (..., p, p) returns (V, w): V is (..., p, k) with the k
    orthonormal eigenvectors for the k largest eigenvalues of each matrix as
    columns, and w is (..., k) with those eigenvalues in descending order.
    Each column is scaled so its largest-magnitude entry is positive (first
    such entry on ties), which pins down the sign left free by the
    eigenproblem. A matrix runs as a stack of one, and a member's result,
    bits and memory layout alike, does not depend on the other members.

    Full-path results are exact LAPACK output. On the partial path (small k
    against p) a member is accepted only when its Ritz values satisfy
    theta_k > beta, where beta = sqrt(max(||S||_F^2 - sum_{i<=k} theta_i^2, 0))
    bounds every eigenvalue outside the leading k, and each Ritz vector's
    residual r_i is at most 1e-12 of its gap
    min(min_{j!=i} |theta_i - theta_j| - ||r_j||, theta_i - beta): by Davis
    and Kahan (1970) the sine of its angle to the true eigenvector is then at
    most 1e-12. Members that are not accepted are decomposed in full.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {s.shape}")
    p = s.shape[-1]
    if not 1 <= k <= p:
        raise ValueError(f"k={k} out of range for a {p}x{p} matrix")
    x = s.reshape(-1, p, p)
    flipped = x.swapaxes(-1, -2)
    # The asymmetry and then the average are formed in one buffer the size of
    # the input: a temporary per step raised the peak RSS of a baselines
    # backtest, whose VFM stack is 2 MB, by about 1 MiB.
    scale = np.maximum(np.abs(x).max(axis=(-2, -1)), 1.0)
    if not np.isfinite(scale).all():  # NaN passes every comparison below
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    buf = np.subtract(x, flipped)
    if (np.abs(buf, out=buf).max(axis=(-2, -1)) > 1e-8 * scale).any():
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    # Covariances assembled from outer-product sums are symmetric only up to
    # roundoff; average with the transpose before decomposing.
    x = np.multiply(np.add(x, flipped, out=buf), 0.5, out=buf)
    leading = _certified_leading if k + _EXTRA <= p / _PARTIAL_RATIO else _full_leading
    v, w = leading(x, k)
    anchor = np.abs(v).argmax(axis=-2)
    signs = np.where(v[np.arange(len(v))[:, None], anchor, np.arange(k)] < 0.0, -1.0, 1.0)
    return (v * signs[:, None, :]).reshape(s.shape[:-1] + (k,)), w.reshape(s.shape[:-2] + (k,))


def _full_leading(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k leading eigenpairs of each symmetric matrix of a (B, p, p) stack
    by np.linalg.eigh; eigenvalues descending, vector signs not yet fixed."""
    w, v = np.linalg.eigh(s)
    order = np.argsort(w)[:, ::-1][:, :k]
    member = np.arange(len(s))[:, None]
    # Gather the columns through the transpose, so each matrix of the result
    # is column-major like the v[:, order] of a 2-D eigh output; the products
    # made with the basis downstream depend on its layout in the last bits.
    return v.swapaxes(1, 2)[member, order].swapaxes(1, 2), w[member, order]


def _certified_leading(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k leading eigenpairs of each symmetric matrix of a (B, p, p) stack by
    certified subspace iteration, with full eigh for the members it does not
    certify; eigenvalues descending, vector signs not yet fixed."""
    b, p, _ = s.shape
    vecs, vals = np.empty((b, p, k)), np.empty((b, k))
    # numpy's pairwise sum over each member's own row, one row at a time: a
    # member's norm, and with it every step below, is the same alone as in any
    # stack (np.einsum's is not) and at any BLAS thread count (a BLAS dot
    # product of length p**2 is not), and no (B, p**2) temporary is made.
    norm = np.sqrt([np.sum(row * row) for row in s.reshape(b, p * p)])
    pending = np.flatnonzero(norm > 0.0)
    c, scale = (s if pending.size == b else s[pending]), norm[pending, None, None]
    start = np.random.default_rng(_START_SEED).standard_normal((p, k + _EXTRA))
    cq = c @ np.broadcast_to(np.linalg.qr(start)[0], (pending.size, p, k + _EXTRA))
    off_diagonal = ~np.eye(k, dtype=bool)
    accepted = np.zeros(b, dtype=bool)
    shortfall = np.full(pending.size, np.inf)
    for sweep in range(_MAX_SWEEPS if pending.size else 0):
        # Dividing each product by the Frobenius norm, which bounds every
        # eigenvalue, keeps the powers of the block from overflowing.
        q = cq / scale
        for _ in range(_POWERS - 1):
            q = c @ q / scale
        q = np.linalg.qr(q)[0]
        cq = c @ q
        theta, y = np.linalg.eigh(q.swapaxes(1, 2) @ cq)
        theta, y = theta[:, : -k - 1 : -1], y[:, :, : -k - 1 : -1]
        ritz = q @ y
        resid = np.linalg.norm(cq @ y - ritz * theta[:, None, :], axis=1)
        beta = np.sqrt(np.maximum(scale[:, 0, 0] ** 2 - np.sum(theta * theta, axis=1), 0.0))
        apart = np.abs(theta[:, :, None] - theta[:, None, :]) - resid[:, None, :]
        nearest = np.min(np.where(off_diagonal, apart, np.inf), axis=2)
        gap = np.minimum(nearest, theta - beta[:, None])
        done = (theta[:, -1] > beta) & np.all((gap > 0.0) & (resid <= _CERTIFY_TOL * gap), axis=1)
        members = pending[done]
        vecs[members], vals[members], accepted[members] = ritz[done], theta[done], True
        # A member with theta_k still at most beta whose shortfall beta -
        # theta_k closed, in this sweep, by less than its size over the sweeps
        # left cannot be certified within the cap at that pace, which only
        # slows as the iteration converges: it leaves now for the full path.
        short = beta - theta[:, -1]
        stalled = (short >= 0.0) & ((shortfall - short) * (_MAX_SWEEPS - 1 - sweep) < short)
        keep = ~(done | stalled)
        if not keep.all():
            pending, c, cq, scale, short = pending[keep], c[keep], cq[keep], scale[keep], short[keep]
            if not pending.size:
                break
        shortfall = short
    rest = np.flatnonzero(~accepted)
    if rest.size:
        vecs[rest], vals[rest] = _full_leading(s[rest], k)
    return vecs, vals
