"""Dense tensor algebra: mode products and symmetric eigendecomposition.

Tensors are plain numpy arrays. The canonical linearization is column-major
(first index varies fastest). The mode-k unfolding X_(k) of a tensor x is the
(p_k, product of the other extents) matrix whose columns enumerate the
remaining modes in ascending order, the lowest one varying fastest; the
factor-model code builds it per period in factor_model._stack_unfoldings.
Under that convention the multilinear identity

    X_(0) == A1 @ F_(0) @ kron(AK, ..., A2).T   for x = f x1 A1 x2 A2 ... xK AK

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


def top_eigenvectors(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenpairs of a symmetric matrix.

    Returns (V, w) with the k orthonormal eigenvectors for the k largest
    eigenvalues as columns of V and the eigenvalues in descending order.
    Each column is scaled so its largest-magnitude entry is positive (first
    such entry on ties), which pins down the sign left free by the
    eigenproblem.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not 1 <= k <= s.shape[0]:
        raise ValueError(f"k={k} out of range for a {s.shape[0]}x{s.shape[0]} matrix")
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.T)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    # Covariances assembled from outer-product sums are symmetric only up to
    # roundoff; average with the transpose before decomposing.
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(w)[::-1][:k]
    w = w[order]
    v = v[:, order]
    anchor = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[anchor, np.arange(k)])
    signs[signs == 0] = 1.0
    return v * signs, w
