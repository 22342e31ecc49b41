"""Tensor algebra tests, anchored on a brute-force index-mapping oracle."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import frobenius_norm, hadamard, kron, oracle_top_eigenvectors, refold, unfold
from tensorcast import tensor
from tensorcast.evaluation import SimSpec, simulate
from tensorcast.factor_model import Ranks
from tensorcast.panel import cell_standardization, standardize
from tensorcast.tensor import mode_product, multi_mode_product, top_eigenvectors


def reference_unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Element-by-element unfolding: remaining modes in ascending order,
    lowest remaining mode varying fastest."""
    p = x.shape
    rest = [m for m in range(x.ndim) if m != mode]
    ncols = 1
    for m in rest:
        ncols *= p[m]
    out = np.empty((p[mode], ncols))
    for idx in np.ndindex(*p):
        col = 0
        stride = 1
        for m in rest:
            col += idx[m] * stride
            stride *= p[m]
        out[idx[mode], col] = x[idx]
    return out


def random_loadings(rng, dims, ranks):
    return [rng.standard_normal((p, r)) for p, r in zip(dims, ranks)]


class TestUnfold:
    def test_vector_unfolds_to_column(self):
        x = np.array([1.0, 2.0, 3.0])
        m = unfold(x, 0)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m[:, 0], x)

    def test_2x2x2_matches_index_enumeration(self):
        # Entries i+2j+4k over 1-based indices; mode-1 unfolding enumerates
        # columns as (j,k) = (1,1),(2,1),(1,2),(2,2).
        x = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x[i, j, k] = (i + 1) + 2 * (j + 1) + 4 * (k + 1)
        expected = np.array([[7.0, 9.0, 11.0, 13.0], [8.0, 10.0, 12.0, 14.0]])
        np.testing.assert_array_equal(unfold(x, 0), expected)
        np.testing.assert_array_equal(reference_unfold(x, 0), expected)

    def test_matches_oracle_on_random_tensors(self):
        rng = np.random.default_rng(0)
        for shape in [(3, 4), (3, 4, 5), (2, 3, 2, 4)]:
            x = rng.standard_normal(shape)
            for mode in range(len(shape)):
                np.testing.assert_array_equal(unfold(x, mode), reference_unfold(x, mode))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 2)


class TestRefold:
    def test_column_refolds_to_vector(self):
        m = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(refold(m, 0, (3,)), np.array([1.0, 2.0, 3.0]))

    def test_inverts_unfold_on_all_modes(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            np.testing.assert_array_equal(refold(unfold(x, mode), mode, x.shape), x)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            refold(np.zeros((3, 4)), 0, (3, 5))

    def test_refold_of_matrix_product_is_mode_product(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((3, 4, 2))
        a = rng.standard_normal((5, 3))
        via_refold = refold(a @ unfold(f, 0), 0, (5, 4, 2))
        np.testing.assert_allclose(via_refold, mode_product(f, a, 0), rtol=0, atol=1e-12)


class TestModeProduct:
    def test_identity_matrix_is_noop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            np.testing.assert_array_equal(mode_product(x, np.eye(x.shape[mode]), mode), x)

    def test_ones_row_sums_fibers(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            ones = np.ones((1, x.shape[mode]))
            summed = mode_product(x, ones, mode)
            np.testing.assert_allclose(summed, np.sum(x, axis=mode, keepdims=True), atol=1e-12)

    def test_defining_identity_with_unfold(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            a = rng.standard_normal((6, x.shape[mode]))
            np.testing.assert_allclose(
                unfold(mode_product(x, a, mode), mode), a @ unfold(x, mode), atol=1e-12
            )

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((6, 5))
        left = mode_product(mode_product(x, a, 1), b, 2)
        right = mode_product(mode_product(x, b, 2), a, 1)
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left - right)) <= 1e-12 * scale

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((3, 4)), np.zeros((2, 5)), 1)


class TestKron:
    def test_scalar_one_is_identity(self):
        b = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(kron(np.array([[1.0]]), b), b)

    def test_identity_times_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


class TestFactorUnfoldingIdentities:
    """Numerical conformance of the unfolding convention to the factor-model
    identities: for x = f x1 L x2 B1 ... the mode-0 unfolding factors as
    L @ unfold(f, 0) @ kron(B_M, ..., B_1).T, and the mode-j unfolding as
    B_j @ unfold(f, j) @ kron(B_M, ..., B_{j+1}, B_{j-1}, ..., B_1, L).T."""

    @pytest.mark.parametrize("num_seasonal", [1, 2, 3])
    def test_cross_section_unfolding(self, num_seasonal):
        rng = np.random.default_rng(10 + num_seasonal)
        dims = [5] + list(rng.integers(2, 7, size=num_seasonal))
        ranks = [2] + [int(rng.integers(1, d + 1)) for d in dims[1:]]
        mats = random_loadings(rng, dims, ranks)
        f = rng.standard_normal(ranks)
        x = multi_mode_product(f, mats)
        expected = mats[0] @ unfold(f, 0) @ kron(*mats[1:][::-1]).T if num_seasonal > 1 else (
            mats[0] @ unfold(f, 0) @ mats[1].T
        )
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(unfold(x, 0) - expected)) <= 1e-10 * scale

    @pytest.mark.parametrize("num_seasonal", [2, 3])
    def test_seasonal_unfoldings(self, num_seasonal):
        rng = np.random.default_rng(20 + num_seasonal)
        dims = [4] + list(rng.integers(2, 6, size=num_seasonal))
        ranks = [2] + [int(rng.integers(1, d + 1)) for d in dims[1:]]
        mats = random_loadings(rng, dims, ranks)
        f = rng.standard_normal(ranks)
        x = multi_mode_product(f, mats)
        for j in range(1, num_seasonal + 1):
            others = [mats[m] for m in range(num_seasonal, 0, -1) if m != j] + [mats[0]]
            gamma = others[0] if len(others) == 1 else kron(*others)
            expected = mats[j] @ unfold(f, j) @ gamma.T
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(unfold(x, j) - expected)) <= 1e-10 * scale


class TestHadamardAndNorm:
    def test_hadamard_with_ones_and_zeros(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(hadamard(x, np.ones_like(x)), x)
        np.testing.assert_array_equal(hadamard(x, np.zeros_like(x)), np.zeros_like(x))

    def test_hadamard_commutes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4))
        y = rng.standard_normal((2, 3, 4))
        np.testing.assert_array_equal(hadamard(x, y), hadamard(y, x))

    def test_hadamard_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hadamard(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_frobenius_norm_basics(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0
        onehot = np.zeros((2, 2, 2))
        onehot[1, 0, 1] = 1.0
        assert frobenius_norm(onehot) == 1.0

    def test_frobenius_norm_matches_unfolded_vector_norm(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 5))
        assert frobenius_norm(x) == pytest.approx(np.linalg.norm(unfold(x, 0).ravel()))


class TestTopEigenvectors:
    @staticmethod
    def eig(s, k):
        return top_eigenvectors(s, k)

    def test_diagonal_matrix(self):
        v, w = self.eig(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(w, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, :2], atol=1e-12)
        assert v[0, 0] > 0 and v[1, 1] > 0

    def test_rank_one_sign_convention(self):
        u = np.array([0.6, -0.8])
        v, w = self.eig(np.outer(u, u), 1)
        np.testing.assert_allclose(w, [1.0], atol=1e-12)
        # Largest-magnitude entry must come out positive.
        np.testing.assert_allclose(v[:, 0], [-0.6, 0.8], atol=1e-12)

    def test_full_decomposition_reconstructs(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        s = a + a.T
        v, w = self.eig(s, 6)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, s, atol=1e-10)

    def test_orthonormality_and_eigen_relation(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 8))
        s = a @ a.T
        v, w = self.eig(s, 4)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-10)
        scale = np.max(np.abs(s))
        assert np.max(np.abs(s @ v - v * w)) <= 1e-8 * scale

    def test_eigenvalues_descend(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((7, 7))
        _, w = self.eig(a + a.T, 7)
        assert np.all(np.diff(w) <= 0)

    def test_rejects_asymmetric(self):
        s = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            self.eig(s, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            self.eig(np.eye(3), 0)
        with pytest.raises(ValueError):
            self.eig(np.eye(3), 4)

    # Two of 24 columns take the full path and two of 168 the certified one;
    # the stacked subclass puts the bad matrix in a stack.
    @pytest.mark.parametrize("p", [24, 168], ids=["full", "certified"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, p, bad):
        s = np.diag(np.arange(p, 0.0, -1.0))
        s[3, 5] = s[5, 3] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            self.eig(s, 2)
        with pytest.raises(ValueError, match="non-finite entries"):
            self.eig(np.full((p, p), bad), 2)


class TestTopEigenvectorsStacked(TestTopEigenvectors):
    """The same cases with the matrix as the second member of a stack; the
    first member's result must equal its own 2-D call."""

    @staticmethod
    def eig(s, k):
        s = np.asarray(s, dtype=float)
        other = np.diag(np.arange(s.shape[0], 0.0, -1.0))
        v, w = top_eigenvectors(np.stack([other, s]), k)
        alone_v, alone_w = top_eigenvectors(other, k)
        np.testing.assert_array_equal(v[0], alone_v)
        np.testing.assert_array_equal(w[0], alone_w)
        return v[1], w[1]


def spectrum_matrix(rng, eigvals):
    """Symmetric matrix with the given eigenvalues and a random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigvals), len(eigvals))))
    return (q * eigvals) @ q.T


class TestStackedEigenLayer:
    def test_full_path_stack_equals_oracle_bitwise(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((2, 3, 24, 24))
        exact = a @ a.swapaxes(-1, -2)
        # Symmetric only to roundoff, as an einsum covariance is: the check
        # and the average with the transpose run.
        rounded = exact + 1e-13 * rng.standard_normal(exact.shape)
        for s in (exact, rounded):
            for k in (1, 3, 24):
                v, w = top_eigenvectors(s, k)
                assert v.shape == (2, 3, 24, k) and w.shape == (2, 3, k)
                for idx in np.ndindex(2, 3):
                    ov, ow = oracle_top_eigenvectors(s[idx], k)
                    np.testing.assert_array_equal(v[idx], ov)
                    np.testing.assert_array_equal(w[idx], ow)
                    np.testing.assert_array_equal(top_eigenvectors(s[idx], k)[0], ov)

    def test_matrix_call_keeps_the_column_major_layout(self):
        # Downstream products depend on operand layout in the last bits.
        rng = np.random.default_rng(21)
        a = rng.standard_normal((24, 24))
        v, _ = top_eigenvectors(a @ a.T, 2)
        assert v.flags.f_contiguous

    @pytest.mark.parametrize("p, k", [(168, 2), (63, 2)], ids=["certified", "full"])
    def test_matrix_call_is_a_stack_of_one(self, p, k):
        rng = np.random.default_rng(24)
        s = spectrum_matrix(rng, np.r_[9.0, 4.0, 0.05 * 0.97 ** np.arange(p - 2)])
        v, w = top_eigenvectors(s, k)
        sv, sw = top_eigenvectors(s[None], k)
        for alone, member in ((v, sv[0]), (w, sw[0])):
            np.testing.assert_array_equal(alone, member)
            assert alone.strides == member.strides

    def test_certified_path_matches_oracle(self, monkeypatch):
        rng = np.random.default_rng(22)
        tail = 0.05 * 0.97 ** np.arange(166)
        s = np.stack([spectrum_matrix(rng, np.r_[lead, tail])
                      for lead in ([9.0, 4.0], [2.0, 1.0], [5.0, 4.5])])
        fallback = []
        real = tensor._full_leading
        monkeypatch.setattr(tensor, "_full_leading",
                            lambda m, k: fallback.append(len(m)) or real(m, k))
        v, w = top_eigenvectors(s, 2)
        assert not fallback  # every member certified, none decomposed in full
        for member, vm, wm in zip(s, v, w):
            ov, ow = oracle_top_eigenvectors(member, 2)
            np.testing.assert_allclose(vm, ov, rtol=0, atol=1e-12)
            np.testing.assert_allclose(wm, ow, rtol=1e-13)
        # Members do not depend on each other, and reruns are byte-identical.
        for member, vm, wm in zip(s, v, w):
            alone_v, alone_w = top_eigenvectors(member, 2)
            np.testing.assert_array_equal(vm, alone_v)
            np.testing.assert_array_equal(wm, alone_w)
        np.testing.assert_array_equal(top_eigenvectors(s, 2)[0], v)

    def test_paper_vfm_stack_members_match_their_solo_solves(self, monkeypatch):
        # VFM's (9, 168, 168) week covariances on the first train-171 window
        # of the seed-0 paper panel. Each member's Frobenius norm, which
        # scales the certified iteration, and its eigenpairs are byte-equal
        # whether it is solved alone or in the stack.
        ts = simulate(SimSpec(dims=(9, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=342,
                              seed=0))[0]
        x = standardize(ts, cell_standardization(ts.values)).values[:171]
        blocks = np.ascontiguousarray(x.transpose(1, 0, 3, 2)).reshape(9, 171, 168)
        blocks -= blocks.mean(axis=1, keepdims=True)
        cov = blocks.swapaxes(1, 2) @ blocks / 171
        squares, fallback = [], []
        real_sum, real_full = np.sum, tensor._full_leading

        def recording_sum(a, *args, **kwargs):
            out = real_sum(a, *args, **kwargs)
            if np.ndim(a) == 1 and np.size(a) == 168 * 168:
                squares.append(out.tobytes())
            return out

        monkeypatch.setattr(np, "sum", recording_sum)
        monkeypatch.setattr(tensor, "_full_leading",
                            lambda m, k: fallback.append(len(m)) or real_full(m, k))
        v, w = top_eigenvectors(cov, 2)
        assert len(squares) == 9 and not fallback  # one norm per member, all certified
        for member, vm, wm, square in zip(cov, v, w, list(squares)):
            alone_v, alone_w = top_eigenvectors(member, 2)
            assert squares[-1] == square
            assert alone_v.tobytes() == vm.tobytes() and alone_w.tobytes() == wm.tobytes()

    def test_near_tied_matrix_takes_the_fallback(self, monkeypatch):
        # lambda_2 / lambda_3 = 0.998 over a slowly decaying tail: no block of
        # 6 columns certifies the second vector, so the member takes full eigh.
        rng = np.random.default_rng(23)
        eigvals = np.r_[3.0, 1.0, 0.998 * 0.995 ** np.arange(166)]
        tied = spectrum_matrix(rng, eigvals)
        clear = spectrum_matrix(rng, np.r_[9.0, 4.0, 0.05 * 0.97 ** np.arange(166)])
        fallback = []
        real = tensor._full_leading
        monkeypatch.setattr(tensor, "_full_leading",
                            lambda m, k: fallback.append(len(m)) or real(m, k))
        v, w = top_eigenvectors(np.stack([clear, tied]), 2)
        assert fallback == [1]
        ov, ow = oracle_top_eigenvectors(tied, 2)
        np.testing.assert_array_equal(v[1], ov)
        np.testing.assert_array_equal(w[1], ow)
        # Its shortfall theta_2 < beta stalls from the second sweep on, so it
        # leaves for eigh then rather than running the whole sweep cap.
        real_qr = np.linalg.qr
        qr_calls = []
        monkeypatch.setattr(np.linalg, "qr",
                            lambda a, *args: qr_calls.append(a.shape) or real_qr(a, *args))
        top_eigenvectors(tied, 2)
        assert len(qr_calls) <= 3 < tensor._MAX_SWEEPS

    def test_zero_matrix_takes_the_fallback(self):
        v, w = top_eigenvectors(np.zeros((168, 168)), 2)
        ov, ow = oracle_top_eigenvectors(np.zeros((168, 168)), 2)
        np.testing.assert_array_equal(v, ov)
        np.testing.assert_array_equal(w, ow)
