"""Factor-model estimation tests on synthetic data with known structure."""

from __future__ import annotations

import re

import numpy as np
import pytest

from helpers import (
    deflated_copy,
    einsum_initial_loadings,
    einsum_moments,
    kron,
    make_series,
    noiseless_series,
    orthonormal_loading,
    random_loading_set,
    sliced_first_pass,
    sliced_fit_factor_model,
    subspace_distance,
    unfold,
)
from tensorcast import tensor
from tensorcast.benchmarks import vfm_forecast
from tensorcast.evaluation import SimSpec, make_tensor_forecaster, simulate
from tensorcast.factor_model import (
    FactorSeries,
    LoadingSet,
    Ranks,
    _stack_unfoldings,
    extract_factors,
    fit_factor_model,
    in_sample_mse,
    initial_loadings,
    load_model,
    projected_loadings,
    rank_bounds,
    reconstruct_common,
    save_model,
    select_ranks,
)
from tensorcast.forecast import forecast_observations
from tensorcast.panel import (
    Standardization,
    TensorSeries,
    cell_standardization,
    destandardize,
    read_npz,
    standardize,
    write_npz,
)
from tensorcast.tensor import top_eigenvectors


class TestRanks:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Ranks(0, (1,))
        with pytest.raises(ValueError):
            Ranks(1, (1, 0))

    @pytest.mark.parametrize(
        "r, k", [(1, (1.9, 2)), (1.5, (1, 2)), (1, (1, "2")), (True, (True,)), (1, (2, True))])
    def test_rejects_non_integer_counts(self, r, k):
        with pytest.raises(ValueError, match="must be an integer"):
            Ranks(r, k)

    def test_stores_numpy_integer_counts_as_python_ints(self):
        ranks = Ranks(np.int64(2), np.array([1, 2]))
        assert ranks == Ranks(2, (1, 2))
        assert all(type(v) is int for v in (ranks.r, *ranks.k))

    def test_validates_against_dims(self):
        Ranks(2, (1, 2)).validate_against((3, 4, 5))
        with pytest.raises(ValueError):
            Ranks(4, (1, 2)).validate_against((3, 4, 5))
        with pytest.raises(ValueError):
            Ranks(2, (1, 6)).validate_against((3, 4, 5))
        with pytest.raises(ValueError):
            Ranks(2, (1,)).validate_against((3, 4, 5))


class TestStackUnfoldings:
    def test_matches_per_period_unfold(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((4, 3, 5, 2))
        for mode in range(3):
            stacked = _stack_unfoldings(values, mode)
            for t in range(4):
                np.testing.assert_array_equal(stacked[t], unfold(values[t], mode))


class TestInitialLoadings:
    def test_rank_one_b_hat_spans_kron_of_seasonal_loadings(self):
        rng = np.random.default_rng(1)
        ts, loadings, _ = noiseless_series(rng, (5, 4, 6), (1, 1, 1), t=50)
        init = initial_loadings(ts, Ranks(5, (4, 6)))
        target = kron(loadings.b[1], loadings.b[0])
        assert subspace_distance(init.bases[0][:, :1], target) < 1e-10

    def test_zero_series_is_degenerate(self):
        ts = make_series(np.zeros((1, 3, 4, 5)))
        with pytest.raises(ValueError, match="degenerate"):
            initial_loadings(ts, Ranks(3, (4, 5)))

    def test_matrix_case_gamma_spans_cross_section_loading(self):
        rng = np.random.default_rng(2)
        ts, loadings, _ = noiseless_series(rng, (6, 8), (1, 1), t=40)
        init = initial_loadings(ts, Ranks(6, (8,)))
        assert init.bases[1].shape == (6, 6)
        assert subspace_distance(init.bases[1][:, :1], loadings.lam) < 1e-10

    def test_scale_factors(self):
        rng = np.random.default_rng(3)
        ts, _, _ = noiseless_series(rng, (5, 4, 6), (2, 2, 2), t=60, noise_sd=0.1)
        init = initial_loadings(ts, Ranks(5, (4, 6)))
        s_total = 24
        np.testing.assert_allclose(
            init.bases[0].T @ init.bases[0], s_total * np.eye(24), atol=1e-8 * s_total
        )
        np.testing.assert_allclose(
            init.bases[1].T @ init.bases[1], 30 * np.eye(30), atol=1e-8 * 30
        )

    def test_leading_columns_are_top_eigenvectors(self):
        rng = np.random.default_rng(7)
        ts, _, _ = noiseless_series(rng, (5, 4, 6), (2, 1, 2), t=40, noise_sd=0.1)
        init = initial_loadings(ts, Ranks(5, (4, 6)))
        m = _stack_unfoldings(ts.values, 0).reshape(-1, 24)
        cov = m.T @ m / (40 * 5 * 24)
        for k in (1, 2, 5, 24):
            np.testing.assert_array_equal(
                init.bases[0][:, :k], np.sqrt(24) * top_eigenvectors(cov, k)[0]
            )
        for j, s_j in enumerate((4, 6)):
            p = 5 * 24 // s_j
            m = _stack_unfoldings(ts.values, j + 1).reshape(-1, p)
            cov_j = m.T @ m / (40 * 5 * 24)
            for k in (1, 2, p):
                np.testing.assert_array_equal(
                    init.bases[j + 1][:, :k], np.sqrt(p) * top_eigenvectors(cov_j, k)[0]
                )


class TestProjectedLoadings:
    def test_noiseless_recovery_of_seasonal_span(self):
        rng = np.random.default_rng(4)
        ts, loadings, _ = noiseless_series(rng, (9, 7, 24), (1, 1, 2), t=80)
        ranks = Ranks(1, (1, 2))
        fit = projected_loadings(initial_loadings(ts, ranks))
        assert subspace_distance(fit.b[1], loadings.b[1]) < 1e-8
        assert subspace_distance(fit.b[0], loadings.b[0]) < 1e-8
        assert subspace_distance(fit.lam, loadings.lam) < 1e-8

    def test_refit_on_fitted_component_preserves_spans(self):
        rng = np.random.default_rng(5)
        ts, _, _ = noiseless_series(rng, (6, 5, 8), (2, 1, 2), t=100, noise_sd=0.5)
        ranks = Ranks(2, (1, 2))
        fit = projected_loadings(initial_loadings(ts, ranks))
        common = reconstruct_common(extract_factors(ts, fit).values, fit)
        refit_input = make_series(common)
        refit = projected_loadings(initial_loadings(refit_input, ranks))
        assert subspace_distance(fit.lam, refit.lam) < 1e-8
        assert subspace_distance(fit.b[0], refit.b[0]) < 1e-8
        assert subspace_distance(fit.b[1], refit.b[1]) < 1e-8

    def test_full_rank_cross_section_scale(self):
        rng = np.random.default_rng(6)
        ts, _, _ = noiseless_series(rng, (4, 5, 6), (4, 1, 1), t=50)
        ranks = Ranks(4, (1, 1))
        fit = projected_loadings(initial_loadings(ts, ranks))
        np.testing.assert_allclose(fit.lam.T @ fit.lam, 4 * np.eye(4), atol=1e-10 * 4)



class TestExtractFactors:
    def test_zero_input_gives_zero_factors(self):
        rng = np.random.default_rng(8)
        loadings = random_loading_set(rng, (5, 4, 6), (2, 1, 2))
        ts = make_series(np.zeros((7, 5, 4, 6)))
        f = extract_factors(ts, loadings)
        np.testing.assert_array_equal(f.values, np.zeros((7, 2, 1, 2)))

    def test_true_loadings_invert_noiseless_model(self):
        rng = np.random.default_rng(9)
        ts, loadings, factors = noiseless_series(rng, (5, 4, 6), (2, 2, 3), t=40)
        f = extract_factors(ts, loadings)
        np.testing.assert_allclose(f.values, factors, atol=1e-10)

    def test_complete_basis_reconstructs_exactly(self):
        rng = np.random.default_rng(10)
        loadings = random_loading_set(rng, (3, 4, 5), (3, 4, 5))
        values = rng.standard_normal((6, 3, 4, 5))
        ts = make_series(values)
        f = extract_factors(ts, loadings)
        np.testing.assert_allclose(reconstruct_common(f.values, loadings), values, atol=1e-10)

    def test_dims_mismatch(self):
        rng = np.random.default_rng(11)
        loadings = random_loading_set(rng, (5, 4, 6), (1, 1, 1))
        with pytest.raises(ValueError):
            extract_factors(make_series(np.zeros((3, 5, 4, 7))), loadings)

    def test_reconstruction_takes_a_factor_series_only(self):
        rng = np.random.default_rng(11)
        loadings = random_loading_set(rng, (5, 4, 6), (1, 1, 1))
        assert reconstruct_common(np.ones((2, 1, 1, 1)), loadings).shape == (2, 5, 4, 6)
        with pytest.raises(ValueError, match=r"factor series .* got shape \(1, 1, 1\)"):
            reconstruct_common(np.ones((1, 1, 1)), loadings)


class TestFittedValues:
    def test_zero_factors_give_mu(self):
        rng = np.random.default_rng(12)
        loadings = random_loading_set(rng, (3, 4, 5), (1, 1, 1))
        z = Standardization(
            mu=rng.uniform(10, 20, (3, 4, 5)), sigma=rng.uniform(0.5, 2, (3, 4, 5))
        )
        f = FactorSeries(
            values=np.zeros((4, 1, 1, 1)),
            period_starts=np.zeros(4, dtype="datetime64[h]"),
            provider_ids=["a", "b", "c"],
        )
        np.testing.assert_array_equal(
            forecast_observations(f, loadings, z).values, np.broadcast_to(z.mu, (4, 3, 4, 5))
        )

    def test_end_to_end_noiseless_pipeline(self):
        # With a single multi-rank mode the per-cell standardization preserves
        # the factor structure exactly, so the fit must reproduce the data.
        rng = np.random.default_rng(13)
        ts, loadings, _ = noiseless_series(rng, (5, 4, 6), (1, 1, 2), t=60)
        mu = rng.uniform(50, 150, (5, 4, 6))
        sigma = rng.uniform(0.5, 3.0, (5, 4, 6))
        raw = destandardize(ts, Standardization(mu=mu, sigma=sigma))
        model, factors = fit_factor_model(raw, Ranks(1, (1, 2)))
        fit = forecast_observations(factors, model.loadings, model.standardization)
        rel = np.linalg.norm(fit.values - raw.values) / np.linalg.norm(raw.values)
        assert rel < 1e-8

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(14)
        loadings = random_loading_set(rng, (5, 4, 6), (2, 1, 2))
        factors = rng.standard_normal((7, 2, 1, 2))
        z = Standardization(mu=np.zeros((5, 4, 6)), sigma=np.ones((5, 4, 6)))
        starts = np.zeros(7, dtype="datetime64[h]")
        f = FactorSeries(values=factors, period_starts=starts, provider_ids=list("abcde"))
        base = forecast_observations(f, loadings, z).values

        flipped = LoadingSet(
            lam=loadings.lam * np.array([-1.0, 1.0]), b=[m.copy() for m in loadings.b]
        )
        factors_flipped = factors.copy()
        factors_flipped[:, 0] *= -1.0
        f2 = FactorSeries(values=factors_flipped, period_starts=starts, provider_ids=list("abcde"))
        np.testing.assert_allclose(forecast_observations(f2, flipped, z).values, base, atol=1e-12)


class TestRotationInvariance:
    def test_fitted_component_invariant_under_joint_rotation(self):
        rng = np.random.default_rng(15)
        loadings = random_loading_set(rng, (5, 4, 6), (2, 1, 2))
        factors = rng.standard_normal((7, 2, 1, 2))
        base = reconstruct_common(factors, loadings)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = LoadingSet(lam=loadings.lam.copy(), b=[loadings.b[0].copy(), loadings.b[1] @ q])
        # Rotate the matching factor mode the opposite way: mode 3 of (t, r, k1, k2).
        factors_rot = np.einsum("trjk,kl->trjl", factors, q)
        np.testing.assert_allclose(
            reconstruct_common(factors_rot, rotated), base, atol=1e-10
        )


class TestSelectRanks:
    def test_recovers_planted_ranks(self):
        rng = np.random.default_rng(16)
        ts, _, _ = noiseless_series(rng, (9, 7, 24), (1, 1, 2), t=100, noise_sd=1e-3)
        assert select_ranks(initial_loadings(ts, Ranks(3, (3, 3)))) == Ranks(1, (1, 2))

    def test_white_noise_selects_rank_one(self):
        rng = np.random.default_rng(17)
        ts = make_series(rng.standard_normal((200, 6, 5, 8)))
        assert select_ranks(initial_loadings(ts, Ranks(3, (3, 3)))) == Ranks(1, (1, 1))

    def test_candidate_bounds(self):
        ts = make_series(np.ones((5, 3, 4, 5)) + np.arange(5).reshape(-1, 1, 1, 1))
        with pytest.raises(ValueError):
            select_ranks(initial_loadings(ts, Ranks(3, (2, 2))))
        with pytest.raises(ValueError):
            select_ranks(initial_loadings(ts, Ranks(2, (4, 2))))

    def test_zero_series_errors(self):
        ts = make_series(np.zeros((5, 3, 4, 5)))
        with pytest.raises(ValueError, match="degenerate"):
            select_ranks(initial_loadings(ts, Ranks(2, (2, 2))))


class TestInSampleMse:
    def test_identical_series_score_zero(self):
        rng = np.random.default_rng(18)
        ts = make_series(rng.standard_normal((4, 2, 3, 5)))
        assert in_sample_mse(ts, ts) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(19)
        ts = make_series(rng.standard_normal((4, 2, 3, 5)))
        shifted = make_series(ts.values + 0.5)
        assert in_sample_mse(ts, shifted) == pytest.approx(0.25)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(20)
        a = make_series(rng.standard_normal((3, 2, 2, 4)))
        b = make_series(rng.standard_normal((3, 2, 2, 4)))
        total, count = 0.0, 0
        for t in range(3):
            for idx in np.ndindex(2, 2, 4):
                total += (a.values[(t, *idx)] - b.values[(t, *idx)]) ** 2
                count += 1
        assert in_sample_mse(a, b) == pytest.approx(total / count, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            in_sample_mse(make_series(np.zeros((2, 1, 2, 2))), make_series(np.zeros((2, 1, 2, 3))))


class TestNestedRankFit:
    def test_extra_seasonal_rank_never_hurts_in_sample(self):
        rng = np.random.default_rng(21)
        ts, _, _ = noiseless_series(rng, (6, 5, 8), (1, 1, 2), t=80, noise_sd=1.0)
        z = Standardization(mu=np.zeros((6, 5, 8)), sigma=np.ones((6, 5, 8)))
        ranks2 = Ranks(1, (1, 2))
        fit2 = projected_loadings(initial_loadings(ts, ranks2))
        fitted2 = forecast_observations(extract_factors(ts, fit2), fit2, z)
        # Nested comparison: drop the trailing column of the hour loading.
        fit1 = LoadingSet(lam=fit2.lam.copy(), b=[fit2.b[0].copy(), fit2.b[1][:, :1].copy()])
        fitted1 = forecast_observations(extract_factors(ts, fit1), fit1, z)
        assert in_sample_mse(ts, fitted2) <= in_sample_mse(ts, fitted1)


class TestLoadingConsistency:
    def test_loading_error_shrinks_with_sample_size(self):
        # Median subspace error over several seeds must drop from T=100 to T=400.
        dims, ranks = (8, 6, 10), (1, 1, 2)
        errors = {100: [], 400: []}
        for seed in range(7):
            rng = np.random.default_rng(100 + seed)
            loadings = random_loading_set(rng, dims, ranks)
            for t in errors:
                factors = rng.standard_normal((t, *ranks))
                values = reconstruct_common(factors, loadings)
                values = values + 0.8 * rng.standard_normal(values.shape)
                ts = make_series(values)
                r = Ranks(1, (1, 2))
                fit = projected_loadings(initial_loadings(ts, r))
                errors[t].append(subspace_distance(fit.lam, loadings.lam))
        assert np.median(errors[400]) < np.median(errors[100])


def saved_model_members(tmp_path) -> tuple:
    """The path of a fitted model's archive and its members."""
    rng = np.random.default_rng(25)
    ts, _, _ = noiseless_series(rng, (4, 7, 24), (1, 1, 2), t=30, noise_sd=0.3)
    path = tmp_path / "model.npz"
    save_model(path, fit_factor_model(ts, Ranks(1, (1, 2)))[0])
    return path, read_npz(path, ("r", "k", "lam", "b0", "b1", "mu", "sigma", "provider_ids"))


class TestModelArchive:
    def test_round_trip_reproduces_fits(self, tmp_path):
        rng = np.random.default_rng(22)
        ts, _, _ = noiseless_series(rng, (5, 4, 6), (2, 1, 2), t=50, noise_sd=0.3)
        raw = destandardize(
            ts,
            Standardization(
                mu=rng.uniform(10, 20, (5, 4, 6)), sigma=rng.uniform(0.5, 2, (5, 4, 6))
            ),
        )
        model, factors = fit_factor_model(raw, Ranks(2, (1, 2)))
        path = tmp_path / "model.npz"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.ranks == model.ranks
        assert loaded.provider_ids == model.provider_ids
        np.testing.assert_array_equal(loaded.loadings.lam, model.loadings.lam)
        for a, b in zip(loaded.loadings.b, model.loadings.b):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.standardization.mu, model.standardization.mu)
        np.testing.assert_array_equal(loaded.standardization.sigma, model.standardization.sigma)
        xs = standardize(raw, loaded.standardization)
        refit = extract_factors(xs, loaded.loadings)
        np.testing.assert_array_equal(refit.values, factors.values)

    def test_deflated_archive_still_loads(self, tmp_path):
        rng = np.random.default_rng(24)
        ts, _, _ = noiseless_series(rng, (4, 7, 24), (1, 1, 2), t=30, noise_sd=0.3)
        model, _ = fit_factor_model(ts, Ranks(1, (1, 2)))
        save_model(tmp_path / "stored.npz", model)
        deflated_copy(tmp_path / "stored.npz", tmp_path / "deflated.npz")
        loaded = load_model(tmp_path / "deflated.npz")
        assert loaded.ranks == model.ranks
        assert loaded.provider_ids == model.provider_ids
        for a, b in [(loaded.loadings.lam, model.loadings.lam),
                     *zip(loaded.loadings.b, model.loadings.b),
                     (loaded.standardization.mu, model.standardization.mu),
                     (loaded.standardization.sigma, model.standardization.sigma)]:
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("member, name, value", [
        ("lam", "lam", np.nan), ("b1", r"b\[1\]", np.nan), ("mu", "mu", np.nan),
        ("sigma", "sigma", np.inf),
    ])
    def test_non_finite_member_fails_at_load_naming_the_archive(self, tmp_path, member, name,
                                                                 value):
        # Once loaded silently: the Gram check let NaN through, the scales
        # were checked only for sigma > 0, and the forecast failed later.
        path, arrays = saved_model_members(tmp_path)
        arrays[member] = arrays[member].copy()
        arrays[member].flat[0] = value
        write_npz(path, arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {name} must be finite"):
            load_model(path)

    @pytest.mark.parametrize("member, value, message", [
        ("r", np.array(1.9), "r must be an integer, got 1.9"),  # once truncated to 1
        ("r", np.array(True), "r must be an integer, got True"),  # once read as 1
        ("k", np.array([1.0, np.nan]), "k must be an integer, got 1.0"),  # once unnamed
    ], ids=["r fraction", "r bool", "k float with a NaN"])
    def test_rank_member_that_is_no_count_fails_at_load_naming_the_archive(self, tmp_path,
                                                                          member, value, message):
        path, arrays = saved_model_members(tmp_path)
        write_npz(path, {**arrays, member: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_model(path)


class TestFitFactorModel:
    def test_auto_rank_selection(self):
        rng = np.random.default_rng(23)
        ts, loadings, _ = noiseless_series(rng, (9, 7, 24), (1, 1, 2), t=100, noise_sd=1e-3)
        mu = rng.uniform(10, 20, (9, 7, 24))
        raw = destandardize(ts, Standardization(mu=mu, sigma=np.ones((9, 7, 24))))
        model, _ = fit_factor_model(raw)
        assert model.ranks == Ranks(1, (1, 2))

    def test_standardization_estimated_from_input(self):
        rng = np.random.default_rng(24)
        ts, _, _ = noiseless_series(rng, (5, 4, 6), (1, 1, 1), t=60, noise_sd=0.2)
        model, _ = fit_factor_model(ts, Ranks(1, (1, 1)))
        z = cell_standardization(ts.values)
        np.testing.assert_array_equal(model.standardization.mu, z.mu)
        np.testing.assert_array_equal(model.standardization.sigma, z.sigma)

    def test_auto_rank_fit_runs_the_first_pass_once(self, monkeypatch):
        import tensorcast.factor_model as fm

        calls = []

        def counted(xs, ranks):
            calls.append(xs)
            return initial_loadings(xs, ranks)

        monkeypatch.setattr(fm, "initial_loadings", counted)
        rng = np.random.default_rng(25)
        ts, _, _ = noiseless_series(rng, (6, 5, 8), (1, 1, 2), t=60, noise_sd=0.1)
        fit_factor_model(ts)
        assert len(calls) == 1

    def test_auto_ranks_need_two_providers(self, monkeypatch):
        # One provider leaves no cross-section ratio to compare; the bounds
        # say so before any first pass runs.
        import tensorcast.factor_model as fm

        monkeypatch.setattr(fm, "initial_loadings", lambda *_: pytest.fail("first pass ran"))
        ts = make_series(np.random.default_rng(26).standard_normal((30, 1, 7, 24)))
        with pytest.raises(ValueError, match="automatic rank selection needs at least 2 providers"):
            fit_factor_model(ts)

    @pytest.mark.parametrize("r_max, k_max, name", [
        (3, (1.9, 2), "k_max"),  # once truncated to (1, 2)
        (2.5, None, "r_max"),  # once passed through as a float bound
        (True, None, "r_max"),
        (3, (2, np.bool_(True)), "k_max"),
    ])
    def test_rank_bounds_take_integer_counts_only(self, r_max, k_max, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            rank_bounds((9, 7, 24), r_max, k_max)
        assert rank_bounds((9, 7, 24), np.int64(3), (np.int32(2), 3)) == (3, (2, 3))

    def test_each_fit_unfolds_each_mode_once_per_pass(self, monkeypatch):
        # Either fit unfolds the three modes once: an auto-rank fit narrows
        # its blocks to the chosen ranks by slicing, not by unfolding again.
        import tensorcast.factor_model as fm

        modes = []

        def counted(values, mode):
            modes.append(mode)
            return _stack_unfoldings(values, mode)

        monkeypatch.setattr(fm, "_stack_unfoldings", counted)
        rng = np.random.default_rng(27)
        ts, _, _ = noiseless_series(rng, (6, 5, 8), (1, 1, 2), t=60, noise_sd=0.1)
        fit_factor_model(ts, Ranks(1, (1, 2)))
        assert modes == [0, 1, 2]
        modes.clear()
        fit_factor_model(ts)
        assert modes == [0, 1, 2]

    def test_auto_rank_fit_equals_fixed_fit_at_selected_ranks(self):
        rng = np.random.default_rng(26)
        ts, _, _ = noiseless_series(rng, (6, 5, 8), (2, 1, 2), t=60, noise_sd=0.3)
        auto, auto_factors = fit_factor_model(ts)
        fixed, fixed_factors = fit_factor_model(ts, auto.ranks)
        assert auto.ranks == fixed.ranks
        # The auto fit's blocks are sliced from wider products, which round
        # differently in the last bits from the fixed fit's narrow ones.
        auto_mats = [auto.loadings.lam, *auto.loadings.b]
        for a, b in zip(auto_mats, [fixed.loadings.lam, *fixed.loadings.b]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        np.testing.assert_allclose(auto_factors.values, fixed_factors.values, rtol=0, atol=1e-10)


@pytest.fixture(scope="module")
def paper_windows():
    """Training windows of the seed-0 paper panel, spread over the 170 windows
    of the (9, 7, 24) backtest with 171 training weeks."""
    ts, _, _ = simulate(SimSpec(dims=(9, 7, 24), ranks=Ranks(1, (1, 2)), num_periods=342, seed=0))
    return [
        TensorSeries(ts.values[w : w + 171], ts.period_starts[w : w + 171], ts.provider_ids)
        for w in (0, 42, 85, 127, 169)
    ]


class TestEinsumOracle:
    """The BLAS moment products against the einsum oracle in tests/helpers.py.

    The sums run in another order, so results agree to a tolerance, not
    bitwise; 1e-10 is about 700 times the largest forecast difference seen
    over all 170 windows of both TFM handles.
    """

    def test_fixed_rank_loadings_match(self, paper_windows):
        for ys in paper_windows:
            xs = standardize(ys, cell_standardization(ys.values))
            ranks = Ranks(1, (1, 2))
            new = projected_loadings(initial_loadings(xs, ranks))
            with einsum_moments():
                old = projected_loadings(einsum_initial_loadings(xs, ranks))
            for a, b in zip([new.lam, *new.b], [old.lam, *old.b]):
                # Eigenvector signs are free; align each column before comparing.
                signs = np.sign(np.sum(a * b, axis=0))
                np.testing.assert_allclose(a * signs, b, rtol=0, atol=1e-10)

    def test_auto_ranks_match(self, paper_windows):
        for ys in paper_windows:
            xs = standardize(ys, cell_standardization(ys.values))
            bounds = Ranks(*rank_bounds(xs.tensor_dims, 3, None))
            new = select_ranks(initial_loadings(xs, bounds))
            with einsum_moments():
                old = select_ranks(einsum_initial_loadings(xs, bounds))
            assert new == old

    @pytest.mark.parametrize("ranks", [Ranks(1, (1, 2)), None], ids=["fixed", "auto"])
    def test_forecasts_match(self, paper_windows, ranks):
        fn = make_tensor_forecaster(ranks=ranks)
        for ys in paper_windows:
            new = fn(ys, 26)
            with einsum_moments():
                old = fn(ys, 26)
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-10)


class TestSlicedFirstPassOracle:
    """The first pass that solves only the columns it keeps, and the narrowing
    that slices the wide blocks, against the oracle in tests/helpers.py that
    solves every column and recompresses each narrowed block from a fresh
    unfolding. Certified vectors and sliced products differ from it in the
    last bits (at most 5.8e-15 in the loadings and 7.9e-14 in the forecasts
    of these windows), so the tolerance is the 1e-10 of the einsum oracle."""

    @pytest.mark.parametrize("ranks", [Ranks(1, (1, 2)), None], ids=["fixed", "auto"])
    def test_loadings_and_ranks_match(self, paper_windows, ranks):
        for ys in paper_windows:
            new, _ = fit_factor_model(ys, ranks)
            old, _ = sliced_fit_factor_model(ys, ranks)
            assert new.ranks == old.ranks
            new_mats = [new.loadings.lam, *new.loadings.b]
            for a, b in zip(new_mats, [old.loadings.lam, *old.loadings.b]):
                # Eigenvector signs are free; align each column before comparing.
                signs = np.sign(np.sum(a * b, axis=0))
                np.testing.assert_allclose(a * signs, b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("ranks", [Ranks(1, (1, 2)), None], ids=["fixed", "auto"])
    def test_forecasts_match(self, paper_windows, ranks):
        fn = make_tensor_forecaster(ranks=ranks)
        for ys in paper_windows:
            new = fn(ys, 26)
            with sliced_first_pass():
                old = fn(ys, 26)
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-10)

    def test_paper_shape_requests_take_their_eigen_paths(self, paper_windows, monkeypatch):
        # At the paper's fixed ranks the first pass keeps 2 of 168 and 2 of 216
        # columns, which certify, and 1 of 63, which goes to full eigh with no
        # sweep, as does each 9-column request of auto ranks' candidate maxima.
        # VFM's two leading vectors of each 168 x 168 covariance certify.
        full, qr = [], []
        real_full, real_qr = tensor._full_leading, np.linalg.qr
        monkeypatch.setattr(tensor, "_full_leading",
                            lambda m, k: full.append(m.shape) or real_full(m, k))
        monkeypatch.setattr(np.linalg, "qr",
                            lambda a, *args, **kw: qr.append(a.shape) or real_qr(a, *args, **kw))
        ys = paper_windows[0]
        xs = standardize(ys, cell_standardization(ys.values))
        initial_loadings(xs, Ranks(1, (1, 2)))
        assert full == [(1, 63, 63)]
        assert {shape[-2] for shape in qr} == {168, 216}
        full.clear(), qr.clear()
        initial_loadings(xs, Ranks(*rank_bounds(xs.tensor_dims, 3, None)))
        assert full == [(1, 168, 168), (1, 216, 216), (1, 63, 63)]
        assert qr == []
        full.clear(), qr.clear()
        vfm_forecast(ys, 26)
        assert full == []
        assert (9, 168, 6) in qr
