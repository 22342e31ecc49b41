"""End-to-end acceptance gate: one printed verdict line per checked property.

Run with `pytest tests/test_acceptance.py -s` to see every line. The two
hourly-panel reproductions need the public provider CSVs; point
TENSORCAST_PJM_DATA at the directory holding them (optionally
TENSORCAST_PJM_SPAN = START..END and TENSORCAST_PJM_WEEK_START) and they run,
otherwise they skip with a visible SKIP line.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import kron, make_series, noiseless_series, random_loading_set, subspace_distance, \
    unfold
from tensorcast.cli import main
from tensorcast.evaluation import RollingPlan, emit_report, make_benchmark_forecaster, \
    make_tensor_forecaster, merge_reports, rolling_evaluate
from tensorcast.factor_model import (
    Ranks,
    extract_factors,
    fit_factor_model,
    fitted_values,
    in_sample_mse,
    initial_loadings,
    projected_loadings,
    reconstruct_common,
)
from tensorcast.forecast import ScoreModel, classical_decompose, fit_ar1, forecast_factors, \
    forecast_observations
from tensorcast.panel import CalendarSpec, Standardization, TensorSeries, fold, ingest_csv
from tensorcast.tensor import multi_mode_product


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {status}{suffix}")
    assert ok, f"{label}: {status}{suffix}"


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def test_unfolding_identities_on_random_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        num_seasonal = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(num_seasonal + 1)]
        ranks = [int(rng.integers(1, d + 1)) for d in dims]
        mats = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        f = rng.standard_normal(ranks)
        x = multi_mode_product(f, mats)

        rest = mats[1:][::-1]
        gamma0 = rest[0] if len(rest) == 1 else kron(*rest)
        worst = max(worst, _rel_err(unfold(x, 0), mats[0] @ unfold(f, 0) @ gamma0.T))
        for j in range(1, num_seasonal + 1):
            others = [mats[m] for m in range(num_seasonal, 0, -1) if m != j] + [mats[0]]
            gamma = others[0] if len(others) == 1 else kron(*others)
            worst = max(worst, _rel_err(unfold(x, j), mats[j] @ unfold(f, j) @ gamma.T))
    elapsed = time.perf_counter() - start
    _verdict(
        "unfolding identities on 200 random instances",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_noiseless_estimation_recovers_spans_and_values():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    ranks = Ranks(1, (1, 2))
    xs, loadings, _ = noiseless_series(rng, (9, 7, 24), (1, 1, 2), t=100)
    est = projected_loadings(initial_loadings(xs, ranks))
    distances = [subspace_distance(est.lam, loadings.lam)]
    distances += [subspace_distance(a, b) for a, b in zip(est.b, loadings.b)]
    recon = reconstruct_common(extract_factors(xs, est).values, est)
    fit_err = _rel_err(recon, xs.values)
    elapsed = time.perf_counter() - start
    _verdict(
        "noiseless recovery of loadings and fitted values",
        max(distances) < 1e-8 and fit_err < 1e-8 and elapsed < 10.0,
        f"max span dist {max(distances):.2e}, fit rel err {fit_err:.2e}, {elapsed:.2f}s",
    )


def test_loading_error_shrinks_with_sample_size():
    start = time.perf_counter()
    ranks = Ranks(1, (1, 2))
    errors = {100: [], 400: []}
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        loadings = random_loading_set(rng, (9, 7, 24), (1, 1, 2))
        factors = rng.standard_normal((400, 1, 1, 2))
        values = reconstruct_common(factors, loadings) + 0.5 * rng.standard_normal(
            (400, 9, 7, 24)
        )
        for t in (100, 400):
            xs = make_series(values[:t])
            est = projected_loadings(initial_loadings(xs, ranks))
            errors[t].append(
                [subspace_distance(est.lam, loadings.lam)]
                + [subspace_distance(a, b) for a, b in zip(est.b, loadings.b)]
            )
    med100 = np.median(np.array(errors[100]), axis=0)
    med400 = np.median(np.array(errors[400]), axis=0)
    elapsed = time.perf_counter() - start
    _verdict(
        "median loading error shrinks from T=100 to T=400",
        bool(np.all(med400 < med100)) and elapsed < 120.0,
        "medians "
        + ", ".join(f"{a:.3e}->{b:.3e}" for a, b in zip(med100, med400))
        + f", {elapsed:.1f}s",
    )


def test_periodic_factor_system_forecasts_exactly():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    dims, ranks = (9, 7, 24), Ranks(1, (1, 2))
    loadings = random_loading_set(rng, dims, (1, 1, 2))
    t_obs, period = 156, 52
    t_axis = np.arange(t_obs)
    coords = []
    for amp, mean in [(1.0, 0.2), (0.6, -0.4)]:
        phase = rng.uniform(0, 2 * np.pi)
        coords.append(mean + amp * np.sin(2 * np.pi * t_axis / period + phase))
    factors = np.stack(coords, axis=1).reshape(t_obs, 1, 1, 2)
    xs = make_series(reconstruct_common(factors, loadings))

    est = projected_loadings(initial_loadings(xs, ranks))
    ff = forecast_factors(extract_factors(xs, est), 26, score=ScoreModel(period, "ar1"))
    identity = Standardization(mu=np.zeros(dims), sigma=np.ones(dims))
    fc = forecast_observations(ff, est, identity)

    worst = 0.0
    for n in (1, 4, 13, 26):
        truth = xs.values[t_obs + n - 1 - period]  # periodic continuation
        worst = max(worst, _rel_err(fc.values[n - 1], truth))
    elapsed = time.perf_counter() - start
    _verdict(
        "periodic factor system forecasts at 1, 4, 13, 26 steps",
        worst < 1e-6 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_seasonal_and_ar1_parameter_recovery():
    rng = np.random.default_rng(1005)
    seasonal = rng.standard_normal(7)
    seasonal -= seasonal.mean()
    t_axis = np.arange(70)
    x = 3.0 + 0.25 * t_axis + seasonal[t_axis % 7]
    seasonal_err = float(np.max(np.abs(classical_decompose(x[:, None], 7)[:, 0] - seasonal)))

    phi, c = 0.7, 0.5
    series = np.zeros(2100)
    shocks = rng.standard_normal(2100)
    for i in range(1, 2100):
        series[i] = c + phi * series[i - 1] + shocks[i]
    fit = fit_ar1(series[100:, None])  # burn-in dropped, T=2000
    phi_err = abs(fit.coeffs[0, 0] - phi)
    _verdict(
        "seasonal and AR(1) parameter recovery",
        seasonal_err <= 1e-9 and phi_err <= 0.05,
        f"seasonal err {seasonal_err:.2e}, phi {fit.coeffs[0, 0]:.4f}",
    )


def test_matrix_model_equals_kron_constrained_vector_model():
    rng = np.random.default_rng(1006)
    t_obs, days, hours = 40, 7, 24
    x = rng.standard_normal((t_obs, days, hours))
    xs = TensorSeries(
        values=x,
        period_starts=np.datetime64("2020-01-06T00", "h")
        + (168 * np.arange(t_obs)).astype("timedelta64[h]"),
        provider_ids=[f"day{d}" for d in range(days)],
    )
    ranks = Ranks(1, (2,))
    est = projected_loadings(initial_loadings(xs, ranks))
    recon_matrix = reconstruct_common(extract_factors(xs, est).values, est)

    # Vector model constrained to the Kronecker structure: loadings
    # kron(hour basis, day basis), orthonormal under the scale conventions.
    u = kron(est.b[0], est.lam) / np.sqrt(days * hours)
    vec = x.transpose(0, 2, 1).reshape(t_obs, days * hours)  # day index fastest
    recon_vector = (vec @ u @ u.T).reshape(t_obs, hours, days).transpose(0, 2, 1)
    err = _rel_err(recon_vector, recon_matrix)
    _verdict(
        "matrix model equals kron-constrained vector model",
        err <= 1e-10,
        f"rel err {err:.2e}",
    )


# ---------------------------------------------------------------------------
# hourly-panel reproductions (need the public dataset)

_TABLE_PROVIDERS = ("AEP", "COMED", "DAYTON", "DEOK", "DOM", "DUQ", "FE", "PJME", "PJMW")
_HORIZON_LABELS = {1: "week", 4: "month", 13: "quarter", 26: "semester"}

# Published out-of-sample relative MSE of the tensor model, one row per
# horizon (week, month, quarter, semester) over _TABLE_PROVIDERS.
_TFM_REFERENCE = {
    1: (0.5803, 0.5929, 0.5668, 0.5971, 0.6173, 0.6152, 0.5658, 0.5576, 0.6009),
    4: (0.6148, 0.6191, 0.5883, 0.6310, 0.6578, 0.6563, 0.5923, 0.5981, 0.6257),
    13: (0.6141, 0.6059, 0.5754, 0.6283, 0.6537, 0.6539, 0.5758, 0.5906, 0.6322),
    26: (0.6222, 0.6281, 0.5862, 0.6435, 0.6715, 0.6716, 0.5910, 0.6073, 0.6388),
}

_pjm_cache: dict[str, object] = {}


def _pjm_series():
    """Ingest and fold the hourly panel once per session; None without data."""
    if "series" in _pjm_cache:
        return _pjm_cache["series"]
    data_dir = os.environ.get("TENSORCAST_PJM_DATA")
    if not data_dir:
        _pjm_cache["series"] = None
        return None
    files = sorted(Path(data_dir).glob("*.csv"))
    chosen = [f for f in files if f.stem.split("_")[0].upper() in _TABLE_PROVIDERS]
    span = None
    raw_span = os.environ.get("TENSORCAST_PJM_SPAN", "")
    if raw_span:
        lo, hi = raw_span.split("..")
        span = (lo.strip(), hi.strip())
    panel = ingest_csv(chosen or files, span=span)
    cal = CalendarSpec(week_start=os.environ.get("TENSORCAST_PJM_WEEK_START", "monday"))
    ts = fold(panel, cal)
    _pjm_cache["series"] = (len(panel.timestamps), ts)
    return _pjm_cache["series"]


def _pjm_report():
    """Full rolling backtest of all four models, cached for both panel tests."""
    if "report" in _pjm_cache:
        return _pjm_cache["report"]
    hours, ts = _pjm_series()
    start = time.perf_counter()
    plan = RollingPlan(train_length=171, horizons=(1, 4, 13, 26))
    forecasters = {
        "TFM": make_tensor_forecaster(ranks=Ranks(1, (1, 2)), score=ScoreModel(period=52)),
        "MFM": make_benchmark_forecaster("mfm", score=ScoreModel(period=52)),
        "VFM": make_benchmark_forecaster("vfm", score=ScoreModel(period=52)),
        "FPCA": make_benchmark_forecaster("fpca", score=ScoreModel(period=52)),
    }
    report = merge_reports(
        [rolling_evaluate(fn, ts, plan, model=name) for name, fn in forecasters.items()]
    )
    _pjm_cache["report"] = (report, time.perf_counter() - start)
    return _pjm_cache["report"]


def _skip_without_dataset(label: str):
    if _pjm_series() is None:
        print(f"{label}: SKIP (set TENSORCAST_PJM_DATA to run)")
        pytest.skip("hourly panel dataset not available")


def test_hourly_panel_qualitative_reproduction():
    label = "hourly panel qualitative reproduction"
    _skip_without_dataset(label)
    hours, ts = _pjm_series()
    problems = []

    if (len(ts.provider_ids), hours, ts.num_periods) != (9, 57456, 342):
        problems.append(
            f"dims N={len(ts.provider_ids)}, hours={hours}, T={ts.num_periods}"
        )

    fits = {}
    for k_hour in (1, 2):
        model, factors = fit_factor_model(ts, ranks=Ranks(1, (1, k_hour)))
        fits[k_hour] = (model, factors)
    mse = {
        k: in_sample_mse(ts, fitted_values(f, m.loadings, m.standardization))
        for k, (m, f) in fits.items()
    }
    if not mse[2] < mse[1]:
        problems.append(f"two-factor mse {mse[2]:.5f} !< one-factor {mse[1]:.5f}")

    scores = fits[2][1].values[:, 0, 0, 0]
    centered = scores - scores.mean()
    denom = float(centered @ centered)
    acf = [float(centered[lag:] @ centered[:-lag]) / denom for lag in range(1, 53)]
    peak = int(np.argmax(acf)) + 1
    if not 24 <= peak <= 28:
        problems.append(f"first factor acf peak at lag {peak}")

    report, elapsed = _pjm_report()
    if elapsed >= 1800:
        problems.append(f"backtest took {elapsed:.0f}s")
    models = sorted({c.model for c in report.cells})
    for n in (1, 4, 13, 26):
        for pid in ts.provider_ids:
            scores_by_model = {m: report.cell(m, n, pid).relative_mse for m in models}
            top = scores_by_model.pop("FPCA")
            if not all(top > v for v in scores_by_model.values()):
                problems.append(f"FPCA not highest for {pid} n={n}")
    for pid in ("COMED", "DEOK", "DUQ", "PJMW"):
        for n in (13, 26):
            tfm = report.cell("TFM", n, pid).relative_mse
            rest = [report.cell(m, n, pid).relative_mse for m in models if m != "TFM"]
            if not all(tfm < v for v in rest):
                problems.append(f"TFM not lowest for {pid} n={n}")

    _verdict(label, not problems, "; ".join(problems) or f"backtest {elapsed:.0f}s")


def test_hourly_panel_quantitative_band():
    label = "hourly panel quantitative band"
    _skip_without_dataset(label)
    _, ts = _pjm_series()
    report, _ = _pjm_report()
    out = Path(__file__).resolve().parent.parent / "acceptance_out"
    emit_report(report, out)

    worst, worst_cell = 0.0, ""
    for n, row in _TFM_REFERENCE.items():
        for pid, reference in zip(_TABLE_PROVIDERS, row):
            got = report.cell("TFM", n, pid).relative_mse
            gap = abs(got - reference)
            if gap > worst:
                worst, worst_cell = gap, f"{pid} {_HORIZON_LABELS[n]} {got:.4f} vs {reference:.4f}"
    _verdict(
        label,
        worst <= 0.08,
        f"worst gap {worst:.4f} ({worst_cell}), report in {out}",
    )


def test_seeded_pipeline_is_byte_reproducible(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "\n".join([
            "[simulate]",
            "dims = 3,7,24",
            "ranks = 1,1,1",
            "num_periods = 40",
            "nu_sd = 0.2",
            "[data]",
            "archive = sim.npz",
            "[model]",
            "ranks = 1,1,1",
            "period = 6",
            "[backtest]",
            "train_length = 30",
            "horizons = 1,4",
            "[run]",
            "seed = 5",
            "",
        ])
    )
    outputs = {}
    for run in ("one", "two"):
        out = tmp_path / run
        for command in ("simulate", "fit", "backtest"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
        outputs[run] = {
            name: (out / name).read_bytes()
            for name in ("report.csv", "report.json", "report.md", "trace.csv",
                         "sim.npz", "model.npz")
        }
    same = all(outputs["one"][name] == outputs["two"][name] for name in outputs["one"])
    _verdict(
        "seeded simulate-fit-backtest runs are byte-identical",
        same,
        f"{len(outputs['one'])} files compared",
    )