"""Paper-shape output guard.

The seed-0 panel of the paper's shape, SimSpec(dims=(9, 7, 24), ranks=(1,
(1, 2)), num_periods=342), is forecast by every model's handle on ten of the
170 windows of a train-171 backtest. Each window's per-provider squared
errors at horizons 1, 4, 13 and 26, and the ranks an automatic fit chose,
must match paper_reference.json: the squared errors at rtol 1e-10, which
roundoff between numpy and BLAS builds stays inside and any real change
breaks, the ranks exactly. A change that alters the arithmetic re-records the
reference and states the largest difference in CHANGES.md:

    PYTHONPATH=src python tests/test_paper_guard.py

The reduced true-rank grid fits each of five true ranks at two noise levels
on the first and last window, and an automatic fit must find the truth in
all 20 fits, and choose the ranks that the rule on a first pass at the
candidate maxima (tests/helpers.py) chooses.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import numpy as np

from helpers import maxima_ranks
from tensorcast import evaluation
from tensorcast.evaluation import SimSpec, simulate
from tensorcast.factor_model import Ranks, fit_factor_model, initial_loadings, rank_bounds
from tensorcast.panel import TensorSeries, cell_standardization, standardize

REFERENCE = Path(__file__).resolve().with_name("paper_reference.json")
RTOL = 1e-10
TRAIN_LENGTH = 171
HORIZONS = (1, 4, 13, 26)
WINDOWS = tuple(int(w) for w in np.linspace(0, 169, 10))  # of windows 0..169

# The handles the benchmark runs (FPCA with four components per day).
HANDLES = {
    "TFM-fixed": lambda: evaluation.make_tensor_forecaster(ranks=Ranks(1, (1, 2))),
    "TFM-auto": lambda: evaluation.make_tensor_forecaster(),
    "MFM": lambda: evaluation.make_benchmark_forecaster("MFM"),
    "VFM": lambda: evaluation.make_benchmark_forecaster("VFM"),
    "FPCA": lambda: evaluation.make_benchmark_forecaster("FPCA", ncomp=4),
}

TRUE_RANKS = (Ranks(1, (1, 2)), Ranks(2, (1, 3)), Ranks(2, (2, 3)), Ranks(3, (2, 2)),
              Ranks(3, (3, 3)))


def paper_panel(ranks: Ranks = Ranks(1, (1, 2)), nu_sd: float = 0.1) -> TensorSeries:
    return simulate(SimSpec(dims=(9, 7, 24), ranks=ranks, num_periods=342, nu_sd=nu_sd,
                            seed=0))[0]


def window(ts: TensorSeries, w: int) -> TensorSeries:
    span = slice(w, w + TRAIN_LENGTH)
    return TensorSeries(ts.values[span], ts.period_starts[span], ts.provider_ids)


def guard_values() -> dict:
    """Per model, the squared errors [window][horizon][provider] (None where
    the horizon's target lies past the evaluation span, as in
    rolling_evaluate), and the ranks TFM-auto chose on each window."""
    ts = paper_panel()
    t_test = ts.num_periods - TRAIN_LENGTH
    chosen = []

    def recording_fit(*args, **kwargs):
        model, factors = fit_factor_model(*args, **kwargs)
        chosen.append([model.ranks.r, *model.ranks.k])
        return model, factors

    errors = {}
    for name, make in HANDLES.items():
        handle = make()
        errors[name] = []
        with mock.patch.object(evaluation, "fit_factor_model",
                               recording_fit if name == "TFM-auto" else fit_factor_model):
            for w in WINDOWS:
                fc = handle(window(ts, w), max(HORIZONS))
                rows = []
                for n in HORIZONS:
                    if w < t_test - n:
                        err = (ts.values[w + TRAIN_LENGTH + n - 1] - fc[n - 1]).reshape(9, -1)
                        rows.append(np.mean(err**2, axis=1).tolist())
                    else:
                        rows.append(None)
                errors[name].append(rows)
    return {"windows": list(WINDOWS), "horizons": list(HORIZONS), "squared_errors": errors,
            "auto_ranks": chosen}


def as_array(rows: list) -> np.ndarray:
    return np.array([[np.full(9, np.nan) if r is None else r for r in w] for w in rows])


def test_paper_shape_outputs_match_the_reference():
    reference = json.loads(REFERENCE.read_text())
    actual = guard_values()
    assert actual["windows"] == reference["windows"]
    assert actual["horizons"] == reference["horizons"]
    assert actual["auto_ranks"] == reference["auto_ranks"]
    for name, expected in reference["squared_errors"].items():
        np.testing.assert_allclose(as_array(actual["squared_errors"][name]), as_array(expected),
                                   rtol=RTOL, atol=0.0, err_msg=name)
    assert set(actual["squared_errors"]) == set(reference["squared_errors"])


def reduced_grid() -> list[tuple[Ranks, float, int, TensorSeries]]:
    return [(ranks, nu_sd, w, window(ts, w))
            for ranks in TRUE_RANKS for nu_sd in (0.1, 1.0)
            for ts in [paper_panel(ranks, nu_sd)]
            for w in (0, ts.num_periods - TRAIN_LENGTH - 1)]


def test_auto_ranks_find_the_true_ranks_on_the_reduced_grid():
    misses = []
    for ranks, nu_sd, w, ys in reduced_grid():
        model, _ = fit_factor_model(ys)
        if model.ranks != ranks:
            misses.append((ranks, nu_sd, w, model.ranks))
    assert not misses


def test_auto_ranks_match_the_maxima_rule_on_the_reduced_grid():
    differ = []
    for ranks, nu_sd, w, ys in reduced_grid():
        xs = standardize(ys, cell_standardization(ys.values))
        bounds = rank_bounds(xs.tensor_dims, 3, None)
        chosen, oracle = initial_loadings(xs, bounds).ranks, maxima_ranks(xs, *bounds)
        if chosen != oracle:
            differ.append((ranks, nu_sd, w, chosen, oracle))
    assert not differ


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(guard_values(), indent=1) + "\n")
    print(REFERENCE)
