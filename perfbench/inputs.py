"""Seeded inputs for the benchmark workloads.

The backtests get the simulated weekly panel of the paper's shape directly.
The CSV pipeline gets one PJM-format file (``Datetime,<ID>_MW``) per provider,
written from a simulated panel put on a megawatt scale, with the defects that
real PJM hourly files carry injected from the seed: the DST fall-back hour
listed twice, the spring-forward hour absent, short interior outages and
missing-value tokens. The generator returns the repair counts that ingestion
must report for those files, so a run can check them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tensorcast import evaluation
from tensorcast.factor_model import Ranks
from tensorcast.panel import TensorSeries

DIMS = (9, 7, 24)
RANKS = Ranks(1, (1, 2))
NUM_PERIODS = 342

# PJM zone names, already in the sorted order ingestion uses.
PROVIDERS = ("AEP", "COMED", "DAYTON", "DEOK", "DOM", "DUQ", "EKPC", "FE", "NI")
MISSING_TOKENS = ("", "NA", "nan", "null")
GAP_RUNS = 20  # interior outages per provider, 1 to 6 hours each
TOKEN_ROWS = 30  # single rows per provider whose value is a missing token
EDGE_HOURS = 48  # no defect this close to either end of the span


def simulated_panel(seed: int, mu: np.ndarray | None = None,
                    sigma: np.ndarray | None = None) -> TensorSeries:
    """The (342, 9, 7, 24) panel of ``SimSpec(dims, ranks, num_periods, seed)``."""
    spec = evaluation.SimSpec(dims=DIMS, ranks=RANKS, num_periods=NUM_PERIODS,
                              mu=mu, sigma=sigma, seed=seed)
    return evaluation.simulate(spec)[0]


def megawatt_scale(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell location and scale of a load panel: a base load per zone, a
    daytime peak, a weekend dip. The simulated panel has unit-scale cells with
    tails out to about 75, so a 1% scale keeps every load positive."""
    rng = np.random.default_rng([seed, 1])
    base = rng.uniform(2_000.0, 30_000.0, size=DIMS[0])
    hour = np.arange(DIMS[2])
    daily = 1.0 + 0.25 * np.sin(2.0 * np.pi * (hour - 8) / 24.0)
    weekly = np.array([1.0, 1.0, 1.0, 1.0, 0.97, 0.88, 0.85])
    mu = base[:, None, None] * weekly[None, :, None] * daily[None, None, :]
    return mu, 0.01 * mu


@dataclass
class CsvInputs:
    """Generated provider files plus what ingesting them must report."""

    rows_by_file: dict[Path, int]  # data rows of each file
    expected_repairs: dict[str, int]

    @property
    def paths(self) -> list[Path]:
        return list(self.rows_by_file)

    @property
    def rows(self) -> int:
        return sum(self.rows_by_file.values())


def _dst_hours(hours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of 02:00 on the second Sunday of March (spring-forward, absent
    from local-time files) and of 01:00 on the first Sunday of November
    (fall-back, listed twice)."""
    days = hours.astype("datetime64[D]")
    day = (days - days.astype("datetime64[M]")).astype(int) + 1
    month = (days.astype("datetime64[M]") - days.astype("datetime64[Y]")).astype(int) + 1
    sunday = ((days.astype(int) + 3) % 7) == 6  # 1970-01-01 was a Thursday
    hour = (hours - days).astype(int)
    spring = np.flatnonzero(sunday & (month == 3) & (day >= 8) & (day <= 14) & (hour == 2))
    fall = np.flatnonzero(sunday & (month == 11) & (day <= 7) & (hour == 1))
    return spring, fall


def _place_runs(rng: np.random.Generator, blocked: np.ndarray, lengths: list[int]) -> list[int]:
    """Start offsets for runs of the given lengths on free hours, each run at
    least one free hour away from any other defect so runs never merge."""
    starts = []
    for length in lengths:
        while True:
            start = int(rng.integers(EDGE_HOURS, len(blocked) - EDGE_HOURS - length))
            if not blocked[start - 2 : start + length + 2].any():
                break
        blocked[start : start + length] = True
        starts.append(start)
    return starts


def write_pjm_csvs(seed: int, out_dir: Path) -> CsvInputs:
    """Write one hourly file per provider for the seeded MW-scale panel."""
    out_dir.mkdir(parents=True, exist_ok=True)
    mu, sigma = megawatt_scale(seed)
    ts = simulated_panel(seed, mu=mu, sigma=sigma)
    num_hours = NUM_PERIODS * 168
    hourly = ts.values.transpose(1, 0, 2, 3).reshape(DIMS[0], num_hours)
    hours = ts.period_starts[0] + np.arange(num_hours).astype("timedelta64[h]")
    stamps = np.char.replace(np.datetime_as_string(hours, unit="s"), "T", " ").tolist()
    spring, fall = _dst_hours(hours)

    rng = np.random.default_rng([seed, 2])
    rows_by_file = {}
    gaps_interpolated = 0
    for i, provider in enumerate(PROVIDERS):
        blocked = np.zeros(num_hours, dtype=bool)
        blocked[spring] = True
        blocked[fall] = True
        lengths = [int(v) for v in rng.integers(1, 7, size=GAP_RUNS)]
        dropped = np.zeros(num_hours, dtype=bool)
        for start, length in zip(_place_runs(rng, blocked, lengths), lengths):
            dropped[start : start + length] = True
        dropped[spring] = True
        token_at = dict(zip(_place_runs(rng, blocked, [1] * TOKEN_ROWS),
                            rng.integers(0, len(MISSING_TOKENS), size=TOKEN_ROWS).tolist()))
        repeat = set(fall.tolist())
        gaps_interpolated += int(dropped.sum()) + TOKEN_ROWS

        lines = [f"Datetime,{provider}_MW"]
        for h in np.flatnonzero(~dropped).tolist():
            value = hourly[i, h]
            if h in token_at:
                lines.append(f"{stamps[h]},{MISSING_TOKENS[token_at[h]]}")
            elif h in repeat:
                lines.append(f"{stamps[h]},{value:.1f}")
                lines.append(f"{stamps[h]},{0.97 * value:.1f}")
            else:
                lines.append(f"{stamps[h]},{value:.1f}")
        path = out_dir / f"{provider}_hourly.csv"
        path.write_text("\n".join(lines) + "\n")
        rows_by_file[path] = len(lines) - 1

    repairs = {
        "duplicates_averaged": len(PROVIDERS) * len(fall),
        "gaps_interpolated": gaps_interpolated,
        "edge_hours_dropped": 0,
    }
    return CsvInputs(rows_by_file=rows_by_file, expected_repairs=repairs)
