"""Hourly panel ingestion, calendar folding, and per-cell standardization.

Raw inputs are CSV files in the hourly-load format (header row, a ``Datetime``
column with ``YYYY-MM-DD HH:MM:SS`` local timestamps, and one ``<PROVIDER>_MW``
value column per file). Ingestion aligns all providers on a common hourly grid,
averages duplicated clock hours (DST fall-back), linearly interpolates gaps of
at most six hours, and refuses providers with more than 5% missing hours.
A file of just those two columns, stamps on the hour and plain decimal
values is parsed a byte column at a time (_parse_columns); any other file
row by row, with the same results.

Folding re-indexes the aligned panel as a sequence of (N, S1, ..., SM) tensors,
one per full calendar period, dropping partial periods at both ends. The
standardization estimators give each (provider, seasonal-cell) its own location
and scale so the factor model sees zero-mean, unit-variance inputs.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import re
import warnings
import zipfile
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Reference Monday 00:00; hour indices are offsets from here.
_EPOCH = datetime(2001, 1, 1)
_HOURS_PER_WEEK = 168
_WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")

_MAX_INTERP_GAP = 6
_MAX_MISSING_FRACTION = 0.05
_MISSING_TOKENS = {"", "na", "nan", "null"}

# The column parser's strict subset (_parse_columns): its header, and the
# template of a data line up to the value, 'd' marking a digit.
_STRICT_HEADER = re.compile(rb"Datetime,([\w.-]+)_MW")
_STAMP = b"dddd-dd-dd dd:00:00,"
_MAX_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])
_EPOCH_DAY = int(np.datetime64(_EPOCH, "D").astype(np.int64))  # days since 1970-01-01

__all__ = [
    "as_count",
    "as_counts",
    "as_real",
    "PanelSeries",
    "CalendarSpec",
    "TensorSeries",
    "Standardization",
    "ingest_csv",
    "span_hours",
    "fold",
    "cell_standardization",
    "standardize",
    "destandardize",
    "period_step",
    "save_tensor_series",
    "load_tensor_series",
    "read_npz",
    "write_npz",
]


def as_count(name: str, value: object, minimum: int) -> int:
    """The count check: value as an int if it is an integer >= minimum, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def as_counts(name: str, values: object, minimum: int) -> tuple[int, ...]:
    """The list check: a list, tuple or 1-D array of counts (as_count) as a
    tuple of ints; a str, bytes, scalar or other container is a ValueError."""
    if not (isinstance(values, (list, tuple))
            or isinstance(values, np.ndarray) and values.ndim == 1):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return tuple(as_count(name, v, minimum) for v in values)


def as_real(name: str, value: object) -> float:
    """The float check: value as a float if it is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return real


@dataclass
class PanelSeries:
    """Aligned hourly panel: N providers on a common, gap-free hourly grid."""

    provider_ids: list[str]
    timestamps: np.ndarray  # datetime64[h], strictly increasing, hourly
    values: np.ndarray  # (N, num_hours), MW
    repairs: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (len(self.provider_ids), len(self.timestamps)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.provider_ids)} providers x {len(self.timestamps)} hours"
            )


@dataclass(frozen=True)
class CalendarSpec:
    """Seasonal periods (S1, ..., SM) and the anchor fixing index 0 of each.

    The seasonal index of an hour is its offset within the enclosing calendar
    period, decomposed mixed-radix with the last period varying fastest; for
    the default (7, 24) that is (day-of-week, hour-of-day) with weeks starting
    at ``week_start`` 00:00.
    """

    periods: tuple[int, ...] = (7, 24)
    week_start: str = "monday"

    def __post_init__(self):
        object.__setattr__(self, "periods", as_counts("periods", self.periods, 2))
        if not self.periods:
            raise ValueError("periods must list at least one seasonal period")
        if not isinstance(self.week_start, str) or self.week_start.lower() not in _WEEKDAYS:
            raise ValueError(f"unknown week_start {self.week_start!r}")
        object.__setattr__(self, "week_start", self.week_start.lower())
        if _HOURS_PER_WEEK % self.period_hours != 0:
            raise ValueError(
                f"seasonal periods {self.periods} span {self.period_hours} hours, "
                "which does not tile a week"
            )

    @property
    def period_hours(self) -> int:
        return int(np.prod(self.periods))

    def period_offset(self, hour_index: int) -> int:
        """Offset of an hour (index from the reference Monday) within its period."""
        start_shift = 24 * _WEEKDAYS.index(self.week_start)
        return int((hour_index - start_shift) % self.period_hours)


@dataclass
class TensorSeries:
    """Folded panel: values[t] is the (N, S1, ..., SM) tensor of period t."""

    values: np.ndarray  # (T, N, S1, ..., SM)
    period_starts: np.ndarray  # datetime64[h], length T
    provider_ids: list[str]

    def __post_init__(self):
        if self.values.ndim < 2:
            raise ValueError(
                f"values of shape {self.values.shape} need a period axis and a provider axis"
            )
        if len(self.period_starts) != self.values.shape[0]:
            raise ValueError("one start timestamp per period required")
        if self.values.shape[1] != len(self.provider_ids):
            raise ValueError("values second axis must match provider count")
        finite = np.isfinite(self.values)
        if not finite.all():
            idx = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ValueError(
                f"non-finite value {self.values[idx]} at (period, provider, ...) index {idx}: "
                f"period starting {self.period_starts[idx[0]]}, provider {self.provider_ids[idx[1]]!r}"
            )

    @property
    def num_periods(self) -> int:
        return self.values.shape[0]

    @property
    def tensor_dims(self) -> tuple[int, ...]:
        return self.values.shape[1:]


@dataclass
class Standardization:
    """Per-cell location and scale, both shaped (N, S1, ..., SM)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must have identical shapes")
        for name in ("mu", "sigma"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not np.all(self.sigma > 0):
            raise ValueError("sigma must be strictly positive")


def _hour_index(ts: datetime) -> int:
    # Timestamps are naive local hours; an aware one cannot be placed on that grid.
    if ts.tzinfo is not None:
        raise ValueError(f"timestamp {ts} carries a UTC offset; give times without a UTC offset")
    if ts.minute or ts.second or ts.microsecond:
        raise ValueError(f"timestamp {ts} is not on the hourly grid")
    # _EPOCH is a midnight, so the hours past whole days are ts.hour.
    return (ts - _EPOCH).days * 24 + ts.hour


def span_hours(span: tuple[datetime | str, datetime | str]) -> tuple[int, int]:
    """The first and last hour index of an inclusive (start, end) span of naive
    local times on the hourly grid, as datetimes or ISO strings."""
    first, last = (_hour_index(datetime.fromisoformat(t) if isinstance(t, str) else t)
                   for t in span)
    if first > last:
        raise ValueError(f"span {span[0]}..{span[1]} is reversed: start {span[0]} is after end "
                         f"{span[1]}")
    return first, last


def _parse_rows(path: Path) -> tuple[str, list[int], list[float]]:
    """The provider, hour indices and values of any CSV file, row by row in
    file order; a bad row is a ValueError naming ``path:line``."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if "Datetime" not in header:
            raise ValueError(f"{path}: no 'Datetime' column in header {header}")
        mw_cols = [i for i, h in enumerate(header) if h.endswith("_MW")]
        if len(mw_cols) != 1:
            raise ValueError(f"{path}: expected exactly one '<PROVIDER>_MW' column, got {header}")
        dt_col = header.index("Datetime")
        val_col = mw_cols[0]
        provider = header[val_col][: -len("_MW")]
        if not provider:
            raise ValueError(f"{path}: the '_MW' column names no provider id")

        hours, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                hour = _hour_index(datetime.fromisoformat(row[dt_col].strip()))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad timestamp: {exc}") from None
            raw = row[val_col].strip() if val_col < len(row) else ""
            if raw.lower() in _MISSING_TOKENS:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {raw!r}")
            hours.append(hour)
            values.append(value)
    if not hours:
        raise ValueError(f"{path}: no data rows")
    return provider, hours, values


def _parse_columns(data: bytes) -> tuple[str, np.ndarray, np.ndarray] | None:
    r"""The provider, hour indices and values of a file in the strict subset,
    in file order, parsed a byte column at a time; None for any other file.

    The subset: the header ``Datetime,<ID>_MW``, then lines of exactly
    ``YYYY-MM-DD HH:00:00,<value>`` ending in ``\n`` (the last one may end
    the file instead), where <value> is ``-?\d+(\.\d+)?`` of at most 15
    digits or a missing token. Dates must be valid, so each file of the
    subset holds what the row loop reads from it, and the numbers are the
    same: a mantissa m < 10**15 < 2**53 and a power 10**k, k < 23, are exact
    doubles, so the correctly rounded m / 10**k is float() of the text.
    """
    head_end = data.find(b"\n")
    header = _STRICT_HEADER.fullmatch(data, 0, max(head_end, 0))
    if header is None:
        return None
    buf = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        newlines = np.append(newlines, len(buf))
    starts, width = newlines[:-1] + 1, np.diff(newlines) - 1 - len(_STAMP)
    del newlines
    if not starts.size or width.min() < 0 or width.max() > _MAX_DIGITS + 2:
        return None
    hours = _stamp_hours(buf, starts)
    if hours is None:
        return None
    values = _decimal_values(buf, starts + len(_STAMP), width.astype(np.int8))
    if values is None:
        return None
    keep = ~np.isnan(values)
    if not keep.any():
        return None
    return header[1].decode(), hours[keep], values[keep]


def _stamp_hours(buf: np.ndarray, starts: np.ndarray) -> np.ndarray | None:
    """The hour index (as _hour_index) of the ``YYYY-MM-DD HH:00:00,`` at each
    of ``starts``; None unless every one is a valid date and hour so written."""
    # Runs of 'd' in the template are the numbers year, month, day and hour.
    fields, number = [], None
    for j, expected in enumerate(_STAMP):
        col = buf[starts + j]
        if expected == ord("d"):
            col -= ord("0")  # a byte that is no digit wraps past 9
            if col.max() > 9:
                return None
            number = col.astype(np.int32) if number is None else number * 10 + col
        elif (col != expected).any():
            return None
        elif number is not None:
            fields.append(number)
            number = None
    year, month, day, hour = fields
    if not np.all((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23)):
        return None
    months = (year - 1970) * 12 + (month - 1)
    first = months.min()
    months -= first
    # Day numbers, counted from _EPOCH, of the first day of each month in
    # the file's range and of the month after it.
    month_starts = (np.arange(first, first + months.max() + 2).astype("datetime64[M]")
                    .astype("datetime64[D]").astype(np.int64) - _EPOCH_DAY)
    day += month_starts[months] - 1
    if np.any(day >= month_starts[months + 1]):
        return None
    return day.astype(np.int64) * 24 + hour


def _decimal_values(buf: np.ndarray, starts: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    r"""The value held by the ``width`` bytes at each of ``starts``, NaN for
    a missing token; None unless every one is a missing token or a decimal
    ``-?\d+(\.\d+)?`` of at most 15 digits."""
    # Per line: the digits as one integer, the count of digits and of
    # points, the column of the point, and a leading minus sign.
    mantissa = np.zeros(len(starts), np.int64)
    digits, points, point = (np.zeros(len(starts), np.int8) for _ in range(3))
    negative = np.zeros(len(starts), dtype=bool)
    for j in range(width.max()):
        live = width > j
        col = np.take(buf, starts + j, mode="clip")
        if j == 0:
            negative = live & (col == ord("-"))
        is_point = live & (col == ord("."))
        points += is_point
        point[is_point] = j
        col -= ord("0")
        is_digit = live & (col <= 9)
        np.multiply(mantissa, 10, out=mantissa, where=is_digit)
        np.add(mantissa, col, out=mantissa, where=is_digit)
        digits += is_digit
    # Nothing but the digits, at most one point, and a sign in front; the
    # point has a digit on each side.
    decimal = ((digits >= 1) & (digits <= _MAX_DIGITS) & (points <= 1)
               & (digits + points + negative == width)
               & ((points == 0) | ((point > negative) & (point < width - 1))))
    missing = width == 0
    for token in _MISSING_TOKENS - {""}:
        lines = np.flatnonzero(width == len(token))
        match = np.ones(lines.size, dtype=bool)
        for j, expected in enumerate(token.encode()):
            match &= (buf[starts[lines] + j] | 0x20) == expected  # lower case
        missing[lines[match]] = True
    if not np.all(decimal | missing):
        return None
    values = mantissa.astype(np.float64)  # exact below 2**53
    del mantissa
    values /= _POW10[np.where(points == 1, width - 1 - point, 0)]
    np.negative(values, out=values, where=negative)
    values[missing] = np.nan
    return values


def _parse_file(path: str | Path) -> tuple[str, np.ndarray, np.ndarray, int]:
    """Read one provider CSV into its sorted distinct hour indices, their mean
    values (duplicates summed in file order) and the number of duplicates.

    Missing value tokens are skipped; they become gaps on the aligned grid.
    A file in the column parser's strict subset is read by it, any other by
    the row loop; both give the same hours and values.
    """
    path = Path(path)
    parsed = _parse_columns(path.read_bytes())
    provider, hours, values = _parse_rows(path) if parsed is None else parsed
    distinct, inverse, counts = np.unique(hours, return_inverse=True, return_counts=True)
    means = np.bincount(inverse, weights=values) / counts
    return provider, distinct, means, len(hours) - len(distinct)


def _interpolate_gaps(row: np.ndarray, provider: str) -> int:
    """Fill interior NaN runs of length <= 6 in place; error on longer runs.
    Both ends of ``row`` hold values, so every run has two neighbours."""
    present = np.flatnonzero(~np.isnan(row))
    run_lengths = np.diff(present) - 1
    too_long = np.flatnonzero(run_lengths > _MAX_INTERP_GAP)
    if too_long.size:
        i = too_long[0]
        raise ValueError(
            f"provider {provider}: {run_lengths[i]}-hour gap at offset {present[i] + 1} "
            f"exceeds the {_MAX_INTERP_GAP}-hour interpolation limit"
        )
    missing = np.flatnonzero(np.isnan(row))
    after = np.searchsorted(present, missing)
    lo, hi = present[after - 1], present[after]
    row[missing] = row[lo] + (row[hi] - row[lo]) * (missing - lo) / (hi - lo)
    return len(missing)


def ingest_csv(
    paths: Sequence[str | Path],
    span: tuple[datetime | str, datetime | str] | None = None,
) -> PanelSeries:
    """Parse provider CSVs and align them on a common hourly grid.

    The grid covers the intersection of the providers' spans unless ``span``
    gives explicit (inclusive) endpoints. Duplicated hours are averaged, edge
    hours are trimmed until every provider has a value, interior gaps of at
    most six hours are linearly interpolated, and a provider missing more
    than 5% of the span is a hard error. Repair counts are logged and
    attached to the result's ``repairs`` mapping.
    """
    if not paths:
        raise ValueError("no input files given")
    parsed = [_parse_file(p) for p in paths]
    seen: dict[str, Path] = {}
    for (provider, *_), path in zip(parsed, paths):
        if provider in seen:
            raise ValueError(f"provider {provider} appears in both {seen[provider]} and {path}")
        seen[provider] = Path(path)
    # Deterministic merge order regardless of how paths were listed.
    parsed.sort(key=lambda item: item[0])
    providers = [provider for provider, *_ in parsed]

    if span is not None:
        first, last = span_hours(span)
    else:
        first = max(int(hours[0]) for _, hours, _, _ in parsed)
        last = min(int(hours[-1]) for _, hours, _, _ in parsed)
    if first > last:
        raise ValueError("providers have no overlapping hours (empty span)")

    values = np.full((len(parsed), last - first + 1), np.nan)
    for row, (_, hours, means, _) in zip(values, parsed):
        inside = (hours >= first) & (hours <= last)
        row[hours[inside] - first] = means[inside]

    # Trim the edges to the first and last hour where every provider has a value.
    present = ~np.isnan(values)
    empty = [provider for provider, row in zip(providers, present) if not row.any()]
    if empty:
        raise ValueError(f"providers {empty} have no data in the requested span")
    complete = np.flatnonzero(present.all(axis=0))
    if not complete.size:
        raise ValueError("no hour in the span where every provider has a value")
    values = values[:, complete[0] : complete[-1] + 1]
    num_hours = values.shape[1]
    edge_hours_dropped = (last - first + 1 - num_hours) * len(parsed)
    first += int(complete[0])

    gaps_interpolated = 0
    for row, provider in zip(values, providers):
        n_missing = int(np.isnan(row).sum())
        if n_missing > _MAX_MISSING_FRACTION * num_hours:
            raise ValueError(
                f"provider {provider}: {n_missing}/{num_hours} hours missing "
                f"({100 * n_missing / num_hours:.1f}% > {100 * _MAX_MISSING_FRACTION:.0f}%)"
            )
        gaps_interpolated += _interpolate_gaps(row, provider)

    repairs = {
        "duplicates_averaged": sum(dups for *_, dups in parsed),
        "gaps_interpolated": gaps_interpolated,
        "edge_hours_dropped": edge_hours_dropped,
    }
    logger.info(
        "ingested %d providers, %d hours; repairs: %s", len(parsed), num_hours, repairs
    )
    return PanelSeries(
        provider_ids=providers,
        timestamps=np.datetime64(_EPOCH, "h") + np.arange(first, first + num_hours),
        values=values,
        repairs=repairs,
    )


def _panel_hour_indices(panel: PanelSeries) -> np.ndarray:
    return (panel.timestamps - np.datetime64(_EPOCH, "h")).astype(np.int64)


def fold(panel: PanelSeries, cal: CalendarSpec) -> TensorSeries:
    """Fold the aligned panel into one (N, S1, ..., SM) tensor per full period.

    Partial periods at both ends are dropped. Within a period the hours fill
    the seasonal axes in order, last axis fastest, so for (7, 24) the entry at
    (i, s1, s2) is provider i at day s1, hour s2 of the period.
    """
    hours = _panel_hour_indices(panel)
    if len(hours) > 1 and not np.all(np.diff(hours) == 1):
        raise ValueError("panel timestamps must be consecutive hours")
    period = cal.period_hours
    lead = (-cal.period_offset(int(hours[0]))) % period
    num_periods = (len(hours) - lead) // period
    if num_periods < 1:
        raise ValueError(
            f"panel spans {len(hours)} hours; not one full {period}-hour period "
            "after dropping partial edges"
        )
    n = len(panel.provider_ids)
    kept = panel.values[:, lead : lead + num_periods * period]
    folded = kept.reshape(n, num_periods, *cal.periods).transpose(
        1, 0, *range(2, 2 + len(cal.periods))
    )
    starts = panel.timestamps[lead : lead + num_periods * period : period]
    return TensorSeries(
        values=np.ascontiguousarray(folded),
        period_starts=starts.copy(),
        provider_ids=list(panel.provider_ids),
    )


def cell_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell mean, standard deviation and scale floor over the leading axis.

    sigma is the square root of the average squared deviation; the floor is
    max(1e-8 |mu|, 1e-12). A cell whose sigma is below its floor holds no
    variation beyond rounding.
    """
    mu = values.mean(axis=0)
    dev = values - mu
    sigma = np.sqrt(np.mean(np.square(dev, out=dev), axis=0))
    return mu, sigma, np.maximum(1e-8 * np.abs(mu), 1e-12)


def cell_standardization(values: np.ndarray) -> Standardization:
    """Per-cell mean and standard deviation over the leading (period) axis.

    Any cell whose sigma falls below the floor of :func:`cell_moments` is
    clamped to the floor and counted in a warning.
    """
    if values.shape[0] < 2:
        raise ValueError(f"need at least 2 periods to estimate scale, got {values.shape[0]}")
    mu, sigma, floor = cell_moments(values)
    clamped = sigma < floor
    if clamped.any():
        sigma = np.where(clamped, floor, sigma)
        warnings.warn(
            f"{int(clamped.sum())} cells had near-zero scale; sigma clamped to floor",
            RuntimeWarning,
            stacklevel=2,
        )
    return Standardization(mu=mu, sigma=sigma)


def standardize(ts: TensorSeries, z: Standardization) -> TensorSeries:
    """Elementwise (y - mu) / sigma per cell."""
    if z.mu.shape != ts.tensor_dims:
        raise ValueError(f"standardization dims {z.mu.shape} != tensor dims {ts.tensor_dims}")
    return TensorSeries(
        values=(ts.values - z.mu) / z.sigma,
        period_starts=ts.period_starts.copy(),
        provider_ids=list(ts.provider_ids),
    )


def destandardize(ts: TensorSeries, z: Standardization) -> TensorSeries:
    """Elementwise mu + sigma * x per cell; inverse of :func:`standardize`."""
    if z.mu.shape != ts.tensor_dims:
        raise ValueError(f"standardization dims {z.mu.shape} != tensor dims {ts.tensor_dims}")
    # The sum goes into the product's buffer: one result-size array, not two.
    values = z.sigma * ts.values
    values += z.mu
    return TensorSeries(
        values=values,
        period_starts=ts.period_starts.copy(),
        provider_ids=list(ts.provider_ids),
    )


def period_step(period_starts: np.ndarray) -> np.timedelta64:
    """The spacing of an increasing, evenly spaced series of period starts;
    fewer than 2 starts, or starts that are not so spaced, are a ValueError."""
    if len(period_starts) < 2:
        raise ValueError("need at least 2 periods to infer the period spacing")
    steps = np.diff(period_starts)
    if steps[0] <= 0:
        raise ValueError(f"period starts must increase, got a step of {steps[0]}")
    uneven = np.flatnonzero(steps != steps[0])
    if uneven.size:
        i = int(uneven[0]) + 1
        raise ValueError(
            f"period starts are not evenly spaced: start {i} ({period_starts[i]}) "
            f"follows its predecessor by {steps[i - 1]}, not {steps[0]}"
        )
    return steps[0]


def write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write a standard .npz archive with byte-reproducible output.

    Members are stored uncompressed, as np.savez stores them: deflating the
    mostly random float bits of a panel costs far more time than the space it
    saves. np.savez stamps each zip member with the wall clock, so two
    otherwise identical runs produce different files; here every member gets
    a fixed timestamp and members are written in the given key order. Each
    array goes straight into its member, at most 16 MiB at a time.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.file_size = arr.nbytes  # zipfile picks ZIP64 headers from the expected size
            with zf.open(info, "w") as member:
                np.lib.format.write_array(member, arr, allow_pickle=False)


def read_npz(path: str | Path, names: Sequence[str]) -> dict[str, np.ndarray]:
    """Read the named arrays of an .npz archive, stored or deflated.

    A file that is not a zip archive, or an archive without one of the
    names, is a ValueError that names the path.
    """
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise ValueError(f"{path}: not an .npz archive") from None
    with zf:
        members = set(zf.namelist())
        arrays = {}
        for name in names:
            if name + ".npy" not in members:
                raise ValueError(f"{path}: archive has no member {name!r}")
            with zf.open(name + ".npy") as member:
                arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
    return arrays


def save_tensor_series(path: str | Path, ts: TensorSeries) -> None:
    """Write a folded-tensor archive (.npz): values, period starts, providers."""
    write_npz(
        path,
        {
            "values": ts.values,
            "period_starts": np.datetime_as_string(ts.period_starts, unit="h"),
            "provider_ids": np.array(ts.provider_ids),
        },
    )


def load_tensor_series(path: str | Path) -> TensorSeries:
    """Read an archive written by :func:`save_tensor_series`. The series
    must pass TensorSeries' checks, and the period starts of an archive with
    2 or more periods must be evenly spaced (period_step); otherwise the
    ValueError names the path."""
    archive = read_npz(path, ("values", "period_starts", "provider_ids"))
    try:
        ts = TensorSeries(
            values=archive["values"],
            period_starts=archive["period_starts"].astype("datetime64[h]"),
            provider_ids=[str(p) for p in archive["provider_ids"]],
        )
        if ts.num_periods > 1:
            period_step(ts.period_starts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ts
