"""Ingestion, folding, and standardization tests on hand-built fixtures."""

from __future__ import annotations

import contextlib
import io
import logging
import re
import tracemalloc
import zipfile
from datetime import datetime, timedelta

import numpy as np
import pytest

from helpers import (
    buffered_write_npz,
    deflated_copy,
    seasonal_indices,
    unfold_panel,
    weekly_starts,
)
from tensorcast import cli, factor_model, panel
from tensorcast.panel import (
    CalendarSpec,
    PanelSeries,
    Standardization,
    TensorSeries,
    cell_standardization,
    destandardize,
    fold,
    ingest_csv,
    load_tensor_series,
    save_tensor_series,
    standardize,
    write_npz,
)


def write_csv(path, provider, rows):
    lines = [f"Datetime,{provider}_MW"]
    lines += [f"{ts},{val}" for ts, val in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def hourly_rows(start: datetime, values):
    return [((start + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S"), v) for i, v in enumerate(values)]


def make_panel(start: datetime, values: np.ndarray, providers=None) -> PanelSeries:
    n, num_hours = values.shape
    timestamps = np.datetime64(start, "h") + np.arange(num_hours).astype("timedelta64[h]")
    return PanelSeries(
        provider_ids=providers or [f"P{i}" for i in range(n)],
        timestamps=timestamps,
        values=np.asarray(values, dtype=float),
    )


class TestIngest:
    def test_clean_file_passes_through(self, tmp_path):
        vals = [100.0, 101.5, 99.25, 103.0]
        path = write_csv(tmp_path / "a.csv", "AAA", hourly_rows(datetime(2020, 1, 6), vals))
        panel = ingest_csv([path])
        assert panel.provider_ids == ["AAA"]
        np.testing.assert_array_equal(panel.values, [vals])
        assert panel.repairs == {
            "duplicates_averaged": 0,
            "gaps_interpolated": 0,
            "edge_hours_dropped": 0,
        }

    def test_duplicate_hour_is_averaged(self, tmp_path):
        # DST fall-back: 01:00 appears twice; the mean of 100 and 104 is 102.
        rows = [
            ("2020-11-01 00:00:00", 90.0),
            ("2020-11-01 01:00:00", 100.0),
            ("2020-11-01 01:00:00", 104.0),
            ("2020-11-01 02:00:00", 95.0),
        ]
        panel = ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])
        np.testing.assert_array_equal(panel.values, [[90.0, 102.0, 95.0]])
        assert panel.repairs["duplicates_averaged"] == 1

    def test_hour_listed_three_times_is_averaged_over_all_copies(self, tmp_path):
        rows = [
            ("2020-11-01 00:00:00", 90.0),
            ("2020-11-01 01:00:00", 100.0),
            ("2020-11-01 01:00:00", 104.0),
            ("2020-11-01 01:00:00", 105.5),
            ("2020-11-01 02:00:00", 95.0),
        ]
        panel = ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])
        np.testing.assert_array_equal(panel.values, [[90.0, (100.0 + 104.0 + 105.5) / 3, 95.0]])
        assert panel.repairs["duplicates_averaged"] == 2

    def test_duplicate_whose_second_copy_is_missing_is_not_counted(self, tmp_path):
        rows = [
            ("2020-11-01 00:00:00", 90.0),
            ("2020-11-01 01:00:00", 100.0),
            ("2020-11-01 01:00:00", "NA"),
            ("2020-11-01 02:00:00", 95.0),
        ]
        panel = ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])
        np.testing.assert_array_equal(panel.values, [[90.0, 100.0, 95.0]])
        assert panel.repairs["duplicates_averaged"] == 0

    def test_short_gap_is_interpolated(self, tmp_path):
        # 02:00 missing (spring forward); neighbors 20 and 40 imply 30.
        rows = hourly_rows(datetime(2020, 3, 8), np.full(48, 7.0))
        rows[1] = (rows[1][0], 20.0)
        rows[3] = (rows[3][0], 40.0)
        del rows[2]
        panel = ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])
        assert panel.values[0, 1] == 20.0
        assert panel.values[0, 2] == 30.0
        assert panel.values[0, 3] == 40.0
        assert panel.repairs["gaps_interpolated"] == 1

    def test_long_interior_gap_errors(self, tmp_path):
        start = datetime(2020, 1, 6)
        rows = hourly_rows(start, [1.0] * 200)
        del rows[50:60]  # 10-hour hole
        with pytest.raises(ValueError, match="gap"):
            ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])

    def test_runs_of_one_and_six_hours_follow_the_interpolation_formula(self, tmp_path):
        vals = np.random.default_rng(11).uniform(900.0, 1100.0, 200)
        rows = hourly_rows(datetime(2020, 1, 6), vals)
        rows[5] = (rows[5][0], "NA")
        del rows[20:26]
        panel = ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])
        expected = vals.copy()
        expected[5] = vals[4] + (vals[6] - vals[4]) * 1 / 2
        for k in range(1, 7):
            expected[19 + k] = vals[19] + (vals[26] - vals[19]) * k / 7
        np.testing.assert_array_equal(panel.values, [expected])
        assert panel.repairs["gaps_interpolated"] == 7

    def test_seven_hour_gap_names_its_length_and_offset(self, tmp_path):
        rows = hourly_rows(datetime(2020, 1, 6), [1.0] * 200)
        del rows[50:57]
        with pytest.raises(ValueError, match="AAA: 7-hour gap at offset 50 exceeds"):
            ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])

    def test_excess_missing_errors(self, tmp_path):
        start = datetime(2020, 1, 6)
        rows = hourly_rows(start, [1.0] * 100)
        # Blank tokens count as missing, 6 of 100 > 5%.
        for i in range(20, 26):
            rows[i] = (rows[i][0], "")
        with pytest.raises(ValueError, match="missing"):
            ingest_csv([write_csv(tmp_path / "a.csv", "AAA", rows)])

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("Datetime,AAA_MW\n2020-01-06 00:00:00,1.0\nnot-a-date,2.0\n")
        with pytest.raises(ValueError, match=r"a\.csv:3"):
            ingest_csv([path])
        path.write_text("Datetime,AAA_MW\n2020-01-06 00:00:00,1.0\n2020-01-06 01:00:00,bogus\n")
        with pytest.raises(ValueError, match=r"a\.csv:3"):
            ingest_csv([path])

    @pytest.mark.parametrize(
        "stamp, reason",
        [
            ("2020-01-06 01:00:00+01:00", "UTC offset"),
            ("2020-01-06 01:00:00.5", "not on the hourly grid"),
            ("2020-01-06 01:00:00.000001", "not on the hourly grid"),
            ("2020-01-06 01:30:00", "not on the hourly grid"),
        ],
    )
    def test_aware_or_off_grid_timestamp_is_a_bad_timestamp(self, tmp_path, stamp, reason):
        path = tmp_path / "a.csv"
        path.write_text(f"Datetime,AAA_MW\n2020-01-06 00:00:00,1.0\n{stamp},2.0\n")
        with pytest.raises(ValueError, match=rf"a\.csv:3: bad timestamp: .*{reason}"):
            ingest_csv([path])

    def test_alignment_uses_intersection_span(self, tmp_path):
        start = datetime(2020, 1, 6)
        a = write_csv(tmp_path / "a.csv", "AAA", hourly_rows(start, range(10)))
        b = write_csv(
            tmp_path / "b.csv", "BBB", hourly_rows(start + timedelta(hours=3), range(10))
        )
        panel = ingest_csv([b, a])
        assert panel.provider_ids == ["AAA", "BBB"]  # label order, not path order
        assert panel.values.shape == (2, 7)
        np.testing.assert_array_equal(panel.values[0], np.arange(3, 10))
        np.testing.assert_array_equal(panel.values[1], np.arange(0, 7))

    @staticmethod
    def _trim_case(tmp_path, covers, missing):
        """Providers X, Y, Z with value 1000 + h at each covered hour h, and
        missing tokens at the listed hours."""
        start = datetime(2020, 1, 6)
        paths = []
        for name, hours in covers.items():
            rows = [
                ((start + timedelta(hours=h)).strftime("%Y-%m-%d %H:%M:%S"),
                 "NA" if h in missing.get(name, ()) else 1000.0 + h)
                for h in hours
            ]
            paths.append(write_csv(tmp_path / f"{name}.csv", name, rows))
        return ingest_csv(paths), np.datetime64(start, "h")

    def test_trim_starts_where_every_provider_has_a_value(self, tmp_path):
        # At hour 6, the latest first reading, X is still inside its 6-7 gap.
        panel, start = self._trim_case(
            tmp_path,
            {"X": range(200), "Y": range(200), "Z": range(2, 200)},
            {"X": (6, 7), "Y": range(1, 6)},
        )
        assert panel.timestamps[0] == start + 8
        np.testing.assert_array_equal(panel.values, np.tile(1000.0 + np.arange(8, 200), (3, 1)))
        assert panel.repairs["gaps_interpolated"] == 0
        assert panel.repairs["edge_hours_dropped"] == 3 * 6

    def test_trim_ends_where_every_provider_has_a_value(self, tmp_path):
        # At hour 193, the earliest last reading, X is still inside its 192-193 gap.
        panel, start = self._trim_case(
            tmp_path,
            {"X": range(200), "Y": range(200), "Z": range(198)},
            {"X": (192, 193), "Y": range(194, 199)},
        )
        assert panel.timestamps[-1] == start + 191
        np.testing.assert_array_equal(panel.values, np.tile(1000.0 + np.arange(192), (3, 1)))
        assert panel.repairs["gaps_interpolated"] == 0
        assert panel.repairs["edge_hours_dropped"] == 3 * 6

    def test_no_hour_with_every_provider_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no hour in the span where every provider"):
            self._trim_case(tmp_path, {"X": range(3), "Y": range(1, 4)}, {"X": (1,), "Y": (2,)})

    def test_empty_intersection_errors(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", "AAA", hourly_rows(datetime(2020, 1, 6), [1, 2]))
        b = write_csv(tmp_path / "b.csv", "BBB", hourly_rows(datetime(2021, 1, 6), [1, 2]))
        with pytest.raises(ValueError, match="span"):
            ingest_csv([a, b])

    def test_reversed_span_is_named(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "AAA", hourly_rows(datetime(2020, 1, 6), range(48)))
        with pytest.raises(ValueError, match="span 2020-01-07 10:00:00..2020-01-06 10:00:00 is reversed"):
            ingest_csv([path], span=("2020-01-07 10:00:00", "2020-01-06 10:00:00"))

    def test_explicit_span_restricts(self, tmp_path):
        start = datetime(2020, 1, 6)
        path = write_csv(tmp_path / "a.csv", "AAA", hourly_rows(start, range(48)))
        panel = ingest_csv([path], span=("2020-01-06 10:00:00", "2020-01-06 19:00:00"))
        np.testing.assert_array_equal(panel.values, [np.arange(10, 20)])

    def test_repairs_are_plain_ints_and_logged_as_one_dict(self, tmp_path, caplog):
        start = datetime(2020, 1, 6)
        a_rows = hourly_rows(start, np.arange(50.0))
        a_rows.insert(11, a_rows[10])
        del a_rows[21]
        a = write_csv(tmp_path / "a.csv", "AAA", a_rows)
        b = write_csv(tmp_path / "b.csv", "BBB", hourly_rows(start + timedelta(hours=3), np.arange(50.0)))
        with caplog.at_level(logging.INFO, logger="tensorcast.panel"):
            panel = ingest_csv([a, b], span=("2020-01-06 00:00:00", "2020-01-08 04:00:00"))
        assert panel.repairs == {
            "duplicates_averaged": 1,
            "gaps_interpolated": 1,
            "edge_hours_dropped": 2 * 6,
        }
        assert all(type(count) is int for count in panel.repairs.values())
        [record] = [r for r in caplog.records if r.name == "tensorcast.panel"]
        assert record.levelno == logging.INFO
        assert [arg for arg in record.args if isinstance(arg, dict)] == [panel.repairs]

    def test_ingest_is_deterministic(self, tmp_path):
        start = datetime(2020, 1, 6)
        rng = np.random.default_rng(0)
        paths = [
            write_csv(tmp_path / f"{name}.csv", name, hourly_rows(start, rng.uniform(1, 2, 50)))
            for name in ("XX", "YY")
        ]
        one, two = ingest_csv(paths), ingest_csv(paths)
        assert one.values.tobytes() == two.values.tobytes()
        assert one.timestamps.tobytes() == two.timestamps.tobytes()
        assert one.provider_ids == two.provider_ids


class TestCalendarSpec:
    def test_rejects_small_periods(self):
        with pytest.raises(ValueError):
            CalendarSpec(periods=(7, 1))

    def test_rejects_periods_not_tiling_a_week(self):
        with pytest.raises(ValueError):
            CalendarSpec(periods=(5,))

    @pytest.mark.parametrize("periods", [(7.9, 24), (7, True, 24), (7, "24"), ()])
    def test_rejects_periods_that_are_not_integer_counts(self, periods):
        # (7.9, 24) once became (7, 24) without a word.
        with pytest.raises(ValueError, match="periods"):
            CalendarSpec(periods=periods)

    def test_stores_numpy_integer_periods_as_python_ints(self):
        cal = CalendarSpec(periods=(np.int64(7), np.int32(24)))
        assert cal == CalendarSpec() and all(type(s) is int for s in cal.periods)

    def test_seasonal_indices_monday_anchor(self):
        cal = CalendarSpec()
        # 2001-01-01 was a Monday; hour 0 is Monday 00:00.
        assert seasonal_indices(cal, 0) == (0, 0)
        assert seasonal_indices(cal, 25) == (1, 1)
        assert seasonal_indices(cal, 167) == (6, 23)

    def test_sunday_anchor_shifts_day_index(self):
        cal = CalendarSpec(week_start="sunday")
        # Monday is day 1 of a Sunday-anchored week.
        assert seasonal_indices(cal, 0) == (1, 0)
        assert seasonal_indices(cal, 6 * 24) == (0, 0)


class TestFold:
    def test_single_week_reshapes(self):
        vals = np.arange(168.0).reshape(1, 168)
        panel = make_panel(datetime(2020, 1, 6), vals)  # a Monday
        ts = fold(panel, CalendarSpec())
        assert ts.values.shape == (1, 1, 7, 24)
        np.testing.assert_array_equal(ts.values[0, 0], np.arange(168.0).reshape(7, 24))

    def test_entry_mapping_against_index_loop(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((2, 2 * 168))
        panel = make_panel(datetime(2020, 1, 6), vals)
        ts = fold(panel, CalendarSpec())
        for t in range(2):
            for i in range(2):
                for s1 in range(7):
                    for s2 in range(24):
                        assert ts.values[t, i, s1, s2] == vals[i, t * 168 + s1 * 24 + s2]

    def test_partial_periods_dropped(self):
        # Start Wednesday 05:00: 2 days 19 h of lead, then 2 full weeks, then 3 h.
        start = datetime(2020, 1, 8, 5)
        lead = (7 - 2) * 24 - 5
        vals = np.arange(lead + 2 * 168 + 3, dtype=float).reshape(1, -1)
        ts = fold(make_panel(start, vals), CalendarSpec())
        assert ts.values.shape == (2, 1, 7, 24)
        assert ts.values[0, 0, 0, 0] == lead
        assert str(ts.period_starts[0]) == "2020-01-13T00"

    def test_too_short_errors(self):
        panel = make_panel(datetime(2020, 1, 7), np.zeros((1, 200)))  # Tuesday start
        with pytest.raises(ValueError, match="full"):
            fold(panel, CalendarSpec())

    def test_unfold_panel_round_trips(self):
        rng = np.random.default_rng(2)
        panel = make_panel(datetime(2020, 1, 6), rng.standard_normal((2, 3 * 168)))
        ts = fold(panel, CalendarSpec())
        back = unfold_panel(ts)
        np.testing.assert_array_equal(back.values, panel.values)
        np.testing.assert_array_equal(back.timestamps, panel.timestamps)
        assert back.provider_ids == panel.provider_ids

    def test_fold_preserves_value_multiset(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((3, 2 * 168))
        ts = fold(make_panel(datetime(2020, 1, 6), vals), CalendarSpec())
        np.testing.assert_array_equal(np.sort(ts.values.ravel()), np.sort(vals.ravel()))

    def test_sunday_anchor_changes_lead(self):
        # Sunday 2020-01-05 00:00 start: zero lead under the Sunday anchor.
        panel = make_panel(datetime(2020, 1, 5), np.arange(168.0).reshape(1, 168))
        ts = fold(panel, CalendarSpec(week_start="sunday"))
        assert ts.values.shape == (1, 1, 7, 24)
        assert str(ts.period_starts[0]) == "2020-01-05T00"


def series_from_values(values: np.ndarray) -> TensorSeries:
    t = values.shape[0]
    starts = np.datetime64("2020-01-06T00", "h") + (168 * np.arange(t)).astype("timedelta64[h]")
    return TensorSeries(
        values=np.asarray(values, dtype=float),
        period_starts=starts,
        provider_ids=[f"P{i}" for i in range(values.shape[1])],
    )


class TestStandardization:
    def test_constant_cell_clamps_and_warns(self):
        values = np.full((4, 1, 2, 2), 3.0)
        ts = series_from_values(values)
        with pytest.warns(RuntimeWarning, match="clamped"):
            z = cell_standardization(ts.values)
        np.testing.assert_array_equal(z.mu, np.full((1, 2, 2), 3.0))
        np.testing.assert_allclose(z.sigma, np.full((1, 2, 2), 1e-8 * 3.0))

    def test_alternating_cell(self):
        values = np.empty((6, 1, 1, 1))
        values[:, 0, 0, 0] = [1, -1, 1, -1, 1, -1]
        z = cell_standardization(values)
        assert z.mu[0, 0, 0] == 0.0
        assert z.sigma[0, 0, 0] == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((5, 2, 2, 2))
        z = cell_standardization(values)
        t = values.shape[0]
        for idx in np.ndindex(*values.shape[1:]):
            cell = values[(slice(None), *idx)]
            mean = sum(cell) / t
            var = sum((c - mean) ** 2 for c in cell) / t
            assert abs(z.mu[idx] - mean) <= 1e-12
            assert abs(z.sigma[idx] - np.sqrt(var)) <= 1e-12

    def test_requires_two_periods(self):
        with pytest.raises(ValueError):
            cell_standardization(np.zeros((1, 1, 2, 2)))

    def test_identity_standardization_is_noop(self):
        rng = np.random.default_rng(5)
        ts = series_from_values(rng.standard_normal((3, 2, 2, 3)))
        z = Standardization(mu=np.zeros((2, 2, 3)), sigma=np.ones((2, 2, 3)))
        np.testing.assert_array_equal(standardize(ts, z).values, ts.values)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        ts = series_from_values(rng.uniform(50, 150, size=(8, 2, 2, 3)))
        z = cell_standardization(ts.values)
        back = destandardize(standardize(ts, z), z)
        np.testing.assert_allclose(back.values, ts.values, atol=1e-12)

    def test_standardized_moments(self):
        rng = np.random.default_rng(7)
        ts = series_from_values(rng.uniform(10, 20, size=(30, 2, 3, 4)))
        z = cell_standardization(ts.values)
        x = standardize(ts, z).values
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(np.mean(x * x, axis=0), 1.0, atol=1e-10)

    def test_destandardize_zeros_gives_mu(self):
        rng = np.random.default_rng(8)
        ts = series_from_values(rng.uniform(10, 20, size=(4, 1, 2, 2)))
        z = cell_standardization(ts.values)
        zeros = series_from_values(np.zeros_like(ts.values))
        np.testing.assert_array_equal(destandardize(zeros, z).values, np.broadcast_to(z.mu, ts.values.shape))

    def test_scale_only(self):
        rng = np.random.default_rng(9)
        ts = series_from_values(rng.standard_normal((3, 1, 2, 2)))
        sigma = rng.uniform(0.5, 2.0, size=(1, 2, 2))
        z = Standardization(mu=np.zeros((1, 2, 2)), sigma=sigma)
        np.testing.assert_allclose(destandardize(ts, z).values, sigma * ts.values, atol=1e-14)

    def test_dims_mismatch_errors(self):
        ts = series_from_values(np.zeros((3, 1, 2, 2)))
        z = Standardization(mu=np.zeros((1, 2, 3)), sigma=np.ones((1, 2, 3)))
        with pytest.raises(ValueError):
            standardize(ts, z)


class TestArchive:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ts = series_from_values(rng.standard_normal((3, 2, 7, 24)))
        path = tmp_path / "panel.npz"
        save_tensor_series(path, ts)
        back = load_tensor_series(path)
        np.testing.assert_array_equal(back.values, ts.values)
        np.testing.assert_array_equal(back.period_starts, ts.period_starts)
        assert back.provider_ids == ts.provider_ids

    def test_writes_are_byte_identical_and_stored(self, tmp_path):
        rng = np.random.default_rng(11)
        ts = series_from_values(rng.standard_normal((3, 2, 7, 24)))
        save_tensor_series(tmp_path / "one.npz", ts)
        save_tensor_series(tmp_path / "two.npz", ts)
        assert (tmp_path / "one.npz").read_bytes() == (tmp_path / "two.npz").read_bytes()
        with zipfile.ZipFile(tmp_path / "one.npz") as zf:
            assert [info.filename for info in zf.infolist()] == [
                "values.npy", "period_starts.npy", "provider_ids.npy"]
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_deflated_archive_still_loads(self, tmp_path):
        rng = np.random.default_rng(12)
        ts = series_from_values(rng.standard_normal((3, 2, 7, 24)))
        save_tensor_series(tmp_path / "stored.npz", ts)
        deflated_copy(tmp_path / "stored.npz", tmp_path / "deflated.npz")
        with zipfile.ZipFile(tmp_path / "deflated.npz") as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        back = load_tensor_series(tmp_path / "deflated.npz")
        np.testing.assert_array_equal(back.values, ts.values)
        np.testing.assert_array_equal(back.period_starts, ts.period_starts)
        assert back.provider_ids == ts.provider_ids

    def test_archives_are_the_buffered_writers_bytes(self, tmp_path, monkeypatch):
        # The seed-0 paper panel (save_tensor_series), the simulate truth and
        # a fitted model (save_model), each written by the streamed writer
        # and by the buffered one it replaced.
        config = tmp_path / "run.ini"
        config.write_text("[data]\narchive = sim.npz\n\n[run]\nseed = 0\n")
        names = ("sim.npz", "truth.npz", "model.npz")

        def write_all(out):
            with contextlib.redirect_stdout(io.StringIO()):
                for command in ("simulate", "fit"):
                    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
            return [(out / name).read_bytes() for name in names]

        streamed = write_all(tmp_path / "streamed")
        for module in (panel, factor_model, cli):
            monkeypatch.setattr(module, "write_npz", buffered_write_npz)
        buffered = write_all(tmp_path / "buffered")
        for name, a, b in zip(names, streamed, buffered):
            assert a == b, name

    def test_writing_a_panel_peaks_near_its_own_bytes(self, tmp_path):
        values = np.random.default_rng(13).standard_normal((342, 9, 7, 24))
        peaks = []
        for write in (write_npz, buffered_write_npz):
            write(tmp_path / "panel.npz", {"values": values})  # warm caches before tracing
            tracemalloc.start()
            try:
                write(tmp_path / "panel.npz", {"values": values})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        streamed, buffered = peaks
        assert streamed <= 1.25 * values.nbytes < buffered, (streamed, buffered, values.nbytes)

    def test_archive_holding_a_nan_is_rejected(self, tmp_path):
        values = np.ones((3, 2, 7, 24))
        values[1, 0, 2, 5] = np.nan
        starts = np.datetime64("2020-01-06T00", "h") + (168 * np.arange(3)).astype("timedelta64[h]")
        path = tmp_path / "panel.npz"
        write_npz(path, {
            "values": values,
            "period_starts": np.datetime_as_string(starts, unit="h"),
            "provider_ids": np.array(["A", "B"]),
        })
        with pytest.raises(ValueError, match=r"non-finite value nan .* \(1, 0, 2, 5\).*'A'"):
            load_tensor_series(path)

    def test_archive_holding_an_inf_names_the_path(self, tmp_path):
        values = np.ones((3, 2, 7, 24))
        values[2, 1, 0, 0] = -np.inf
        path = tmp_path / "panel.npz"
        write_npz(path, {
            "values": values,
            "period_starts": np.datetime_as_string(weekly_starts(3), unit="h"),
            "provider_ids": np.array(["A", "B"]),
        })
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: non-finite value -inf"):
            load_tensor_series(path)


class TestTensorSeries:
    def test_values_without_a_provider_axis_are_rejected(self):
        with pytest.raises(ValueError, match=r"values of shape \(4,\) need a period axis"):
            TensorSeries(values=np.zeros(4), period_starts=weekly_starts(4), provider_ids=["P0"])

    def test_hand_built_series_rejects_non_finite_values(self):
        values = np.zeros((4, 2, 3, 5))
        values[2, 1, 0, 3] = np.inf
        values[3, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite value inf .* \(2, 1, 0, 3\).*'P1'"):
            series_from_values(values)
