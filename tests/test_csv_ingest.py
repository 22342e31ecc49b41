"""The two CSV parse paths of panel ingestion: the column parser reads the
strict ``Datetime,<ID>_MW`` subset and gives what the row loop gives; every
other file goes to the row loop.

A numpy-seeded generator writes small PJM-style files, each with one
mutation, and every case must give the row loop's exact outcome: the same
provider, hours, mean bytes and duplicate count, or the same exception.

Both paths are also checked against known panels: a seeded weekly panel
rendered to one strict file per provider, with one mutation in one file,
must ingest and fold back to the panel itself, or fail with a ValueError
naming the mutated file and line."""

from __future__ import annotations

import re
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest

from tensorcast import panel
from tensorcast.panel import CalendarSpec, fold, ingest_csv

TOKENS = ("", "NA", "na", "nan", "NaN", "NULL", "null", "Null")


def random_value(rng: np.random.Generator) -> str:
    """A plain decimal of 1 to 15 digits, or now and then a missing token."""
    if rng.random() < 0.1:
        return TOKENS[rng.integers(len(TOKENS))]
    digits = int(rng.integers(1, 16))
    text = "".join(rng.choice(list("0123456789"), size=digits))
    point = int(rng.integers(0, digits))  # 0: no point
    if point:
        text = text[:point] + "." + text[point:]
    return ("-" if rng.random() < 0.2 else "") + text


def random_file(rng: np.random.Generator) -> tuple[str, list[str]]:
    """The header and data lines of a file in the strict subset: hourly
    stamps from a random start (any year, often before 2001), an hour
    listed twice here and there, one dropped now and then."""
    provider = ["AEP", "PJM_Load", "DOM", "X.1-b"][rng.integers(4)]
    year = int(rng.integers(1, 9999) if rng.random() < 0.3 else rng.integers(1990, 2030))
    start = datetime(year, 1, 1) + timedelta(hours=int(rng.integers(0, 365 * 24)))
    lines = []
    for i in range(int(rng.integers(1, 40))):
        stamp = (start + timedelta(hours=i)).isoformat(" ")
        if rng.random() < 0.05:
            continue
        for _ in range(2 if rng.random() < 0.1 else 1):
            lines.append(f"{stamp},{random_value(rng)}")
    return f"Datetime,{provider}_MW", lines


def render(header: str, lines: list[str], end: str = "\n") -> bytes:
    return (end.join([header, *lines]) + end).encode()


def _at(rng, lines, edit):
    """lines with the line at a random position replaced by edit(line)."""
    i = int(rng.integers(len(lines)))
    return [*lines[:i], edit(lines[i]), *lines[i + 1:]]


def _value(rng, lines, value):
    return _at(rng, lines, lambda line: line.split(",")[0] + "," + value)


def _stamp(rng, lines, stamp):
    return _at(rng, lines, lambda line: stamp + "," + line.split(",")[1])


# name -> (whether the column parser reads the mutated file, mutation).
# A mutation maps (rng, header, lines) to the file's bytes.
MUTATIONS = {
    "none": (True, lambda rng, h, ls: render(h, ls)),
    "no final newline": (True, lambda rng, h, ls: render(h, ls)[:-1]),
    "out of order": (True, lambda rng, h, ls: render(h, list(rng.permutation(ls)))),
    "duplicate rows": (True, lambda rng, h, ls: render(h, ls + list(rng.choice(ls, size=3)))),
    "pre-2001 date": (True, lambda rng, h, ls: render(h, _stamp(rng, ls, "1999-12-31 23:00:00"))),
    "leap day": (True, lambda rng, h, ls: render(h, _stamp(rng, ls, "2000-02-29 05:00:00"))),
    "crlf": (False, lambda rng, h, ls: render(h, ls, "\r\n")),
    "bom": (False, lambda rng, h, ls: b"\xef\xbb\xbf" + render(h, ls)),
    "quotes": (False, lambda rng, h, ls: render(h, _at(rng, ls, lambda line: line.replace(
        ",", ',"') + '"'))),
    "blank line": (False, lambda rng, h, ls: render(h, ls[:1] + [""] + ls[1:])),
    "extra column": (False, lambda rng, h, ls: render(
        h + ",Note", [line + ",x" for line in ls])),
    "trailing comma": (False, lambda rng, h, ls: render(h, _at(rng, ls, lambda line: line + ","))),
    "swapped columns": (False, lambda rng, h, ls: render(
        ",".join(h.split(",")[::-1]), [",".join(line.split(",")[::-1]) for line in ls])),
    "padded header": (False, lambda rng, h, ls: render(h.replace(",", ", "), ls)),
    "T separator": (False, lambda rng, h, ls: render(h, _at(rng, ls, lambda line: line.replace(
        " ", "T")))),
    "UTC offset": (False, lambda rng, h, ls: render(h, _at(rng, ls, lambda line: line.replace(
        ",", "+01:00,")))),
    "30 minutes": (False, lambda rng, h, ls: render(h, _stamp(rng, ls, "2020-01-06 01:30:00"))),
    "Feb 29 in a common year": (False, lambda rng, h, ls: render(
        h, _stamp(rng, ls, "2021-02-29 00:00:00"))),
    "April 31": (False, lambda rng, h, ls: render(h, _stamp(rng, ls, "2020-04-31 00:00:00"))),
    "month 13": (False, lambda rng, h, ls: render(h, _stamp(rng, ls, "2020-13-01 00:00:00"))),
    "hour 24": (False, lambda rng, h, ls: render(h, _stamp(rng, ls, "2020-01-01 24:00:00"))),
    "year 0": (False, lambda rng, h, ls: render(h, _stamp(rng, ls, "0000-01-01 00:00:00"))),
    "non-ASCII byte": (False, lambda rng, h, ls: render(h.replace("_MW", "\u00e9_MW"), ls)),
    "invalid UTF-8": (False, lambda rng, h, ls: render(h, _value(rng, ls, "7")).replace(
        b",7\n", b",7\xff\n", 1)),
    "only missing values": (False, lambda rng, h, ls: render(h, _value(
        rng, [line.split(",")[0] + ",NA" for line in ls], "null"))),
    "empty body": (False, lambda rng, h, ls: render(h, [])),
    "header only, no newline": (False, lambda rng, h, ls: h.encode()),
    "empty file": (False, lambda rng, h, ls: b""),
}
# One line's value replaced; the column parser reads only the first two.
VALUES = ("-12345678.9012345", "-0.0", "1234567890.123456", "+1", "1e5", "1.", ".5", " 12.5",
          "NA ", "inf", "-Infinity", "1\x002", "1.2.3", "1-2", "--1", "-", "-.5", "12a", "0x1F",
          "1_000")
MUTATIONS.update({
    f"value {value!r}": (i < 2, lambda rng, h, ls, value=value: render(h, _value(rng, ls, value)))
    for i, value in enumerate(VALUES)
})


def outcome(path) -> tuple:
    """What _parse_file makes of a file: its result as bytes, or its error."""
    try:
        provider, hours, means, duplicates = panel._parse_file(path)
    except Exception as exc:
        return type(exc), str(exc)
    return provider, hours.dtype, hours.tobytes(), means.tobytes(), duplicates


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_both_paths_agree_on_every_mutation(mutation, tmp_path, monkeypatch):
    fast, mutate = MUTATIONS[mutation]
    path = tmp_path / "AEP_hourly.csv"
    for case in range(12):
        rng = np.random.default_rng([sorted(MUTATIONS).index(mutation), case])
        path.write_bytes(mutate(rng, *random_file(rng)))
        assert (panel._parse_columns(path.read_bytes()) is not None) == fast, case
        got = outcome(path)
        with monkeypatch.context() as m:
            m.setattr(panel, "_parse_columns", lambda data: None)
            assert got == outcome(path), case


# Header-row mutations: name -> the file's bytes from (header, lines). The
# column parser reads none of them, and each must end on both paths in the
# same ValueError naming the path.
HEADERS = {
    "lower-case datetime": lambda h, ls: render(h.replace("Datetime", "datetime"), ls),
    "two _MW columns": lambda h, ls: render(h + ",DOM_MW", [line + ",1" for line in ls]),
    "_MW column with no id": lambda h, ls: render("Datetime,_MW", ls),
    "blank line before the header": lambda h, ls: b"\n" + render(h, ls),
    "header repeated mid-file": lambda h, ls: (render(h, ls[: len(ls) // 2])
                                               + render(h, ls[len(ls) // 2:])),
}


@pytest.mark.parametrize("mutation", HEADERS)
def test_header_mutations_fail_alike_naming_the_path(mutation, tmp_path, monkeypatch):
    path = tmp_path / "AEP_hourly.csv"
    for case in range(12):
        rng = np.random.default_rng([len(MUTATIONS) + sorted(HEADERS).index(mutation), case])
        path.write_bytes(HEADERS[mutation](*random_file(rng)))
        assert panel._parse_columns(path.read_bytes()) is None, case
        got = outcome(path)
        assert got[0] is ValueError and got[1].startswith(f"{path}"), (case, got)
        with monkeypatch.context() as m:
            m.setattr(panel, "_parse_columns", lambda data: None)
            assert got == outcome(path), case


@pytest.mark.parametrize("header", ["Datetime,_MW", "Datetime, _MW"])
def test_an_mw_column_without_a_provider_id_is_rejected(header, tmp_path):
    # Such a file used to be read as the provider ''.
    path = tmp_path / "AEP_hourly.csv"
    path.write_bytes(render(header, ["2020-01-06 00:00:00,1", "2020-01-06 01:00:00,2"]))
    message = re.escape(f"{path}: the '_MW' column names no provider id")
    assert panel._parse_columns(path.read_bytes()) is None
    with pytest.raises(ValueError, match=message):
        panel._parse_rows(path)
    with pytest.raises(ValueError, match=message):
        ingest_csv([path])


def test_decimals_parse_to_the_bits_of_float(tmp_path):
    # 100,000 decimals of 1 to 15 digits, leading zeros kept, a point after
    # any digit but the last, a minus sign on one in five.
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 16, 100_000)
    texts = []
    for m, count, point, minus in zip(rng.integers(0, 10**counts), counts,
                                      rng.integers(0, counts), rng.random(counts.size) < 0.2):
        text = f"{m:0{count}d}"
        texts.append("-" * int(minus) + (text[:point] + "." + text[point:] if point else text))
    path = tmp_path / "AEP_hourly.csv"
    path.write_bytes(render("Datetime,AEP_MW", [f"2001-01-01 00:00:00,{t}" for t in texts]))
    provider, hours, values = panel._parse_columns(path.read_bytes())
    assert provider == "AEP" and not hours.any()
    assert values.tobytes() == np.array([float(t) for t in texts]).tobytes()


def test_hours_match_the_row_loop_across_the_calendar(tmp_path):
    # Every 97th day from 0001-01-01 to 9999-12-30, at a random hour.
    days = np.arange(np.datetime64("0001-01-01"), np.datetime64("9999-12-31"), 97)
    stamps = days + np.random.default_rng(3).integers(0, 24, days.size).astype("timedelta64[h]")
    lines = [f"{s.replace('T', ' ')}:00:00,1" for s in np.datetime_as_string(stamps, unit="h")]
    path = tmp_path / "AEP_hourly.csv"
    path.write_bytes(render("Datetime,AEP_MW", lines))
    _, hours, _ = panel._parse_columns(path.read_bytes())
    assert hours.tolist() == panel._parse_rows(path)[1]
    assert hours[0] < 0 < hours[-1]


def pjm_file(path):
    """Eight weeks of a PJM-style file: the DST fall-back hour listed twice,
    one hour dropped, and each missing token once."""
    rng = np.random.default_rng(5)
    start = datetime(2019, 10, 7)
    lines = []
    for i in range(8 * 168):
        stamp = (start + timedelta(hours=i)).isoformat(" ")
        if stamp == "2019-10-20 14:00:00":
            continue
        lines.append(f"{stamp},{rng.uniform(9000, 15000):.1f}")
        if stamp == "2019-11-03 01:00:00":
            lines.append(f"{stamp},{rng.uniform(9000, 15000):.1f}")
    for i, token in enumerate(("", "NA", "nan", "null")):
        lines[100 + 50 * i] = lines[100 + 50 * i].split(",")[0] + "," + token
    path.write_text("Datetime,AEP_MW\n" + "\n".join(lines) + "\n")
    return path


def test_pjm_format_takes_the_column_parser(tmp_path, monkeypatch):
    path = pjm_file(tmp_path / "AEP_hourly.csv")

    def row_loop(path):
        raise AssertionError(f"{path} went to the row loop")

    with monkeypatch.context() as m:
        m.setattr(panel, "_parse_rows", row_loop)
        fast = ingest_csv([path])
    slow = ingest_csv([path])
    assert fast.repairs == slow.repairs == {
        "duplicates_averaged": 1, "gaps_interpolated": 5, "edge_hours_dropped": 0}
    assert fast.values.tobytes() == slow.values.tobytes()
    assert fast.timestamps.tobytes() == slow.timestamps.tobytes()


def traced_peak(fn, *args) -> int:
    fn(*args)  # warm caches before tracing
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_column_parser_peak_memory_is_at_most_the_row_loops(tmp_path, monkeypatch):
    path = pjm_file(tmp_path / "AEP_hourly.csv")
    columns = traced_peak(panel._parse_file, path)
    with monkeypatch.context() as m:
        m.setattr(panel, "_parse_columns", lambda data: None)
        rows = traced_peak(panel._parse_file, path)
    assert columns <= rows


# Known panels: (weeks, N, 7, 24) values in tenths, so each is the double
# nearest its one-decimal text and float() of the text gives it back.
KNOWN_PROVIDERS = ("AEP", "DOM", "NI")
KNOWN_START = datetime(2020, 1, 6)  # a Monday: every rendered week folds whole


def known_panel(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 11])
    return rng.integers(1_000, 100_000, (3, len(KNOWN_PROVIDERS), 7, 24)) / 10


def known_lines(values: np.ndarray, provider: int) -> list[str]:
    hourly = values[:, provider].reshape(-1)
    return [f"{(KNOWN_START + timedelta(hours=h)).isoformat(' ')},{v:.1f}"
            for h, v in enumerate(hourly.tolist())]


def _edit_line(rng, lines, edit):
    """lines with one random line replaced by edit(line), and that line's
    number in the file (the header is line 1)."""
    i = int(rng.integers(len(lines)))
    return [*lines[:i], edit(lines[i]), *lines[i + 1:]], i + 2


def _new_value(text):
    return lambda line: line.split(",")[0] + "," + text(line.split(",")[1])


def _new_stamp(stamp):
    return lambda line: stamp(line.split(",")[0]) + "," + line.split(",")[1]


def _same(data):
    return data, None


def _failing(header, lines, line):
    return render(header, lines), line


# name -> mutation of (rng, header, lines) to (file bytes, the line a
# ValueError must name, or None where the panel must come back unchanged).
KNOWN_MUTATIONS = {
    "none": lambda rng, h, ls: _same(render(h, ls)),
    "crlf endings": lambda rng, h, ls: _same(render(h, ls, "\r\n")),
    "no final newline": lambda rng, h, ls: _same(render(h, ls)[:-1]),
    "reordered rows": lambda rng, h, ls: _same(render(h, list(rng.permutation(ls)))),
    "duplicated identical row": lambda rng, h, ls: _same(render(
        h, ls + [ls[int(rng.integers(len(ls)))]])),
    "extra non-_MW column": lambda rng, h, ls: _same(render(
        h + ",Note", [line + ",x" for line in ls])),
    "blank line": lambda rng, h, ls: _same(render(
        h, _edit_line(rng, ls, lambda line: line + "\n")[0])),
    "padded fields": lambda rng, h, ls: _same(render(
        h.replace(",", " , "), [line.replace(",", " , ") for line in ls])),
    "quoted value": lambda rng, h, ls: _same(render(
        h, _edit_line(rng, ls, _new_value(lambda v: f'"{v}"'))[0])),
    "trailing zero and plus sign": lambda rng, h, ls: _same(render(
        h, _edit_line(rng, ls, _new_value(lambda v: f"+{v}0"))[0])),
    "bad digit": lambda rng, h, ls: _failing(h, *_edit_line(
        rng, ls, _new_value(lambda v: v[:-1] + "o"))),
    "malformed timestamp": lambda rng, h, ls: _failing(h, *_edit_line(
        rng, ls, _new_stamp(lambda s: s.replace("-", "/")))),
    "month 13": lambda rng, h, ls: _failing(h, *_edit_line(
        rng, ls, _new_stamp(lambda s: s[:5] + "13" + s[7:]))),
    "off-grid timestamp": lambda rng, h, ls: _failing(h, *_edit_line(
        rng, ls, _new_stamp(lambda s: s[:-5] + "30:00"))),
    "UTC offset": lambda rng, h, ls: _failing(h, *_edit_line(
        rng, ls, _new_stamp(lambda s: s + "+01:00"))),
    "inf value": lambda rng, h, ls: _failing(h, *_edit_line(rng, ls, _new_value(lambda v: "inf"))),
    "negative infinity": lambda rng, h, ls: _failing(h, *_edit_line(
        rng, ls, _new_value(lambda v: "-Infinity"))),
}


@pytest.mark.parametrize("mutation", KNOWN_MUTATIONS)
def test_known_panels_come_back_or_fail_naming_the_line(mutation, tmp_path):
    for seed in range(4):
        rng = np.random.default_rng([sorted(KNOWN_MUTATIONS).index(mutation), seed])
        values = known_panel(seed)
        target = int(rng.integers(len(KNOWN_PROVIDERS)))
        paths, line = [], None
        for i, provider in enumerate(KNOWN_PROVIDERS):
            paths.append(tmp_path / f"{seed}-{provider}_hourly.csv")
            header, lines = f"Datetime,{provider}_MW", known_lines(values, i)
            if i == target:
                data, line = KNOWN_MUTATIONS[mutation](rng, header, lines)
            else:
                data = render(header, lines)
            paths[-1].write_bytes(data)
        if line is None:
            ts = fold(ingest_csv(paths), CalendarSpec())
            assert ts.provider_ids == list(KNOWN_PROVIDERS), seed
            assert ts.period_starts[0] == np.datetime64(KNOWN_START, "h"), seed
            assert ts.values.tobytes() == values.tobytes(), seed
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{paths[target]}:{line}: ')}"):
                ingest_csv(paths)
