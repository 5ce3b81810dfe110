"""The bulk metric-CSV parser and the streaming market-cap reader against the
row-by-row readers in ingest_oracles, on generated files.

Each file either loads to the same dates and the same value bits, or fails
with the same message naming the same line.
"""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cryptodiv.data import _load_metric_csv
from cryptodiv.index import McapSnapshot, load_mcap_csv, select_top_n, top_n_cap

import ingest_oracles as oracle

# a reader that warns (numpy's "input contained no data") prints noise on a valid file
pytestmark = pytest.mark.filterwarnings("error")

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: f"{v:.6g}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "+.5", "5.", "1e5", "1E-3", "007", "-0.0", "1e-320", "4.9e-324"]),
)
PADDED = st.tuples(st.sampled_from(["", " ", "\t", "\xa0"]), NUMBERS,
                   st.sampled_from(["", " ", "\t", "　"])).map("".join)
GOOD_CELLS = st.one_of(NUMBERS, PADDED, st.sampled_from(["", " ", "\t ", "\xa0"]))
BAD_CELLS = st.sampled_from(["nan", "inf", "-Infinity", " NaN", "1_000", "١٢", "x", "1e999",
                             "-1e400", "1 2", "0x10", "1,5", "n", "\n1"])
GOOD_DAYS = st.integers(0, 9).map(lambda k: (date(2019, 1, 1) + timedelta(days=k)).isoformat())
PADDED_DAYS = st.tuples(st.sampled_from(["", " "]), GOOD_DAYS, st.sampled_from(["", "\t"])).map("".join)
BAD_DAYS = st.sampled_from(["20190101", "2019-W01-3", "2019-13-01", "2019-1-01", "", "x",
                            "2019-01-01T00:00", "２０１９-01-01"])
QUOTED = st.sampled_from([False, False, True])
EOLS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
BLANK_ROWS = st.sampled_from([[], [""], [" "], ["", "", ""], [" ", "\t", ""], ["", "", "", "", ""]])


def csv_text(header: list[str], rows: list[list[str]], quote: bool, eol: str) -> str:
    def cell(c: str) -> str:
        return '"' + c + '"' if quote or any(ch in c for ch in ',"\n\r') else c
    return eol.join(",".join(map(cell, r)) for r in [header] + rows) + eol


@st.composite
def metric_files(draw):
    n = draw(st.integers(1, 4))
    bad = draw(st.booleans())
    cells = st.one_of(GOOD_CELLS, BAD_CELLS) if bad else GOOD_CELLS
    days = st.one_of(GOOD_DAYS, PADDED_DAYS, BAD_DAYS) if bad else st.one_of(GOOD_DAYS, PADDED_DAYS)
    widest = n + 1 if bad else n  # a row wider than the header only in a bad file
    data_rows = st.tuples(days, st.lists(cells, max_size=widest)).map(lambda r: [r[0], *r[1]])
    rows = draw(st.lists(st.one_of(data_rows, data_rows, data_rows, BLANK_ROWS), max_size=12))
    metrics = [f"m{i}" for i in range(n)]
    text = csv_text(["date", *metrics], rows, draw(QUOTED), draw(EOLS))
    return metrics, text


def outcome(load):
    try:
        return "ok", load()
    except ValueError as exc:
        return "error", str(exc)


def bits(table: np.ndarray) -> bytes:
    return np.ascontiguousarray(table, dtype=np.float64).tobytes()


@given(metric_files())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_metric_csv_matches_row_by_row_oracle(tmp_path, case):
    metrics, text = case
    path = tmp_path / "a.csv"
    path.write_bytes(text.encode())
    got = outcome(lambda: _load_metric_csv(path, {m: "macro" for m in metrics}))
    want = outcome(lambda: oracle.metric_rows(path, metrics))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    series, (dates, table) = got[1], want[1]
    assert [s.name for s in series] == metrics
    assert all(s.dates.tolist() == list(dates) for s in series)
    assert bits(np.column_stack([s.values for s in series])) == bits(table)


@pytest.mark.parametrize("text", [
    'date,m0,m1\r\n2019-01-02,1,2\r\n\r\n2019-01-01,"3",\r\n',
    'date,m0,m1\n2019-01-02,"1\n",2\n2019-01-01," 3 ",4\n',
    "date,m0,m1\n2019-01-02,1\n2019-01-02,,2\n2019-01-01\n",
    "date,m0,m1\n2019-01-02,1,2\r2019-01-01,3,4\r",
    'date,m0,m1\n2019-01-02,"1,5",2\n',
    "date,m0,m1\n2019-01-02,1,2\n2019-01-01,3,4,\n",
    "date,m0,m1\n,1,2\n",
    "date,m0,m1\n2019-01-02,1,1e999\n",
], ids=["crlf-quoted", "quoted-newline", "short-and-repeated", "bare-cr", "quoted-comma",
        "trailing-comma", "values-without-date", "overflow"])
def test_metric_csv_matches_oracle_on_layouts(tmp_path, text):
    path = tmp_path / "a.csv"
    path.write_bytes(text.encode())
    metrics = ["m0", "m1"]
    got = outcome(lambda: _load_metric_csv(path, {m: "macro" for m in metrics}))
    want = outcome(lambda: oracle.metric_rows(path, metrics))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1][0].dates.tolist() == list(want[1][0])
        assert bits(np.column_stack([s.values for s in got[1]])) == bits(want[1][1])


CAPS = st.one_of(st.floats(0, 1e15, allow_nan=False).map(repr), st.integers(0, 10**12).map(str),
                 st.sampled_from(["-0", "1e9", " 2.5e9 ", "0"]))
BAD_CAPS = st.sampled_from(["nan", "inf", "1_000", "١٢", "oops", "", "1e999", "-3", " -1e-300"])
SYMBOLS = st.sampled_from(["BTC", "ETH", "XRP", " SOL ", "ADA"])


@st.composite
def mcap_files(draw):
    bad = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.one_of(GOOD_DAYS, PADDED_DAYS), SYMBOLS),
                          max_size=15, unique_by=lambda p: (p[0].strip(), p[1].strip())))
    caps = st.one_of(CAPS, BAD_CAPS) if bad else CAPS
    rows = [[d, s, draw(caps)] for d, s in pairs]
    if bad and rows:
        k = draw(st.integers(0, len(rows) - 1))
        rows.insert(k, draw(st.sampled_from([
            [*rows[k][:2], "1"],                    # the same asset twice on a day
            [*rows[k], "oops"],                      # wider than the header
            rows[k][:2],                             # short
            [draw(BAD_DAYS), "BTC", "1"],
        ])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(BLANK_ROWS))
    text = csv_text(["date", "asset", "market_cap_usd"], rows, draw(QUOTED), draw(EOLS))
    return text


@given(mcap_files())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mcap_csv_matches_row_by_row_oracle(tmp_path, text):
    path = tmp_path / "caps.csv"
    path.write_bytes(text.encode())
    got = outcome(lambda: [(s.date, list(s.caps.items())) for s in load_mcap_csv(path)])
    want = outcome(lambda: [(d, list(caps.items())) for d, caps in oracle.mcap_days(path)])
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert [(d, [(s, repr(c)) for s, c in items]) for d, items in got[1]] == \
        [(d, [(s, repr(c)) for s, c in items]) for d, items in want[1]]


@pytest.mark.parametrize("text", [
    'date,asset,market_cap_usd\n2020-01-01,"BTC",1e9\n2020-01-01,ETH,2e9\n',
    'date,asset,market_cap_usd\r\n2020-01-02,BTC,1e9\r\n\r\n2020-01-01, BTC ,2e9\r\n',
    "date,asset,market_cap_usd\n2020-01-01,BTC,1e9\n2020-01-01,BTC,2e9\n",
    "date,asset,market_cap_usd\n2020-01-01,BTC,1e999\n",
    "date,asset,market_cap_usd\n2020-01-01,BTC,1e9\n2020-01-01,ETH,-3\n",
    "date,asset,market_cap_usd\n2020-01-01,BTC,-0\n",
], ids=["quoted-asset", "crlf-blank-unsorted", "duplicate", "overflow", "negative",
        "negative-zero"])
def test_mcap_csv_matches_oracle_on_layouts(tmp_path, text):
    path = tmp_path / "caps.csv"
    path.write_bytes(text.encode())
    got = outcome(lambda: [(s.date, list(s.caps.items())) for s in load_mcap_csv(path)])
    want = outcome(lambda: [(d, list(caps.items())) for d, caps in oracle.mcap_days(path)])
    assert got == want


TIED_CAPS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5.0, 1e9, 2.5e9, 0.1, 0.2, 0.3]),
                      st.floats(0, 1e15, allow_nan=False))


@given(st.dictionaries(st.text("ABCXYZ", min_size=1, max_size=3), TIED_CAPS, min_size=1, max_size=30),
       st.integers(1, 40))
@settings(max_examples=500, deadline=None)
def test_top_n_cap_sums_the_caps_of_select_top_n_in_its_order(caps, n):
    snapshot = McapSnapshot(date(2020, 1, 1), caps)
    expected = 0.0
    for symbol in select_top_n(snapshot, n):    # left to right, as on every Python
        expected += caps[symbol]
    got = top_n_cap(snapshot, n)
    assert repr(got) == repr(expected)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)
