"""The numpy cleaning kernels against their loop references, bit for bit."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cleaning_oracles as oracle
from cryptodiv.data import (Category, MetricSeries, align_calendar, dedupe, forward_fill,
                            longest_flat_run)

SPECIAL = [0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan]
value = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
runs = st.lists(st.tuples(value, st.integers(1, 6)), max_size=12).map(
    lambda pieces: [v for v, k in pieces for _ in range(k)])


def bits(values: np.ndarray) -> list[int]:
    """Exact bit patterns, so NaN payloads and the sign of zero are compared too."""
    assert values.dtype == np.float64
    return values.view(np.int64).tolist()


@st.composite
def raw_series(draw, category=Category.MACRO):
    """A series on a daily, weekday-only or sparse calendar with repeated dates."""
    start = date(2019, 1, 1) + timedelta(days=draw(st.integers(0, 13)))
    n = draw(st.integers(0, 30))
    days = [start + timedelta(days=i) for i in range(n)]
    calendar = draw(st.sampled_from(["daily", "weekdays", "sparse"]))
    if calendar == "weekdays":
        days = [d for d in days if d.weekday() < 5]
    elif calendar == "sparse":
        days = [d for d, keep in zip(days, draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                if keep]
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(days), max_size=len(days)))
    dates = [d for d, k in zip(days, repeats) for _ in range(k)]
    if draw(st.booleans()):
        dates = draw(st.permutations(dates))
    values = (draw(runs) + [np.nan] * len(dates))[:len(dates)]
    return MetricSeries(draw(st.sampled_from("abcd")), category, tuple(dates), np.array(values))


def sorted_unique(series: MetricSeries) -> MetricSeries:
    """What clean_corpus hands on from a loaded series: ascending dates, first occurrence kept."""
    order = sorted(range(len(series.dates)), key=series.dates.__getitem__)
    ordered = MetricSeries(series.name, series.category, tuple(series.dates[i] for i in order),
                           series.values[order])
    return oracle.dedupe(ordered)


def assert_same_series(got: MetricSeries, want: MetricSeries):
    assert (got.name, got.category, got.dates) == (want.name, want.category, want.dates)
    assert bits(got.values) == bits(want.values)


@given(st.one_of(runs, st.lists(value, max_size=40)))
@settings(max_examples=400, deadline=None)
def test_longest_flat_run_matches_loop(values):
    values = np.array(values, dtype=np.float64)
    got = longest_flat_run(values)
    assert type(got) is int
    assert got == oracle.longest_flat_run(values)


@pytest.mark.parametrize("values, run", [
    ([], 0), ([np.nan, np.nan], 0), ([5.0], 1), ([0.0, -0.0, 0.0], 3),
    ([np.inf, np.inf, np.nan, np.inf], 2), ([1, 2, 2, 2, 3, 3], 3)])
def test_longest_flat_run_edges(values, run):
    assert longest_flat_run(np.array(values)) == run


@given(raw_series())
@settings(max_examples=400, deadline=None)
def test_dedupe_matches_loop(series):
    got, want = dedupe(series), oracle.dedupe(series)
    assert (got is series) == (want is series)
    assert_same_series(got, want)


@given(raw_series(Category.TRADITIONAL_INDEX))
@settings(max_examples=400, deadline=None)
def test_forward_fill_matches_loop(series):
    series = sorted_unique(series)
    got, got_filled = forward_fill(oracle.to_daily_grid(series).values)
    want, want_filled = oracle.forward_fill(series)
    assert got_filled == want_filled
    assert bits(got) == bits(want.values)


@given(st.lists(raw_series(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_align_calendar_matches_loop(series_list):
    corpus = {f"m{i}": sorted_unique(s) for i, s in enumerate(series_list)}
    if not any(s.dates for s in corpus.values()):
        with pytest.raises(ValueError, match="no dated points"):
            align_calendar(corpus)
        return
    (grid, columns), (want_grid, want_columns) = align_calendar(corpus), oracle.align_calendar(corpus)
    assert grid == want_grid
    assert list(columns) == list(want_columns)
    for name, col in columns.items():
        assert bits(col) == bits(want_columns[name])


def test_align_calendar_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        align_calendar({})
