from datetime import date, timedelta

import numpy as np
import pytest

from cryptodiv.data import Category, MetricSeries


@pytest.fixture
def day():
    """Day factory anchored at 2019-01-01: day(3) = 2019-01-04."""
    base = date(2019, 1, 1)
    return lambda offset: base + timedelta(days=offset)


def series_from(day, name, values, category=Category.MARKET, start=0):
    """Series on consecutive days; None marks a missing value."""
    dates = [day(start + i) for i in range(len(values))]
    return MetricSeries(name, category, dates, [np.nan if v is None else v for v in values])


@pytest.fixture
def make_series(day):
    return lambda name, values, category=Category.MARKET, start=0: series_from(
        day, name, values, category, start)


def assert_close(a, b, tol=1e-9):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    both_nan = np.isnan(a) & np.isnan(b)
    diff = np.abs(a - b)
    diff[both_nan] = 0.0
    assert np.all((diff <= tol) | both_nan), f"max diff {np.nanmax(diff)}"
