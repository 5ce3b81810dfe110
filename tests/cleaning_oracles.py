"""Loop reference implementations of the corpus-cleaning kernels in cryptodiv.data.

These are the element-by-element versions the numpy kernels replaced. The
kernel tests require the kernels to reproduce them bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import date, timedelta
from typing import Mapping

import numpy as np

from cryptodiv.data import MetricSeries


def dedupe(series: MetricSeries) -> MetricSeries:
    seen: set[date] = set()
    keep = []
    for i, d in enumerate(series.dates):
        if d not in seen:
            seen.add(d)
            keep.append(i)
    if len(keep) == len(series.dates):
        return series
    idx = np.array(keep)
    return replace(series, dates=tuple(series.dates[i] for i in keep), values=series.values[idx])


def to_daily_grid(series: MetricSeries) -> MetricSeries:
    if not series.dates:
        return series
    first, last = series.dates[0], series.dates[-1]
    n = (last - first).days + 1
    if n == len(series.dates):
        return series
    values = np.full(n, np.nan)
    for d, v in zip(series.dates, series.values):
        values[(d - first).days] = v
    dates = tuple(first + timedelta(days=i) for i in range(n))
    return replace(series, dates=dates, values=values)


def forward_fill(series: MetricSeries) -> tuple[MetricSeries, int]:
    daily = to_daily_grid(series)
    values = daily.values.copy()
    filled = 0
    last = np.nan
    observed = np.flatnonzero(~np.isnan(values))
    last_valid = int(observed[-1]) if observed.size else None
    for i in range(len(values)):
        if np.isnan(values[i]):
            if not np.isnan(last) and last_valid is not None and i < last_valid:
                values[i] = last
                filled += 1
        else:
            last = values[i]
    if filled == 0:
        return daily, 0
    return replace(daily, values=values), filled


def align_calendar(corpus: Mapping[str, MetricSeries]) -> tuple[tuple[date, ...], dict[str, np.ndarray]]:
    if not corpus:
        raise ValueError("empty corpus")
    firsts = [s.dates[0] for s in corpus.values() if s.dates]
    lasts = [s.dates[-1] for s in corpus.values() if s.dates]
    if not firsts:
        raise ValueError("corpus has no dated points")
    start, end = min(firsts), max(lasts)
    n = (end - start).days + 1
    grid = tuple(start + timedelta(days=i) for i in range(n))
    columns = {}
    for name in sorted(corpus):
        series = corpus[name]
        col = np.full(n, np.nan)
        for d, v in zip(series.dates, series.values):
            col[(d - start).days] = v
        columns[name] = col
    return grid, columns


def longest_flat_run(values: np.ndarray) -> int:
    best = run = 0
    prev = np.nan
    for v in values:
        if not np.isnan(v) and v == prev:
            run += 1
        else:
            run = 1 if not np.isnan(v) else 0
        best = max(best, run)
        prev = v
    return best
