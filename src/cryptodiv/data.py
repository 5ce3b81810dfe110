"""Corpus ingestion, cleaning, and per-scenario dataset construction.

A raw corpus is a dict of named metric series, each on its own calendar and
tagged with a source category. Cleaning is a fixed pipeline: dedupe ->
align every series on one daily calendar -> forward-fill traditional market
indices -> drop degenerate columns -> linear interpolation of interior
gaps. The cleaned corpus is a Dataset on that calendar; scenario datasets
are row slices of it with a shifted future-index target.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


class ManifestError(ValueError):
    """Raised when a corpus manifest or its CSV files are invalid."""


class Category(Enum):
    """Data-source category of a metric series."""

    MACRO = "macro"
    TECHNICAL = "technical"
    SENTIMENT_INTEREST = "sentiment"
    TRADITIONAL_INDEX = "trad_index"
    ONCHAIN_BTC = "onchain_btc"
    ONCHAIN_USDC = "onchain_usdc"
    MARKET = "market"


_CATEGORY_TAGS = {c.value: c for c in Category}


@dataclass(frozen=True)
class MetricSeries:
    """One named daily time series; NaN marks a missing value."""

    name: str
    category: Category
    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ValueError(f"{self.name}: {len(self.dates)} dates vs {len(self.values)} values")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @classmethod
    def from_points(cls, name: str, category: Category,
                    points: Iterable[tuple[date, float | None]]) -> "MetricSeries":
        pts = list(points)
        dates = tuple(d for d, _ in pts)
        values = np.array([np.nan if v is None else float(v) for _, v in pts])
        return cls(name, category, dates, values)

    @property
    def points(self) -> list[tuple[date, float | None]]:
        return [(d, None if np.isnan(v) else float(v))
                for d, v in zip(self.dates, self.values)]


@dataclass(frozen=True)
class Scenario:
    """One experiment cell: a period start and a prediction window in days."""

    period_start: date
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def label(self) -> str:
        return f"{self.period_start.year}_{self.window}"


@dataclass
class Dataset:
    """Date-aligned feature matrix with a category per feature.

    Feature columns are kept in name-sorted order so every downstream
    computation is invariant to the order columns were supplied in.
    The target column is absent until make_target is applied.
    """

    dates: tuple[date, ...]
    features: dict[str, np.ndarray]
    categories: dict[str, Category]
    target: np.ndarray | None = None
    window: int | None = None

    def __post_init__(self):
        ordered = {}
        for name in sorted(self.features):
            col = np.asarray(self.features[name], dtype=np.float64)
            if len(col) != len(self.dates):
                raise ValueError(f"column {name!r} has length {len(col)}, expected {len(self.dates)}")
            if name not in self.categories:
                raise ValueError(f"feature {name!r} has no category")
            ordered[name] = col
        self.features = ordered
        if self.target is not None:
            self.target = np.asarray(self.target, dtype=np.float64)
            if len(self.target) != len(self.dates):
                raise ValueError("target length does not match dates")

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features)

    def matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Row-major feature matrix; columns follow `names` or canonical order."""
        cols = list(self.features) if names is None else list(names)
        if not cols:
            return np.empty((self.n_rows, 0))
        return np.column_stack([self.features[c] for c in cols])

    def select(self, names: Iterable[str]) -> "Dataset":
        keep = set(names)
        missing = keep - set(self.features)
        if missing:
            raise KeyError(f"unknown features: {sorted(missing)}")
        return Dataset(
            dates=self.dates,
            features={n: v for n, v in self.features.items() if n in keep},
            categories={n: c for n, c in self.categories.items() if n in keep},
            target=self.target,
            window=self.window,
        )

    def rows(self, start: int, stop: int) -> "Dataset":
        return Dataset(
            dates=self.dates[start:stop],
            features={n: v[start:stop] for n, v in self.features.items()},
            categories=dict(self.categories),
            target=None if self.target is None else self.target[start:stop],
            window=self.window,
        )


@dataclass(frozen=True)
class DropRecord:
    """One dropped column with the single reason that removed it."""

    metric: str
    reason: str  # "flat_run" or "missing_ratio"
    detail: str


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def load_corpus(manifest_path: str | Path) -> dict[str, MetricSeries]:
    """Load all metric series listed in a JSON manifest.

    The manifest maps CSV files (relative to the manifest) to a per-column
    category tag: ``{"files": {"prices.csv": {"close-price": "market"}}}``.
    Every non-date column of every file must be listed with a known tag, and
    metric names must be unique across files. Returned dict is sorted by
    metric name, so the result does not depend on file order.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ManifestError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {manifest_path}: {exc}") from exc
    files = manifest.get("files")
    if not isinstance(files, dict) or not files:
        raise ManifestError(f"manifest must contain a non-empty 'files' mapping: {manifest_path}")

    corpus: dict[str, MetricSeries] = {}
    for rel_path in sorted(files):
        column_tags = files[rel_path]
        if not isinstance(column_tags, dict):
            raise ManifestError(f"{manifest_path}: entry for {rel_path!r} must map columns to categories")
        csv_path = manifest_path.parent / rel_path
        for series in _load_metric_csv(csv_path, column_tags):
            if series.name in corpus:
                raise ManifestError(f"duplicate metric name {series.name!r} (second occurrence in {rel_path})")
            corpus[series.name] = series
    return {name: corpus[name] for name in sorted(corpus)}


def _load_metric_csv(csv_path: Path, column_tags: Mapping[str, str]) -> list[MetricSeries]:
    if not csv_path.is_file():
        raise ManifestError(f"data file not found: {csv_path}")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{csv_path}: empty file") from None
        if not header or header[0] != "date":
            raise ManifestError(f"{csv_path}: first column must be 'date', got {header[:1]}")
        metrics = header[1:]
        for m in metrics:
            if m not in column_tags:
                raise ManifestError(f"{csv_path}: metric {m!r} absent from manifest")
        for m in column_tags:
            if m not in metrics:
                raise ManifestError(f"{csv_path}: manifest lists {m!r} but file has no such column")
        categories = {}
        for m, tag in column_tags.items():
            if tag not in _CATEGORY_TAGS:
                raise ManifestError(f"{csv_path}: unknown category {tag!r} for metric {m!r}")
            categories[m] = _CATEGORY_TAGS[tag]

        rows: list[tuple[date, list[float]]] = []
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                d = date.fromisoformat(row[0].strip())
            except ValueError:
                raise ManifestError(f"{csv_path}:{lineno}: unparseable date {row[0]!r}") from None
            vals = []
            for i, m in enumerate(metrics, start=1):
                cell = row[i].strip() if i < len(row) else ""
                if cell == "":
                    vals.append(np.nan)
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ManifestError(f"{csv_path}:{lineno}: bad value {cell!r} for {m!r}") from None
                    if not math.isfinite(value):
                        raise ManifestError(f"{csv_path}:{lineno}: non-finite value {cell!r} for {m!r} "
                                            "(leave the cell empty for a missing value)")
                    vals.append(value)
            rows.append((d, vals))

    rows.sort(key=lambda r: r[0])  # stable: file order preserved among equal dates
    dates = tuple(r[0] for r in rows)
    table = np.array([r[1] for r in rows]) if rows else np.empty((0, len(metrics)))
    return [MetricSeries(m, categories[m], dates, table[:, i]) for i, m in enumerate(metrics)]


# ---------------------------------------------------------------------------
# per-series cleaning
# ---------------------------------------------------------------------------

def _ordinals(dates: Sequence[date]) -> np.ndarray:
    """`date.toordinal()` of each date as int64: consecutive days differ by 1."""
    return np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))


def dedupe(series: MetricSeries) -> MetricSeries:
    """Drop repeated dates, keeping the first occurrence of each."""
    _, first = np.unique(_ordinals(series.dates), return_index=True)
    if len(first) == len(series.dates):
        return series
    keep = np.zeros(len(series.dates), dtype=bool)
    keep[first] = True
    return replace(series, dates=tuple(compress(series.dates, keep.tolist())),
                   values=series.values[keep])


# ---------------------------------------------------------------------------
# column fills on the daily calendar
# ---------------------------------------------------------------------------

def forward_fill(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Fill the interior gaps of one column with the last observed value.

    Returns the filled column and the number of imputed days. Used for
    traditional market indices, which do not trade on weekends. Leading and
    trailing gaps are left missing. Returns `values` itself when there is
    nothing to fill.
    """
    gaps = np.isnan(values)
    valid = np.flatnonzero(~gaps)
    if valid.size == 0:
        return values, 0
    gaps[:valid[0]] = False
    gaps[valid[-1]:] = False
    filled = int(gaps.sum())
    if filled == 0:
        return values, 0
    # inside the observed span every non-gap is observed, so the running max
    # of non-gap positions is the last observed day at or before each gap
    source = np.maximum.accumulate(np.where(gaps, 0, np.arange(len(values))))
    return values[source], filled


def interpolate_fill(values: np.ndarray) -> np.ndarray:
    """Linearly interpolate the interior gaps of one column.

    Leading and trailing gaps are never filled; slice_period handles them.
    Returns `values` itself when there is nothing to fill.
    """
    interior = np.isnan(values)
    valid = np.flatnonzero(~interior)
    if valid.size == 0:
        return values
    interior[:valid[0]] = False
    interior[valid[-1] + 1:] = False
    if not interior.any():
        return values
    out = values.copy()
    out[interior] = np.interp(np.flatnonzero(interior), valid, values[valid])
    return out


# ---------------------------------------------------------------------------
# corpus-level cleaning
# ---------------------------------------------------------------------------

def align_calendar(corpus: Mapping[str, MetricSeries]) -> tuple[tuple[date, ...], dict[str, np.ndarray]]:
    """Pad every series with NaN onto the corpus-wide daily calendar.

    Each series' dates must be strictly ascending (ValueError).
    """
    if not corpus:
        raise ValueError("empty corpus")
    firsts = [s.dates[0] for s in corpus.values() if s.dates]
    lasts = [s.dates[-1] for s in corpus.values() if s.dates]
    if not firsts:
        raise ValueError("corpus has no dated points")
    start, end = min(firsts), max(lasts)
    # below 1 only when every dated series is out of order, which the loop rejects
    n = max((end - start).days + 1, 0)
    columns = {}
    for name in sorted(corpus):
        series = corpus[name]
        offsets = _ordinals(series.dates) - start.toordinal()
        bad = np.flatnonzero(offsets[1:] <= offsets[:-1])
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(f"{series.name}: dates must be strictly ascending, "
                             f"got {series.dates[i]} after {series.dates[i - 1]}")
        col = np.full(n, np.nan)
        col[offsets] = series.values
        columns[name] = col
    return tuple((np.datetime64(start, "D") + np.arange(n)).tolist()), columns


def longest_flat_run(values: np.ndarray) -> int:
    """Length of the longest run of equal consecutive observed values."""
    values = np.asarray(values)
    if np.isnan(values).all():
        return 0
    # NaN != NaN ends a run; inf == inf and 0.0 == -0.0 extend one
    same = np.concatenate(([False], values[1:] == values[:-1], [False]))
    edges = np.flatnonzero(np.diff(same.astype(np.int8)))
    return 1 + int((edges[1::2] - edges[::2]).max(initial=0))


def drop_degenerate(
    columns: Mapping[str, np.ndarray],
    flat_run_max: int = 60,
    missing_ratio_max: float = 0.20,
) -> tuple[dict[str, np.ndarray], list[DropRecord]]:
    """Drop columns that are flat or gappy for very long stretches.

    A column goes if its longest constant run reaches ``flat_run_max`` days
    or the missing fraction within its observed span exceeds
    ``missing_ratio_max``. Leading/trailing gaps do not count toward the
    ratio: late-starting metrics are a slice_period concern, not a data
    quality defect. Each dropped column gets exactly one reason.
    """
    kept: dict[str, np.ndarray] = {}
    log: list[DropRecord] = []
    for name in sorted(columns):
        col = np.asarray(columns[name], dtype=np.float64)
        valid = np.flatnonzero(~np.isnan(col))
        if valid.size == 0:
            log.append(DropRecord(name, "missing_ratio", "no observed values"))
            continue
        span = col[valid[0]:valid[-1] + 1]
        run = longest_flat_run(span)
        if run >= flat_run_max:
            log.append(DropRecord(name, "flat_run", f"constant for {run} days"))
            continue
        ratio = float(np.isnan(span).mean())
        if ratio > missing_ratio_max:
            log.append(DropRecord(name, "missing_ratio", f"{ratio:.4f} missing within span"))
            continue
        kept[name] = col
    return kept, log


def clean_corpus(
    corpus: Mapping[str, MetricSeries],
    flat_run_max: int = 60,
    missing_ratio_max: float = 0.20,
) -> tuple[Dataset, list[DropRecord], dict[str, int]]:
    """Run the full cleaning pipeline over a raw corpus.

    Returns the cleaned corpus, the drop log, and a per-series count of
    forward-filled days for traditional index series. The cleaned corpus is
    a Dataset on the common daily calendar whose read-only columns are NaN
    only before their first or after their last observation.
    """
    prepared = {name: dedupe(corpus[name]) for name in sorted(corpus)}
    grid, columns = align_calendar(prepared)
    imputed: dict[str, int] = {}
    for name, series in prepared.items():
        if series.category is Category.TRADITIONAL_INDEX:
            columns[name], n_filled = forward_fill(columns[name])
            if n_filled:
                imputed[name] = n_filled
    kept, drop_log = drop_degenerate(columns, flat_run_max, missing_ratio_max)

    features = {name: interpolate_fill(col) for name, col in kept.items()}
    for col in features.values():
        col.flags.writeable = False
    cleaned = Dataset(grid, features, {name: prepared[name].category for name in features})
    return cleaned, drop_log, imputed


# ---------------------------------------------------------------------------
# scenario datasets
# ---------------------------------------------------------------------------

def slice_period(corpus: Dataset, scenario: Scenario) -> Dataset:
    """Restrict a cleaned corpus to [period_start, corpus end].

    A column is kept only if it has no missing value inside the slice. That
    excludes metrics first observed after the period start, indicators still
    in their warm-up, and discontinued feeds.
    """
    if not corpus.features:
        raise ValueError("empty corpus")
    grid = corpus.dates
    if not grid:
        raise ValueError("corpus has no dates")
    if scenario.period_start > grid[-1] or scenario.period_start < grid[0]:
        raise ValueError(
            f"period start {scenario.period_start} outside corpus range {grid[0]}..{grid[-1]}")
    sliced = corpus.rows((scenario.period_start - grid[0]).days, corpus.n_rows)
    return sliced.select(n for n, col in sliced.features.items() if not np.isnan(col).any())


def make_target(dataset: Dataset, price: np.ndarray, window: int) -> Dataset:
    """Attach the future index price as the target column.

    `price` is the index price on the dataset's daily calendar, NaN where it
    is missing. target[t] = price[t + window], the price `window` days later;
    trailing rows without a future value are removed.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    future = np.full(dataset.n_rows, np.nan)
    future[:max(dataset.n_rows - window, 0)] = price[window:]
    available = ~np.isnan(future)
    if not available.any():
        raise ValueError("index price missing for all rows")
    last = int(np.flatnonzero(available)[-1])
    if not available[:last + 1].all():
        raise ValueError("index price has interior gaps over the dataset dates")
    out = dataset.rows(0, last + 1)
    out.target = future[:last + 1]
    out.window = window
    return out


def chronological_split(dataset: Dataset, holdout_fraction: float) -> tuple[Dataset, Dataset]:
    """Split rows into a leading train block and a trailing test block."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {holdout_fraction}")
    n = dataset.n_rows
    n_test = max(1, int(n * holdout_fraction))
    n_train = n - n_test
    if n_train < 1:
        raise ValueError(f"{n} rows leave no training data at holdout {holdout_fraction}")
    return dataset.rows(0, n_train), dataset.rows(n_train, n)
