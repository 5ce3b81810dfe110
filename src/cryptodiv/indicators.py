"""Technical indicators derived from market series: SMA, EMA, RSI, Bollinger.

The four indicator functions take and return 1-D float arrays aligned to the
input; the warm-up positions that have no full window yet are NaN.
`augment_corpus` adds the pipeline's battery to a cleaned corpus: an SMA and
an EMA of each configured source (`indicator_sources`) over each configured
window (`indicator_windows`), named `{KIND}{window}_{source}` (e.g.
EMA100_market-cap). RSI and Bollinger bands are not part of the battery.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import Category, Dataset


def sma(series: np.ndarray, window: int) -> np.ndarray:
    """Simple moving average over the trailing `window` values."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(series, dtype=np.float64)
    if window == 1:
        return x.copy()
    out = np.full(x.shape, np.nan)
    if len(x) >= window:
        csum = np.cumsum(np.concatenate(([0.0], x)))
        out[window - 1:] = (csum[window:] - csum[:-window]) / window
    return out


def ema(series: np.ndarray, window: int) -> np.ndarray:
    """Exponential moving average, alpha = 2/(n+1), seeded with the first SMA."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(series, dtype=np.float64)
    if window == 1:
        return x.copy()
    out = np.full(x.shape, np.nan)
    if len(x) < window:
        return out
    alpha = 2.0 / (window + 1.0)
    level = float(np.mean(x[:window]))
    out[window - 1] = level
    for t in range(window, len(x)):
        level = alpha * x[t] + (1.0 - alpha) * level
        out[t] = level
    return out


def rsi(series: np.ndarray, window: int = 14) -> np.ndarray:
    """Relative strength index in [0, 100] with Wilder smoothing.

    All-gain windows read 100, all-loss windows 0, and a perfectly flat
    window (no gains, no losses) reads 50.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(series, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    if len(x) <= window:
        return out
    delta = np.diff(x)
    gains = np.where(delta > 0, delta, 0.0)
    losses = np.where(delta < 0, -delta, 0.0)
    avg_gain = float(np.mean(gains[:window]))
    avg_loss = float(np.mean(losses[:window]))
    out[window] = _rsi_value(avg_gain, avg_loss)
    for t in range(window, len(delta)):
        avg_gain = (avg_gain * (window - 1) + gains[t]) / window
        avg_loss = (avg_loss * (window - 1) + losses[t]) / window
        out[t + 1] = _rsi_value(avg_gain, avg_loss)
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 100.0 if avg_gain > 0.0 else 50.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def bollinger(series: np.ndarray, window: int = 20, band_width: float = 2.0
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mid, upper, lower) bands: SMA +- k * rolling population stddev."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    x = np.asarray(series, dtype=np.float64)
    mid = sma(x, window)
    std = np.full(x.shape, np.nan)
    if len(x) >= window:
        windows = np.lib.stride_tricks.sliding_window_view(x, window)
        std[window - 1:] = windows.std(axis=1)  # population convention
    upper = mid + band_width * std
    lower = mid - band_width * std
    return mid, upper, lower


def augment_corpus(corpus: Dataset, sources: Sequence[str], windows: Sequence[int]) -> Dataset:
    """Add the battery: SMA{w}_{src} and EMA{w}_{src} for each source, then each window.

    The columns are read-only and in the Technical category. Indicators are
    computed over each source's full history so warm-up draws on data before
    any period start. Sources not in the corpus are skipped; name collisions
    are an error.
    """
    features, categories = dict(corpus.features), dict(corpus.categories)
    for source in sources:
        column = corpus.features.get(source)
        if column is None:
            continue
        valid = np.flatnonzero(~np.isnan(column))
        if valid.size == 0:
            continue
        lo, hi = int(valid[0]), int(valid[-1]) + 1
        for window in windows:
            for kind, indicator in (("SMA", sma), ("EMA", ema)):
                name = f"{kind}{window}_{source}"
                if name in features:
                    raise ValueError(f"indicator column {name!r} collides with an existing metric")
                values = np.full(len(column), np.nan)
                values[lo:hi] = indicator(column[lo:hi], window)
                values.flags.writeable = False
                features[name] = values
                categories[name] = Category.TECHNICAL
    return Dataset(corpus.dates, features, categories)
