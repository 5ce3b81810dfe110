"""CSV table rendering for scenario results, mirroring the study's tables:
feature-vector summary, top-5 per horizon, unique top-20, and the two
improvement tables (by window and by category, with '-' where a category
was absent from a period's runs).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._syntax import sum_in_order
from .data import Category, DropRecord
from .experiments import ScenarioResult

# The windows whose cells each horizon merges, in table order.
HORIZON_WINDOWS = {"short_term": (1, 7), "long_term": (90, 180)}

# Category display labels, in the order every table lists the categories.
CATEGORY_LABELS = {
    Category.MACRO: "Macroeconomic Indicators",
    Category.SENTIMENT_INTEREST: "Sentiment and Interest Metrics",
    Category.ONCHAIN_BTC: "On-chain Metrics (BTC)",
    Category.TRADITIONAL_INDEX: "Traditional Market Indices",
    Category.TECHNICAL: "Technical Indicators",
    Category.ONCHAIN_USDC: "On-chain Metrics (USDC)",
    Category.MARKET: "Market Inputs",
}


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename; a failure leaves no temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp.{path.name}.{os.getpid()}"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _by_period(results: Sequence[ScenarioResult]) -> dict[str, list[ScenarioResult]]:
    grouped: dict[str, list[ScenarioResult]] = {}
    for r in sorted(results, key=lambda r: (r.scenario.period_start, r.scenario.window)):
        grouped.setdefault(str(r.scenario.period_start.year), []).append(r)
    return grouped


def render_feature_vectors_csv(results: Sequence[ScenarioResult]) -> str:
    """Scenario / final feature count summary."""
    lines = ["scenario,n_features"]
    for r in sorted(results, key=lambda r: (r.scenario.period_start, r.scenario.window)):
        lines.append(f"{r.label},{r.feature_count}")
    return "\n".join(lines) + "\n"


def horizon_importance(results: Sequence[ScenarioResult]) -> dict[str, dict[str, dict[str, float]]]:
    """Set -> horizon -> feature -> rf_importance merged over the horizon's windows.

    A feature in both windows of a horizon gets the mean of its two values,
    one in a single window keeps its value. A set without a cell for each
    window of HORIZON_WINDOWS gets no entry, so no horizon rows.
    """
    merged = {}
    for period, rs in _by_period(results).items():
        by_window = {r.scenario.window: r.rf_importance for r in rs}
        if not all(w in by_window for windows in HORIZON_WINDOWS.values() for w in windows):
            continue
        merged[period] = {}
        for horizon, windows in HORIZON_WINDOWS.items():
            maps = [by_window[w] for w in windows]
            merged[period][horizon] = {f: float(np.mean([m[f] for m in maps if f in m]))
                                       for f in sorted(set().union(*maps))}
    return merged


def ranked(importance: Mapping[str, float], k: int) -> list[tuple[str, float]]:
    """The k features of highest importance, ties broken by name."""
    return sorted(importance.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def render_top_features_csv(results: Sequence[ScenarioResult]) -> str:
    lines = ["set,horizon,rank,feature,importance"]
    for period, horizons in sorted(horizon_importance(results).items()):
        for horizon, importance in horizons.items():
            for rank, (feature, value) in enumerate(ranked(importance, 5), start=1):
                lines.append(f"{period},{horizon},{rank},{feature},{value!r}")
    return "\n".join(lines) + "\n"


def render_unique_features_csv(results: Sequence[ScenarioResult]) -> str:
    """Each horizon's top 20 among the features that the other horizon lacks."""
    lines = ["set,horizon,rank,feature,importance"]
    for period, horizons in sorted(horizon_importance(results).items()):
        short, long = horizons.values()
        for horizon, importance, other in (("short_term", short, long), ("long_term", long, short)):
            unique = {f: v for f, v in importance.items() if f not in other}
            for rank, (feature, value) in enumerate(ranked(unique, 20), start=1):
                lines.append(f"{period},{horizon},{rank},{feature},{value!r}")
    return "\n".join(lines) + "\n"


def render_improvement_by_window_csv(results: Sequence[ScenarioResult]) -> str:
    """Mean MSE percentage decrease per prediction window, one column per set."""
    grouped = _by_period(results)
    periods = sorted(grouped)
    windows = sorted({r.scenario.window for r in results})
    lines = ["window," + ",".join(periods)]
    for w in windows:
        cells = []
        for period in periods:
            match = [r for r in grouped[period] if r.scenario.window == w]
            cells.append(f"{match[0].improvement.mean_improvement:.2f}" if match else "-")
        lines.append(f"{w}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def render_improvement_by_category_csv(results: Sequence[ScenarioResult]) -> str:
    """Mean MSE percentage decrease per category; '-' marks absent categories."""
    grouped = _by_period(results)
    periods = sorted(grouped)
    present = {c for r in results for c in r.improvement.improvement_by_category}
    lines = ["category," + ",".join(periods)]
    for cat, label in CATEGORY_LABELS.items():
        if cat not in present:
            continue
        cells = []
        for period in periods:
            values = [r.improvement.improvement_by_category[cat]
                      for r in grouped[period]
                      if cat in r.improvement.improvement_by_category]
            cells.append(f"{sum_in_order(values) / len(values):.2f}" if values else "-")
        lines.append(f"{label}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def render_contribution_csv(results: Sequence[ScenarioResult]) -> str:
    """Per-scenario contribution factor of each category (plot-data form)."""
    lines = ["set,window,category,contribution_factor"]
    for r in sorted(results, key=lambda r: (r.scenario.period_start, r.scenario.window)):
        period = str(r.scenario.period_start.year)
        for cat in CATEGORY_LABELS:
            if cat in r.contribution_factors:
                lines.append(
                    f"{period},{r.scenario.window},{cat.value},{r.contribution_factors[cat]!r}")
    return "\n".join(lines) + "\n"


def render_drop_log_csv(records: Iterable[DropRecord]) -> str:
    lines = ["metric,reason,detail"]
    for rec in records:
        detail = rec.detail.replace(",", ";")
        lines.append(f"{rec.metric},{rec.reason},{detail}")
    return "\n".join(lines) + "\n"


def render_tables(results: Sequence[ScenarioResult]) -> dict[str, str]:
    """Every aggregate table, file name -> CSV text."""
    return {
        "feature_vectors.csv": render_feature_vectors_csv(results),
        "top_features.csv": render_top_features_csv(results),
        "unique_features.csv": render_unique_features_csv(results),
        "improvement_by_window.csv": render_improvement_by_window_csv(results),
        "improvement_by_category.csv": render_improvement_by_category_csv(results),
        "contribution_factors.csv": render_contribution_csv(results),
    }
