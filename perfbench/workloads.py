"""Benchmark inputs: a seeded corpus and market-cap generator, and the workloads.

Everything here is a pure function of the workload seed and the shape
constants below, so the same seed always writes byte-identical inputs. The
generator is independent of the package's test helpers: it writes only the
public input formats (metric CSVs, a JSON manifest, a long-format market-cap
CSV and a run config) that the `cryptodiv` CLI reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

START = date(2016, 9, 1)
LATE_START = date(2018, 3, 1)   # first day of the late-start USDC block

# Share of metric columns per category, after the criterion-8 corpus
# (40 macro, 40 technical, 40 sentiment, 40 trad_index, 70 BTC, 64 USDC).
CATEGORY_SHARES = {"macro": 40, "technical": 40, "sentiment": 40,
                   "trad_index": 40, "onchain_btc": 70, "onchain_usdc": 64}
INDICATOR_SOURCES = ("close-price", "market-cap", "volume")


@dataclass(frozen=True)
class CorpusShape:
    n_days: int
    columns: int                # metric columns over the six non-market categories
    late_usdc: int              # USDC columns with no values before LATE_START
    dup_fraction: float = 0.0   # share of date rows written a second time
    mcap_assets: int = 0        # > 0: the target comes from a market-cap file instead


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: CorpusShape
    periods: tuple[str, ...]
    windows: tuple[int, ...]
    indicator_windows: tuple[int, ...]
    fra: dict
    shapley: dict
    # `importance` methods run on the first cell; empty means one `cryptodiv run`.
    explain_methods: tuple[str, ...] = ()

    @property
    def first_cell(self) -> tuple[str, int]:
        return self.periods[0], self.windows[0]


STUDY_SHAPE = CorpusShape(n_days=1200, columns=80, late_usdc=6)
STUDY_FRA = {"target_count": 20, "top_k_union": 20, "max_iterations": 2, "pfi_repeats": 1,
             "rf": {"n_estimators": 6, "max_depth": 4, "features_per_split": 1 / 3},
             "gbt": {"n_estimators": 6, "max_depth": 3, "learning_rate": 0.1,
                     "features_per_split": 1 / 3, "bootstrap": False}}

WORKLOADS = {
    "study": Workload(
        name="study",
        why="criterion-8 corpus shape scaled down, many small tree fits over FRA rounds "
            "and improvement arms in four cells: tree fitting and cell parallelism",
        shape=STUDY_SHAPE,
        periods=("2018-01-01", "2019-01-01"),
        windows=(7, 90),
        indicator_windows=(5, 20),
        fra=STUDY_FRA,
        shapley={"n_permutations": 5, "background_rows": 10, "explain_rows": 4},
    ),
    "wide_ingest": Workload(
        name="wide_ingest",
        why="4x wider, longer corpus with repeated dates and an index from market caps, "
            "one cell and tiny ensembles: corpus loading, cleaning and the index",
        shape=CorpusShape(n_days=1500, columns=320, late_usdc=16, dup_fraction=0.02,
                          mcap_assets=120),
        periods=("2020-01-01",),
        windows=(7,),
        indicator_windows=(5, 10, 14, 20, 30, 100, 200),
        fra={"target_count": 20, "top_k_union": 20, "max_iterations": 1, "pfi_repeats": 1,
             "rf": {"n_estimators": 3, "max_depth": 3, "features_per_split": 1 / 3},
             "gbt": {"n_estimators": 3, "max_depth": 2, "learning_rate": 0.1,
                     "features_per_split": 1 / 3, "bootstrap": False}},
        shapley={"n_permutations": 2, "background_rows": 5, "explain_rows": 2},
    ),
    "explain": Workload(
        name="explain",
        why="Shapley and PFI on one study cell with a depth-8 forest: "
            "whole-forest and per-tree prediction",
        shape=STUDY_SHAPE,
        periods=("2019-01-01",),
        windows=(7,),
        indicator_windows=(5, 20),
        fra={**STUDY_FRA, "pfi_repeats": 3,
             "rf": {"n_estimators": 30, "max_depth": 8, "features_per_split": 1 / 3}},
        shapley={"n_permutations": 20, "background_rows": 10, "explain_rows": 4},
        explain_methods=("shapley", "pfi"),
    ),
}


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def _category_counts(columns: int) -> dict[str, int]:
    total = sum(CATEGORY_SHARES.values())
    counts = {tag: max(2, share * columns // total) for tag, share in CATEGORY_SHARES.items()}
    counts["onchain_btc"] += columns - sum(counts.values())
    return counts


def _signal(rng: np.random.Generator, n: int) -> np.ndarray:
    t = np.arange(n)
    period = rng.integers(15, 200)
    return (np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
            + 0.3 * rng.normal(size=n)) * rng.uniform(1, 20)


def _walk(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.cumsum(rng.normal(scale=rng.uniform(0.5, 2.0), size=n)) + rng.uniform(50, 150)


def _write_csv(path: Path, dates: list[str], names: list[str], table: np.ndarray,
               rows: np.ndarray, dup_rows: set[int], rng: np.random.Generator) -> None:
    """Write `date,<names>`; NaN cells are empty, rows in `dup_rows` repeat once."""
    lines = ["date," + ",".join(names)]

    def fmt(values):
        return ",".join("" if v != v else "%.6g" % v for v in values)

    for i in rows:
        lines.append(f"{dates[i]},{fmt(table[i])}")
        if i in dup_rows:  # a repeated date with other values; the first must win
            lines.append(f"{dates[i]},{fmt(table[i] + rng.normal(size=table.shape[1]))}")
    path.write_text("\n".join(lines) + "\n")


def write_inputs(out_dir: Path, workload: Workload, seed: int) -> Path:
    """Write the corpus, optional market caps and run config; returns the config path."""
    shape = workload.shape
    rng = np.random.default_rng(seed)   # `study` and `explain` share a corpus per seed
    out_dir.mkdir(parents=True, exist_ok=True)
    n = shape.n_days
    dates = [(START + timedelta(days=i)).isoformat() for i in range(n)]
    all_rows = np.arange(n)
    weekdays = np.array([(START + timedelta(days=i)).weekday() < 5 for i in range(n)])
    n_dup = int(round(shape.dup_fraction * n))
    late_offset = (LATE_START - START).days
    files: dict[str, dict[str, str]] = {}
    planted = []

    for tag, count in _category_counts(shape.columns).items():
        names = [f"{tag}_{j:04d}" for j in range(count)]
        cols = [_walk(rng, n) if j % 2 else _signal(rng, n) for j in range(count)]
        planted += [c.copy() for c in cols[:2]]  # before any cell is blanked
        if tag == "onchain_usdc":
            for col in cols[:shape.late_usdc]:
                col[:late_offset] = np.nan
        if tag == "sentiment":
            names += ["sentiment_flat", "sentiment_gappy"]
            gappy = _walk(rng, n)
            gappy[n // 10:n // 10 + int(0.4 * n)] = np.nan
            cols += [np.full(n, 42.0), gappy]
        rows = all_rows[weekdays] if tag == "trad_index" else all_rows
        dup_rows = set(rng.choice(rows, size=n_dup, replace=False).tolist()) if n_dup else set()
        _write_csv(out_dir / f"{tag}.csv", dates, names, np.column_stack(cols), rows,
                   dup_rows, rng)
        files[f"{tag}.csv"] = {m: tag for m in names}

    market = {
        "close-price": _walk(rng, n) * 5 + 1000,
        "market-cap": _walk(rng, n) * 1e6,
        "volume": np.abs(_signal(rng, n)) * 1e4 + 1e4,
    }
    if shape.mcap_assets:
        target = "crypto100"
        _write_mcaps(out_dir / "mcaps.csv", dates, shape.mcap_assets, rng)
    else:
        target = "crypto-index"
        drift = np.cumsum(rng.normal(scale=0.6, size=n))
        market[target] = 10 * (drift + sum(0.3 * (p - p.mean()) / (p.std() + 1e-9)
                                           for p in planted)) + 5000
    _write_csv(out_dir / "market.csv", dates, list(market), np.column_stack(list(market.values())),
               all_rows, set(), rng)
    files["market.csv"] = {m: "market" for m in market}
    (out_dir / "manifest.json").write_text(json.dumps({"files": files}, indent=1, sort_keys=True))

    config = {
        "manifest": "manifest.json",
        "output_dir": "results",
        "seed": int(seed),
        "periods": list(workload.periods),
        "windows": list(workload.windows),
        "target_metric": target,
        "indicator_sources": list(INDICATOR_SOURCES),
        "indicator_windows": list(workload.indicator_windows),
        "holdout_fraction": 0.2,
        "fra": workload.fra,
        "shapley": workload.shapley,
    }
    if shape.mcap_assets:
        config["index"] = {"mcaps": "mcaps.csv", "top_n": 100, "power": 7}
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return config_path


def _write_mcaps(path: Path, dates: list[str], n_assets: int, rng: np.random.Generator) -> None:
    """Long-format `date,asset,market_cap_usd`: log-normal walks, one row per asset-day."""
    n = len(dates)
    log_caps = (rng.uniform(17, 25, size=n_assets)[None, :]
                + np.cumsum(rng.normal(scale=0.04, size=(n, n_assets)), axis=0))
    caps = np.exp(log_caps)
    assets = [f"A{k:03d}" for k in range(n_assets)]
    lines = ["date,asset,market_cap_usd"]
    for i, d in enumerate(dates):
        lines += [f"{d},{a},{c:.6g}" for a, c in zip(assets, caps[i])]
    path.write_text("\n".join(lines) + "\n")
