"""Synthetic corpus builders shared by the pipeline, CLI, and acceptance tests."""

import json
from datetime import date, timedelta

import numpy as np

from cryptodiv.data import Category, Dataset


def _signal(rng, n, period):
    t = np.arange(n)
    phase = rng.uniform(0, 2 * np.pi)
    return np.sin(2 * np.pi * t / period + phase) + 0.3 * rng.normal(size=n)


def diversity_corpus(seed, n_days=650, window=7, n_a=5, n_b=5, start=date(2019, 1, 1),
                     noise_scale=0.2):
    """Two-category prepared corpus whose target mixes both categories.

    index[t] = g(A[t-w]) + h(B[t-w]) + noise, so with prediction window w the
    target column is g(A[t]) + h(B[t]) + noise: both categories carry signal
    that the other cannot explain. The corpus has no gaps, so it is already
    what cleaning would return.
    """
    rng = np.random.default_rng(seed)
    features, categories = {}, {}
    a_cols, b_cols = [], []
    for i in range(n_a):
        col = _signal(rng, n_days, period=rng.integers(20, 90))
        a_cols.append(col)
        features[f"chain_{i:02d}"], categories[f"chain_{i:02d}"] = col, Category.ONCHAIN_BTC
    for i in range(n_b):
        col = _signal(rng, n_days, period=rng.integers(20, 90))
        b_cols.append(col)
        features[f"macro_{i:02d}"], categories[f"macro_{i:02d}"] = col, Category.MACRO

    g = 2.0 * a_cols[0] + 1.5 * a_cols[1] + a_cols[2]
    h = 2.0 * b_cols[0] + 1.5 * b_cols[1] + b_cols[2]
    index = np.empty(n_days)
    index[:window] = rng.normal(scale=noise_scale, size=window)
    index[window:] = (g[:-window] + h[:-window]
                      + rng.normal(scale=noise_scale, size=n_days - window))
    features["idx"], categories["idx"] = index, Category.MARKET
    dates = tuple(start + timedelta(days=i) for i in range(n_days))
    return Dataset(dates, features, categories)


# ---------------------------------------------------------------------------
# on-disk corpora
# ---------------------------------------------------------------------------

def _walk(rng, n, scale=1.0):
    return np.cumsum(rng.normal(scale=scale, size=n)) + rng.uniform(50, 150)


def write_corpus(out_dir, seed=0, n_days=2000, start=date(2016, 9, 1),
                 counts=None, late_start_count=10, late_start=date(2018, 3, 1),
                 degenerate=True, index_name="crypto-index"):
    """Write a multi-category CSV corpus plus manifest; returns the manifest path.

    Metric mix: stationary signals and random walks per category, weekday-only
    traditional indices, optional late-start stablecoin metrics, one flat and
    one gappy column to exercise the drop log, three market source series,
    and a target index driven by a handful of planted features.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = counts or {"macro": 40, "technical": 40, "sentiment": 40,
                        "trad_index": 40, "onchain_btc": 70, "onchain_usdc": 64}
    dates = [start + timedelta(days=i) for i in range(n_days)]
    iso = [d.isoformat() for d in dates]
    late_offset = (late_start - start).days
    files = {}
    planted = []

    def fmt(v):
        return "%.6g" % v

    def write_file(name, columns, tags, rows_mask=None, missing=None):
        """columns: dict metric -> values; missing: dict metric -> bool mask."""
        path = out_dir / name
        metrics = list(columns)
        lines = ["date," + ",".join(metrics)]
        for i in range(n_days):
            if rows_mask is not None and not rows_mask[i]:
                continue
            cells = [iso[i]]
            for m in metrics:
                if missing and m in missing and missing[m][i]:
                    cells.append("")
                else:
                    cells.append(fmt(columns[m][i]))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
        files[name] = tags

    for tag, n_cols in counts.items():
        columns, tags, missing = {}, {}, {}
        for j in range(n_cols):
            metric = f"{tag}_{j:03d}"
            if rng.uniform() < 0.5:
                col = _signal(rng, n_days, period=rng.integers(15, 200)) * rng.uniform(1, 20)
            else:
                col = _walk(rng, n_days, scale=rng.uniform(0.5, 2))
            columns[metric] = col
            tags[metric] = tag
            if tag == "onchain_usdc" and j < late_start_count:
                mask = np.zeros(n_days, dtype=bool)
                mask[:late_offset] = True
                missing[metric] = mask
        if degenerate and tag == "sentiment":
            columns["sentiment_flat"] = np.full(n_days, 42.0)
            tags["sentiment_flat"] = tag
            gappy = _walk(rng, n_days)
            gap_mask = np.zeros(n_days, dtype=bool)
            gap_mask[200:200 + int(n_days * 0.4)] = True
            columns["sentiment_gappy"] = gappy
            tags["sentiment_gappy"] = tag
            missing["sentiment_gappy"] = gap_mask
        rows_mask = None
        if tag == "trad_index":
            rows_mask = [d.weekday() < 5 for d in dates]
        write_file(f"{tag}.csv", columns, tags, rows_mask=rows_mask, missing=missing)
        for j in range(2):  # two planted predictors per category
            planted.append(columns[f"{tag}_{j:03d}"])

    market = {
        "close-price": _walk(rng, n_days, scale=1.5) + 1000,
        "market-cap": _walk(rng, n_days, scale=2.0) * 1e6,
        "volume": np.abs(_signal(rng, n_days, period=30)) * 1e5 + 1e4,
    }
    base = np.cumsum(rng.normal(scale=0.6, size=n_days))
    index = base + sum(0.3 * (p - p.mean()) / (p.std() + 1e-9) for p in planted)
    market[index_name] = index * 10 + 5000
    write_file("market.csv", market, {m: "market" for m in market})

    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps({"files": files}, indent=1, sort_keys=True))
    return manifest_path


def write_run_config(config_path, manifest_path, out_dir, seed=0, periods=("2017-01-01", "2019-01-01"),
                     windows=(1, 7, 30, 90, 180), target_metric="crypto-index",
                     indicator_sources=("close-price", "market-cap", "volume"),
                     indicator_windows=(5, 20), target_count=100, top_k=75,
                     rf=None, gbt=None, pfi_repeats=1,
                     shapley=None, holdout=0.2):
    rf = rf or {"n_estimators": 15, "max_depth": 5, "features_per_split": 1 / 3}
    gbt = gbt or {"n_estimators": 15, "max_depth": 3, "learning_rate": 0.1,
                  "features_per_split": 1 / 3, "bootstrap": False}
    shapley = shapley or {"n_permutations": 10, "background_rows": 20, "explain_rows": 8}
    doc = {
        "manifest": str(manifest_path),
        "output_dir": str(out_dir),
        "seed": seed,
        "periods": list(periods),
        "windows": list(windows),
        "target_metric": target_metric,
        "indicator_sources": list(indicator_sources),
        "indicator_windows": list(indicator_windows),
        "holdout_fraction": holdout,
        "fra": {"target_count": target_count, "top_k_union": top_k,
                "pfi_repeats": pfi_repeats, "rf": rf, "gbt": gbt},
        "shapley": shapley,
    }
    config_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return config_path
