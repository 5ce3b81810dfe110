"""Row-by-row reference readers for the metric and market-cap CSVs.

These are the cell-by-cell loops the bulk parser in `cryptodiv.data` and the
streaming reader in `cryptodiv.index` replaced, with the file rules written
out one row at a time. The ingest tests require the package readers to return
the same values bit for bit, and to raise the same message for the same row.
"""

from __future__ import annotations

import csv
import math
from datetime import date
from pathlib import Path

import numpy as np

from cryptodiv._syntax import parse_day, parse_number
from cryptodiv.data import ManifestError


def metric_rows(csv_path: Path, metrics: list[str]) -> tuple[tuple[date, ...], np.ndarray]:
    """(dates, rows x metrics table) of a metric CSV whose header is date,<metrics>."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows: list[tuple[date, list[float]]] = []
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                d = parse_day(row[0].strip())
            except ValueError:
                raise ManifestError(f"{csv_path}:{lineno}: unparseable date {row[0]!r}") from None
            if len(row) > len(metrics) + 1:
                raise ManifestError(f"{csv_path}:{lineno}: row has {len(row)} cells "
                                    f"but the header has {len(metrics) + 1}")
            vals = []
            for i, m in enumerate(metrics, start=1):
                cell = row[i].strip() if i < len(row) else ""
                if cell == "":
                    vals.append(np.nan)
                    continue
                try:
                    value = parse_number(cell)
                except ValueError:
                    raise ManifestError(f"{csv_path}:{lineno}: bad value {cell!r} for {m!r}") from None
                if not math.isfinite(value):
                    raise ManifestError(f"{csv_path}:{lineno}: non-finite value {cell!r} for {m!r} "
                                        "(leave the cell empty for a missing value)")
                vals.append(value)
            rows.append((d, vals))
    rows.sort(key=lambda r: r[0])  # stable: file order preserved among equal dates
    table = np.array([r[1] for r in rows]) if rows else np.empty((0, len(metrics)))
    return tuple(r[0] for r in rows), table.reshape(len(rows), len(metrics))


def mcap_days(path: Path) -> list[tuple[date, dict[str, float]]]:
    """(date, {asset: cap}) per day of a long-format market-cap CSV, in date order."""
    per_day: dict[date, dict[str, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) > 3:
                raise ValueError(f"{path}:{lineno}: row has {len(row)} cells but the header has 3")
            try:
                d = parse_day(row[0].strip())
                cap = parse_number(row[2])
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{lineno}: bad market-cap row {row!r}") from None
            if not math.isfinite(cap):
                raise ValueError(f"{path}:{lineno}: non-finite market cap {row[2].strip()!r}")
            if cap < 0:     # -0 is not negative
                raise ValueError(f"{path}:{lineno}: negative market cap {row[2].strip()!r}")
            symbol = row[1].strip()
            day = per_day.setdefault(d, {})
            if symbol in day:
                raise ValueError(f"{path}:{lineno}: duplicate asset {symbol!r} on {d}")
            day[symbol] = cap
    return [(d, per_day[d]) for d in sorted(per_day)]
