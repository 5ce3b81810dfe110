"""Market-cap index over the top-N cryptocurrencies, with power calibration.

The index value for a day is S / (log10 S)^p where S is the summed market
cap of the top-N constituents. The exponent p is a scaling factor chosen so
the index level stays comparable to a reference asset price (Bitcoin in
practice); calibrate_power recovers it by minimising the mean absolute
log-ratio between the candidate index and the reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


class IndexDomainError(ValueError):
    """Raised when the summed market cap is too small for the scaling factor."""


@dataclass(frozen=True)
class IndexParams:
    top_n: int = 100
    power: int = 7

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.power < 1:
            raise ValueError(f"power must be >= 1, got {self.power}")


@dataclass(frozen=True)
class McapSnapshot:
    """Market caps (USD) of all tracked assets on one day."""

    date: date
    caps: dict[str, float]

    def __post_init__(self):
        for symbol, cap in self.caps.items():
            if cap < 0:
                raise ValueError(f"{self.date} {symbol}: negative market cap {cap}")


def select_top_n(snapshot: McapSnapshot, n: int) -> list[str]:
    """Top-n asset symbols by market cap, descending; ties by symbol."""
    if not snapshot.caps:
        raise ValueError(f"{snapshot.date}: empty snapshot")
    ranked = sorted(snapshot.caps, key=lambda s: (-snapshot.caps[s], s))
    return ranked[:n]


def crypto100(snapshot: McapSnapshot, params: IndexParams = IndexParams()) -> float:
    """Index value S / (log10 S)^p over the snapshot's top-n constituents."""
    constituents = select_top_n(snapshot, params.top_n)
    total = float(sum(snapshot.caps[s] for s in constituents))
    return index_value(total, params.power, when=snapshot.date)


def index_value(total_cap: float, power: int, when: date | None = None) -> float:
    """The scaling formula applied to an already-summed market cap."""
    if total_cap <= 10.0:
        stamp = f" on {when}" if when else ""
        raise IndexDomainError(
            f"summed market cap {total_cap}{stamp} is <= 10; scaling denominator would be <= 1")
    return total_cap / math.log10(total_cap) ** power


@dataclass(frozen=True)
class CalibrationResult:
    power: int
    fit_table: tuple[tuple[int, float], ...]  # (candidate power, objective)


def calibrate_power(
    index_sums: Mapping[date, float],
    reference_price: Mapping[date, float],
    candidate_powers: Sequence[int] = (5, 6, 7, 8, 9),
) -> CalibrationResult:
    """Pick the scaling-factor power that best tracks a reference price.

    Objective per candidate p: mean |ln(index_p(t)) - ln(reference(t))| over
    the date overlap. Smaller power wins ties. Requires >= 30 overlapping days.
    """
    if not candidate_powers:
        raise ValueError("candidate power set is empty")
    overlap = sorted(set(index_sums) & set(reference_price))
    if not overlap:
        raise ValueError("index and reference series have no overlapping dates")
    if len(overlap) < 30:
        raise ValueError(f"only {len(overlap)} overlapping days; need at least 30")
    sums = np.array([index_sums[d] for d in overlap])
    ref = np.array([reference_price[d] for d in overlap])
    if (sums <= 10).any():
        bad = overlap[int(np.flatnonzero(sums <= 10)[0])]
        raise IndexDomainError(f"summed market cap <= 10 on {bad}")
    if (ref <= 0).any():
        raise ValueError("reference price must be positive")

    log_sums = np.log(sums)
    log_log10 = np.log(np.log10(sums))
    log_ref = np.log(ref)
    table = []
    for p in sorted(set(int(p) for p in candidate_powers)):
        objective = float(np.mean(np.abs(log_sums - p * log_log10 - log_ref)))
        table.append((p, objective))
    best = min(table, key=lambda row: (row[1], row[0]))
    return CalibrationResult(power=best[0], fit_table=tuple(table))


# ---------------------------------------------------------------------------
# CSV surfaces
# ---------------------------------------------------------------------------

def load_mcap_csv(path: str | Path) -> list[McapSnapshot]:
    """Read long-format `date,asset,market_cap_usd` rows into daily snapshots."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"market-cap file not found: {path}")
    per_day: dict[date, dict[str, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["date", "asset", "market_cap_usd"]:
            raise ValueError(f"{path}: expected header date,asset,market_cap_usd")
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                d = date.fromisoformat(row[0].strip())
                cap = float(row[2])
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{lineno}: bad market-cap row {row!r}") from None
            if not math.isfinite(cap):
                raise ValueError(f"{path}:{lineno}: non-finite market cap {row[2].strip()!r}")
            symbol = row[1].strip()
            day = per_day.setdefault(d, {})
            if symbol in day:
                raise ValueError(f"{path}:{lineno}: duplicate asset {symbol!r} on {d}")
            day[symbol] = cap
    return [McapSnapshot(d, per_day[d]) for d in sorted(per_day)]


def index_series(snapshots: Sequence[McapSnapshot], params: IndexParams) -> list[tuple[date, float, float]]:
    """(date, summed top-n cap, index value) per snapshot."""
    out = []
    for snap in snapshots:
        constituents = select_top_n(snap, params.top_n)
        total = float(sum(snap.caps[s] for s in constituents))
        out.append((snap.date, total, index_value(total, params.power, when=snap.date)))
    return out


def render_index_csv(rows: Sequence[tuple[date, float, float]], power: int) -> str:
    lines = ["date,sum_mcap,index_value,power"]
    for d, total, value in rows:
        lines.append(f"{d.isoformat()},{total!r},{value!r},{power}")
    return "\n".join(lines) + "\n"


def render_calibration_csv(result: CalibrationResult) -> str:
    lines = ["power,objective,chosen"]
    for p, objective in result.fit_table:
        lines.append(f"{p},{objective!r},{1 if p == result.power else 0}")
    return "\n".join(lines) + "\n"
