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
import sys
from dataclasses import dataclass
from datetime import date
from itertools import groupby
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._syntax import csv_rows, parse_day, parse_number, sum_in_order


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
        caps = self.caps.values()
        # a NaN or an infinity makes the sum non-finite, and the loop names it
        if not caps or (math.isfinite(sum(caps)) and min(caps) >= 0):
            return
        for symbol, cap in self.caps.items():
            if not math.isfinite(cap):
                raise ValueError(f"{self.date} {symbol}: non-finite market cap {cap}")
            if cap < 0:
                raise ValueError(f"{self.date} {symbol}: negative market cap {cap}")


def select_top_n(snapshot: McapSnapshot, n: int) -> list[str]:
    """Top-n asset symbols by market cap, descending; ties by symbol."""
    if not snapshot.caps:
        raise ValueError(f"{snapshot.date}: empty snapshot")
    ranked = sorted(snapshot.caps, key=lambda s: (-snapshot.caps[s], s))
    return ranked[:n]


def top_n_cap(snapshot: McapSnapshot, n: int) -> float:
    """S, the summed market cap of the snapshot's top-n constituents.

    Adds the n largest caps in descending order: the caps of `select_top_n`,
    in its order, since symbols only break ties between equal caps.
    """
    if not snapshot.caps:
        raise ValueError(f"{snapshot.date}: empty snapshot")
    return sum_in_order(sorted(snapshot.caps.values(), reverse=True)[:n])


def crypto100(snapshot: McapSnapshot, params: IndexParams = IndexParams()) -> float:
    """Index value S / (log10 S)^p over the snapshot's top-n constituents."""
    return index_value(top_n_cap(snapshot, params.top_n), params.power, when=snapshot.date)


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
    if min(candidate_powers) < 1:
        raise ValueError(f"candidate powers must be >= 1, got {min(candidate_powers)}")
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


def load_reference_csv(path: str | Path) -> dict[date, float]:
    """The date -> value map of a `date,<price>` CSV: two cells a row, one finite value a date."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"reference file not found: {path}")
    out: dict[date, float] = {}
    with open(path, newline="") as fh:
        rows = csv_rows(fh, path)
        _, header = next(rows, (1, []))
        if len(header) != 2 or header[0].strip() != "date":
            raise ValueError(f"{path}: expected a 'date,<metric>' header")
        for lineno, row in rows:
            line = ",".join(row).strip()
            if not line:
                continue
            try:
                stamp, cell = row
                day, value = parse_day(stamp.strip()), parse_number(cell)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad row {line!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {cell.strip()!r}")
            if day in out:
                raise ValueError(f"{path}:{lineno}: repeated date {day}")
            out[day] = value
    return out


# ---------------------------------------------------------------------------
# CSV surfaces
# ---------------------------------------------------------------------------

def load_mcap_csv(path: str | Path) -> list[McapSnapshot]:
    """Read long-format `date,asset,market_cap_usd` rows into daily snapshots.

    A file whose every row is one valid asset-day is read in bulk
    (`_read_caps_in_bulk`); any other file row by row, which skips blank rows
    and names the first bad row.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"market-cap file not found: {path}")
    per_day = _read_caps_in_bulk(path)
    if per_day is None:
        per_day = _read_caps_by_row(path)
    return [McapSnapshot(d, per_day[d]) for d in sorted(per_day)]


_CAP_ROW = np.dtype([("date", object), ("asset", object), ("cap", np.float64)])
_CHUNK_CHARS = 1 << 17


def _caps_rows(fh, path: Path):
    """The (line, row) pairs of an open market-cap file after its checked header."""
    rows = csv_rows(fh, path)
    _, header = next(rows, (1, []))
    if [h.strip() for h in header] != ["date", "asset", "market_cap_usd"]:
        raise ValueError(f"{path}: expected header date,asset,market_cap_usd")
    return rows


def _read_caps_in_bulk(path: Path) -> dict[date, dict[str, float]] | None:
    """{day: {asset: cap}}, or None when some row is not one valid asset-day.

    Streams the file in chunks of lines. One `np.loadtxt` call cuts a chunk
    into rows of three cells and parses its caps (the same bits as `float`),
    and one check finds any negative or non-finite cap. Each distinct date
    cell is parsed once, and each run of rows on one date joins its day in
    one dict update. A quote sends the file to the row-by-row reader, which
    reads csv quoting.
    """
    per_day: dict[date, dict[str, float]] = {}
    day_of: dict[str, dict[str, float]] = {}  # date cell -> its day in per_day
    with open(path, newline="") as fh:
        _caps_rows(fh, path)
        while chunk := fh.readlines(_CHUNK_CHARS):
            text = "".join(chunk)
            # the row reader reads csv quoting, and names the line of a cell csv cannot read
            if '"' in text or max(map(len, chunk)) > csv.field_size_limit():
                return None
            if not text.strip():
                continue
            try:
                rows = np.loadtxt(chunk, delimiter=",", dtype=_CAP_ROW, comments=None, ndmin=1)
            except ValueError:
                return None
            # NaN fails both comparisons
            if not ((rows["cap"] >= 0) & (rows["cap"] < np.inf)).all():
                return None
            symbols = list(map(sys.intern, map(str.strip, rows["asset"].tolist())))
            caps = rows["cap"].tolist()
            start = 0
            for stamp, run in groupby(rows["date"].tolist()):
                stop = start + len(list(run))
                day = day_of.get(stamp)
                if day is None:
                    try:
                        day = day_of[stamp] = per_day.setdefault(parse_day(stamp.strip()), {})
                    except ValueError:
                        return None
                size = len(day)
                day.update(zip(symbols[start:stop], caps[start:stop]))
                if len(day) != size + stop - start:  # an asset twice on one day
                    return None
                start = stop
    return per_day


def _read_caps_by_row(path: Path) -> dict[date, dict[str, float]]:
    """{day: {asset: cap}}, read one row at a time; raises for the first bad row."""
    per_day: dict[date, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for lineno, row in _caps_rows(fh, path):
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
    return per_day


def index_series(snapshots: Sequence[McapSnapshot], params: IndexParams) -> list[tuple[date, float, float]]:
    """(date, summed top-n cap, index value) per snapshot."""
    out = []
    for snap in snapshots:
        total = top_n_cap(snap, params.top_n)
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
