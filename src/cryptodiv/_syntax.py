"""Input date, number and csv syntax, and float summation order: the same on every supported Python.

A date is exactly `YYYY-MM-DD`: from Python 3.11 on, `date.fromisoformat` alone
also reads `20190101` and `2019-W01-3`. A number is what `float` reads from an
ASCII text without `_` digit separators. That is the syntax of numpy's C parser
(`numpy.loadtxt`), so a file parsed in bulk and one read cell by cell agree.
"""

from __future__ import annotations

import csv
import operator
import re
from datetime import date
from functools import reduce
from pathlib import Path

_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_day(text: str) -> date:
    """The date that `text` spells as `YYYY-MM-DD`; ValueError for any other text."""
    if _DAY.fullmatch(text) is None:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def parse_number(text: str) -> float:
    """`float(text)` for an ASCII number without `_`; surrounding whitespace is ignored."""
    core = text.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(core)


def csv_rows(lines, path: Path, error: type[ValueError] = ValueError, first_line: int = 1):
    """Each csv record as (its first file line, row); a csv.Error raised as `error` at its line."""
    reader = csv.reader(lines)
    start = first_line
    try:
        for row in reader:
            yield start, row
            start = first_line + reader.line_num
    except csv.Error as exc:
        raise error(f"{path}:{first_line - 1 + reader.line_num}: {exc}") from None


def sum_in_order(values) -> float:
    """The float sum of `values`, added left to right: builtin `sum` compensates from Python 3.12 on."""
    return float(reduce(operator.add, values, 0.0))
