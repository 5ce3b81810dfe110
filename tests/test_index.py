import math
from datetime import date, timedelta

import numpy as np
import pytest

from cryptodiv.index import (IndexDomainError, IndexParams, McapSnapshot,
                             calibrate_power, crypto100, index_value, select_top_n)


def snap(caps, when=date(2020, 1, 1)):
    return McapSnapshot(when, caps)


# ---------------------------------------------------------------------------
# select_top_n
# ---------------------------------------------------------------------------

def test_top_n_with_fewer_assets():
    assert select_top_n(snap({"BTC": 5.0, "ETH": 3.0, "XRP": 1.0}), 100) == ["BTC", "ETH", "XRP"]


def test_top_n_tie_break_lexicographic():
    assert select_top_n(snap({"B": 5.0, "A": 5.0, "C": 1.0}), 2) == ["A", "B"]


def test_top_n_matches_sort_oracle():
    rng = np.random.default_rng(7)
    caps = {f"A{i:03d}": float(rng.integers(1, 10_000)) for i in range(500)}
    oracle = [s for s, _ in sorted(caps.items(), key=lambda kv: (-kv[1], kv[0]))][:100]
    assert select_top_n(snap(caps), 100) == oracle


def test_top_n_empty_snapshot():
    with pytest.raises(ValueError, match="empty"):
        select_top_n(snap({}), 10)


# ---------------------------------------------------------------------------
# the index value
# ---------------------------------------------------------------------------

def test_index_value_power_of_ten():
    # S = 10^10: log10 = 10, denominator 10^7, value exactly 1000
    total = 10.0 ** 10
    caps = {f"A{i}": total / 100 for i in range(100)}
    value = crypto100(snap(caps), IndexParams(top_n=100, power=7))
    assert value == pytest.approx(1000.0, rel=1e-9)


def test_index_value_against_arithmetic_oracle():
    expected = 1e12 / 12.0 ** 7  # log10(1e12) = 12
    assert index_value(1e12, 7) == pytest.approx(expected, rel=1e-12)


def test_index_identical_sums_identical_values():
    caps_a = {"A": 6e9, "B": 4e9}
    caps_b = {"X": 3e9, "Y": 3e9, "Z": 4e9}
    params = IndexParams(top_n=100, power=7)
    assert crypto100(snap(caps_a), params) == crypto100(snap(caps_b), params)


def test_index_domain_guard():
    with pytest.raises(IndexDomainError):
        index_value(9.0, 7)
    with pytest.raises(IndexDomainError):
        crypto100(snap({"A": 5.0}), IndexParams(top_n=1, power=7))


def test_index_monotone_in_sum():
    sums = np.logspace(8, 13, 100)
    values = [index_value(s, 7) for s in sums]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_index_decreasing_in_power():
    for total in (1e8, 3.7e10, 9e12):
        v6, v7, v8 = (index_value(total, p) for p in (6, 7, 8))
        assert v6 > v7 > v8


def test_index_constituent_churn_invariance():
    # swap the lowest constituent for another asset with the same cap
    caps = {f"A{i:03d}": 1e9 - i * 1e6 for i in range(100)}
    params = IndexParams(top_n=100, power=7)
    base = crypto100(snap(caps), params)
    churned = dict(caps)
    lowest = min(caps, key=lambda s: (caps[s], s))
    cap = churned.pop(lowest)
    churned["Z_NEW"] = cap
    assert crypto100(snap(churned), params) == base


# ---------------------------------------------------------------------------
# power calibration
# ---------------------------------------------------------------------------

def _sum_series(n=60, seed=0):
    rng = np.random.default_rng(seed)
    start = date(2020, 1, 1)
    sums = {}
    for i in range(n):
        sums[start + timedelta(days=i)] = float(10 ** rng.uniform(9, 12))
    return sums


def _reference_from(sums, power, scale=1.0):
    return {d: scale * s / math.log10(s) ** power for d, s in sums.items()}


def test_calibrate_recovers_exact_power():
    sums = _sum_series()
    result = calibrate_power(sums, _reference_from(sums, 7), (5, 6, 7, 8, 9))
    assert result.power == 7
    objectives = dict(result.fit_table)
    assert objectives[7] == pytest.approx(0.0, abs=1e-12)


def test_calibrate_survives_scaling_perturbation():
    sums = _sum_series(seed=1)
    result = calibrate_power(sums, _reference_from(sums, 7, scale=1.001), (5, 6, 7, 8, 9))
    assert result.power == 7


def test_calibrate_symmetric_construction():
    sums = _sum_series(seed=2)
    result = calibrate_power(sums, _reference_from(sums, 6), (6, 7))
    assert result.power == 6


def test_calibrate_candidate_order_invariant():
    sums = _sum_series(seed=3)
    ref = _reference_from(sums, 8)
    a = calibrate_power(sums, ref, (5, 6, 7, 8, 9))
    b = calibrate_power(sums, ref, (9, 8, 7, 6, 5))
    assert a == b


def test_calibrate_needs_overlap():
    sums = _sum_series(n=10)
    with pytest.raises(ValueError, match="at least 30"):
        calibrate_power(sums, _reference_from(sums, 7))
    with pytest.raises(ValueError, match="no overlapping"):
        calibrate_power(sums, {date(1999, 1, 1): 5.0})


def test_load_mcap_csv_errors(tmp_path):
    from cryptodiv.index import load_mcap_csv

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("date,symbol,cap\n2020-01-01,BTC,1\n")
    with pytest.raises(ValueError, match="expected header"):
        load_mcap_csv(bad_header)

    dup = tmp_path / "d.csv"
    dup.write_text("date,asset,market_cap_usd\n2020-01-01,BTC,1\n2020-01-01,BTC,2\n")
    with pytest.raises(ValueError, match="duplicate asset"):
        load_mcap_csv(dup)

    with pytest.raises(FileNotFoundError):
        load_mcap_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
def test_load_mcap_csv_rejects_non_finite_cap(tmp_path, literal):
    from cryptodiv.index import load_mcap_csv

    path = tmp_path / "caps.csv"
    path.write_text(f"date,asset,market_cap_usd\n2020-01-01,BTC,1e9\n2020-01-01,ETH,{literal}\n")
    with pytest.raises(ValueError, match=r"caps\.csv:3: non-finite market cap"):
        load_mcap_csv(path)


def test_load_mcap_csv_skips_blank_and_whitespace_rows(tmp_path):
    from cryptodiv.index import load_mcap_csv

    path = tmp_path / "caps.csv"
    path.write_text("date,asset,market_cap_usd\n2020-01-01,BTC,1e9\n\n , ,\n"
                    "2020-01-02,BTC,2e9\n\t, \n")
    snapshots = load_mcap_csv(path)
    assert [(s.date, s.caps) for s in snapshots] == [(date(2020, 1, 1), {"BTC": 1e9}),
                                                      (date(2020, 1, 2), {"BTC": 2e9})]

    path.write_text("date,asset,market_cap_usd\n2020-01-01,BTC,1e9\n , ,\n\n2020-01-02,BTC,oops\n")
    with pytest.raises(ValueError, match=r"caps\.csv:5: bad market-cap row"):
        load_mcap_csv(path)


def test_calibrate_tie_prefers_smaller_power():
    # reference at the geometric midpoint of the p=6 and p=7 indices ties them
    start = date(2020, 1, 1)
    sums = {start + timedelta(days=i): 1e10 for i in range(40)}
    ref = {d: math.sqrt((s / math.log10(s) ** 6) * (s / math.log10(s) ** 7))
           for d, s in sums.items()}
    result = calibrate_power(sums, ref, (6, 7))
    objectives = dict(result.fit_table)
    assert objectives[6] == pytest.approx(objectives[7], abs=1e-12)
    assert result.power == 6
