import json
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptodiv.data import (Category, Dataset, ManifestError, MetricSeries, Scenario,
                            align_calendar, chronological_split, clean_corpus, dedupe,
                            drop_degenerate, interpolate_fill, load_corpus,
                            make_target, slice_period)
from cryptodiv.indicators import augment_corpus

import cleaning_oracles as oracle
from conftest import series_from


# ---------------------------------------------------------------------------
# load_corpus
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n")


def write_manifest(path, files):
    path.write_text(json.dumps({"files": files}))


def test_load_corpus_counts_metrics(tmp_path):
    write_csv(tmp_path / "a.csv", "date,m1,m2,m3",
              ["2019-01-01,1,2,3", "2019-01-02,4,5,6"])
    write_csv(tmp_path / "b.csv", "date,m4,m5,m6",
              ["2019-01-01,1,2,3", "2019-01-02,4,5,6"])
    write_manifest(tmp_path / "manifest.json", {
        "a.csv": {"m1": "macro", "m2": "macro", "m3": "market"},
        "b.csv": {"m4": "technical", "m5": "sentiment", "m6": "trad_index"},
    })
    corpus = load_corpus(tmp_path / "manifest.json")
    assert len(corpus) == 6
    assert list(corpus) == sorted(corpus)


def test_load_corpus_duplicate_metric_across_files(tmp_path):
    write_csv(tmp_path / "a.csv", "date,m1", ["2019-01-01,1"])
    write_csv(tmp_path / "b.csv", "date,m1", ["2019-01-01,2"])
    write_manifest(tmp_path / "manifest.json", {
        "a.csv": {"m1": "macro"}, "b.csv": {"m1": "macro"}})
    with pytest.raises(ManifestError, match="duplicate metric"):
        load_corpus(tmp_path / "manifest.json")


def test_load_corpus_category_round_trip(tmp_path):
    write_csv(tmp_path / "usdc.csv", "date,usdc_SplyCur", ["2019-01-01,400", "2019-01-02,410"])
    write_manifest(tmp_path / "manifest.json", {"usdc.csv": {"usdc_SplyCur": "onchain_usdc"}})
    corpus = load_corpus(tmp_path / "manifest.json")
    assert corpus["usdc_SplyCur"].category is Category.ONCHAIN_USDC
    assert corpus["usdc_SplyCur"].points == [(date(2019, 1, 1), 400.0), (date(2019, 1, 2), 410.0)]


def test_load_corpus_missing_file_and_unknown_category(tmp_path):
    write_manifest(tmp_path / "manifest.json", {"nope.csv": {"m": "macro"}})
    with pytest.raises(ManifestError, match="not found"):
        load_corpus(tmp_path / "manifest.json")

    write_csv(tmp_path / "a.csv", "date,m", ["2019-01-01,1"])
    write_manifest(tmp_path / "m2.json", {"a.csv": {"m": "weird"}})
    with pytest.raises(ManifestError, match="unknown category"):
        load_corpus(tmp_path / "m2.json")


def test_load_corpus_metric_absent_from_manifest(tmp_path):
    write_csv(tmp_path / "a.csv", "date,m1,m2", ["2019-01-01,1,2"])
    write_manifest(tmp_path / "manifest.json", {"a.csv": {"m1": "macro"}})
    with pytest.raises(ManifestError, match="absent from manifest"):
        load_corpus(tmp_path / "manifest.json")


def test_load_corpus_unparseable_date(tmp_path):
    write_csv(tmp_path / "a.csv", "date,m", ["01/02/2019,1"])
    write_manifest(tmp_path / "manifest.json", {"a.csv": {"m": "macro"}})
    with pytest.raises(ManifestError, match="unparseable date"):
        load_corpus(tmp_path / "manifest.json")


def test_load_corpus_empty_cell_is_missing(tmp_path):
    write_csv(tmp_path / "a.csv", "date,m1,m2", ["2019-01-01,1,", "2019-01-02,,2"])
    write_manifest(tmp_path / "manifest.json", {"a.csv": {"m1": "macro", "m2": "macro"}})
    corpus = load_corpus(tmp_path / "manifest.json")
    assert corpus["m1"].points == [(date(2019, 1, 1), 1.0), (date(2019, 1, 2), None)]
    assert corpus["m2"].points == [(date(2019, 1, 1), None), (date(2019, 1, 2), 2.0)]


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_corpus_rejects_non_finite(tmp_path, literal):
    write_csv(tmp_path / "a.csv", "date,m1,m2", ["2019-01-01,1,2", f"2019-01-02,3,{literal}"])
    write_manifest(tmp_path / "manifest.json", {"a.csv": {"m1": "macro", "m2": "macro"}})
    with pytest.raises(ManifestError, match=r"a\.csv:3: non-finite value .* for 'm2'"):
        load_corpus(tmp_path / "manifest.json")


def test_load_corpus_skips_blank_and_whitespace_rows(tmp_path):
    write_csv(tmp_path / "a.csv", "date,m1,m2",
              ["2019-01-01,1,2", "", " , ,", "2019-01-02,3,4", "\t,  "])
    write_manifest(tmp_path / "manifest.json", {"a.csv": {"m1": "macro", "m2": "macro"}})
    corpus = load_corpus(tmp_path / "manifest.json")
    assert corpus["m1"].points == [(date(2019, 1, 1), 1.0), (date(2019, 1, 2), 3.0)]
    assert corpus["m2"].points == [(date(2019, 1, 1), 2.0), (date(2019, 1, 2), 4.0)]

    write_csv(tmp_path / "a.csv", "date,m1,m2", ["2019-01-01,1,2", " , ,", "", "2019-01-02,x,4"])
    with pytest.raises(ManifestError, match=r"a\.csv:5: bad value 'x' for 'm1'"):
        load_corpus(tmp_path / "manifest.json")


# ---------------------------------------------------------------------------
# dedupe
# ---------------------------------------------------------------------------

def test_dedupe_keeps_first_occurrence(day):
    series = MetricSeries.from_points("m", Category.MACRO,
                                      [(day(0), 1.0), (day(0), 2.0), (day(1), 3.0)])
    assert dedupe(series).points == [(day(0), 1.0), (day(1), 3.0)]


def test_dedupe_identity_on_unique(make_series):
    series = make_series("m", [1, 2, 3])
    assert dedupe(series) is series


def test_dedupe_known_duplicate_count(day):
    # 1000 points over 900 distinct days: the first 100 days appear twice
    points = []
    for i in range(900):
        points.append((day(i), float(i)))
        if i < 100:
            points.append((day(i), float(i) + 0.5))
    series = MetricSeries.from_points("m", Category.MACRO, points)
    out = dedupe(series)
    assert len(out.dates) == 900
    assert all(v == float(i) for i, (_, v) in enumerate(out.points))


@given(st.lists(st.tuples(st.integers(0, 30), st.floats(-100, 100)), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_dedupe_idempotent(pairs):
    base = date(2019, 1, 1)
    points = [(base + timedelta(days=off), v) for off, v in sorted(pairs, key=lambda p: p[0])]
    series = MetricSeries.from_points("m", Category.MACRO, points)
    once = dedupe(series)
    twice = dedupe(once)
    assert once.points == twice.points
    assert len(set(once.dates)) == len(once.dates)


# ---------------------------------------------------------------------------
# interpolate_fill
# ---------------------------------------------------------------------------

def test_interpolate_midpoint():
    assert interpolate_fill(np.array([1.0, np.nan, 3.0])).tolist() == [1.0, 2.0, 3.0]


def test_interpolate_no_gaps_unchanged():
    col = np.array([1.0, 2.0, 3.0])
    assert interpolate_fill(col) is col


def test_interpolate_three_day_gap_linear(day):
    # days 0 and 4 observed with values 0 and 4: cleaning expands the calendar
    # to five days and the closed form gives 1, 2, 3 in between
    raw = {"m": MetricSeries.from_points("m", Category.MACRO, [(day(0), 0.0), (day(4), 4.0)])}
    cleaned, drop_log, _ = clean_corpus(raw, missing_ratio_max=1.0)
    assert drop_log == []
    assert cleaned.dates == tuple(day(i) for i in range(5))
    assert cleaned.features["m"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_interpolate_leaves_leading_trailing_gaps():
    out = interpolate_fill(np.array([np.nan, 1.0, np.nan, 3.0, np.nan]))
    assert np.array_equal(out, [np.nan, 1.0, 2.0, 3.0, np.nan], equal_nan=True)


def test_interpolate_idempotent():
    once = interpolate_fill(np.array([np.nan, 1.0, np.nan, np.nan, 5.0, 2.0, np.nan]))
    assert np.array_equal(interpolate_fill(once), once, equal_nan=True)


@pytest.mark.parametrize("offsets", [(1, 0, 4), (4, 2, 0), (0, 0, 2)],
                         ids=["earlier-inside-span", "descending", "repeated"])
@pytest.mark.parametrize("kernel", [
    lambda s: align_calendar({"a": MetricSeries("a", s.category, (), np.array([])), s.name: s})],
    ids=["align_calendar"])
def test_fill_kernels_reject_unsorted_dates(day, offsets, kernel):
    series = MetricSeries("x", Category.TRADITIONAL_INDEX, tuple(day(o) for o in offsets),
                          np.array([2.0, 1.0, 5.0]))
    with pytest.raises(ValueError, match=r"^x: dates must be strictly ascending"):
        kernel(series)


# ---------------------------------------------------------------------------
# drop_degenerate
# ---------------------------------------------------------------------------

def test_drop_degenerate_constant_column():
    columns = {"flat": np.full(100, 7.0), "ok": np.arange(100.0)}
    kept, log = drop_degenerate(columns, flat_run_max=60, missing_ratio_max=0.2)
    assert "flat" not in kept and "ok" in kept
    assert [(r.metric, r.reason) for r in log] == [("flat", "flat_run")]


def test_drop_degenerate_missing_ratio():
    col = np.arange(100.0)
    col[10:40] = np.nan  # 30% missing inside the observed span
    kept, log = drop_degenerate({"gappy": col}, flat_run_max=60, missing_ratio_max=0.2)
    assert kept == {}
    assert log[0].reason == "missing_ratio"


def test_drop_degenerate_keeps_varying_column():
    kept, log = drop_degenerate({"ok": np.sin(np.arange(200.0))})
    assert "ok" in kept and log == []


def test_drop_degenerate_leading_gap_not_counted():
    # 40% leading NaN but fully observed afterwards: a slice_period concern
    col = np.concatenate([np.full(40, np.nan), np.arange(60.0)])
    kept, log = drop_degenerate({"late": col}, missing_ratio_max=0.2)
    assert "late" in kept and log == []


def test_drop_degenerate_one_reason_each():
    flat_and_gappy = np.full(200, 3.0)
    flat_and_gappy[100:180] = np.nan  # long flat run AND 40% missing
    kept, log = drop_degenerate({"both": flat_and_gappy, "ok": np.arange(200.0)},
                                flat_run_max=60, missing_ratio_max=0.2)
    assert len(log) == 1 and log[0].metric == "both"
    reasons = [r.reason for r in log]
    assert reasons.count("flat_run") + reasons.count("missing_ratio") == len(log)


# ---------------------------------------------------------------------------
# slice_period
# ---------------------------------------------------------------------------

def _cleaned_corpus(series_list):
    corpus = {s.name: s for s in series_list}
    cleaned, _, _ = clean_corpus(corpus)
    return cleaned


def test_slice_period_excludes_late_start():
    start, usdc_start, end = date(2016, 1, 1), date(2018, 6, 1), date(2020, 6, 1)
    early = MetricSeries.from_points(
        "btc_metric", Category.ONCHAIN_BTC,
        [(start + timedelta(days=i), float(i % 17)) for i in range((end - start).days + 1)])
    late = MetricSeries.from_points(
        "usdc_metric", Category.ONCHAIN_USDC,
        [(usdc_start + timedelta(days=i), float(i % 13))
         for i in range((end - usdc_start).days + 1)])
    corpus = _cleaned_corpus([early, late])

    set_2017 = slice_period(corpus, Scenario(date(2017, 1, 1), 7))
    set_2019 = slice_period(corpus, Scenario(date(2019, 1, 1), 7))
    assert "usdc_metric" not in set_2017.features
    assert "usdc_metric" in set_2019.features
    assert "btc_metric" in set_2017.features and "btc_metric" in set_2019.features


def test_slice_period_retains_all_when_observed_early(make_series):
    corpus = _cleaned_corpus([
        series_from(lambda i: date(2016, 1, 1) + timedelta(days=i), f"m{j}",
                    [float((i * (j + 1)) % 11) for i in range(1500)])
        for j in range(4)
    ])
    ds = slice_period(corpus, Scenario(date(2017, 1, 1), 1))
    assert len(ds.features) == 4
    assert ds.dates[0] == date(2017, 1, 1)
    for col in ds.features.values():
        assert not np.isnan(col).any()


def test_slice_period_late_start_column_count():
    rng = np.random.default_rng(0)
    start = date(2016, 6, 1)
    n_days = 1400
    series = []
    for j in range(300):
        if j < 10:  # late starters appear mid-2018
            first = date(2018, 3, 1)
            n = (start + timedelta(days=n_days) - first).days
        else:
            first = start
            n = n_days
        values = rng.normal(size=n).cumsum() + 100
        series.append(MetricSeries.from_points(
            f"m{j:03d}", Category.MACRO,
            [(first + timedelta(days=i), values[i]) for i in range(n)]))
    corpus = _cleaned_corpus(series)
    set_2017 = slice_period(corpus, Scenario(date(2017, 1, 1), 1))
    set_2019 = slice_period(corpus, Scenario(date(2019, 1, 1), 1))
    assert len(set_2019.features) == len(set_2017.features) + 10


def test_slice_period_keeps_exactly_the_columns_complete_from_the_start(day):
    n = 60
    full = np.arange(n, dtype=float) % 7
    late = full.copy()
    late[:20] = np.nan          # first observed on day 20
    trailing = full.copy()
    trailing[50:] = np.nan      # discontinued after day 49
    corpus = Dataset(tuple(day(i) for i in range(n)),
                     {"full": full, "late": late, "trailing": trailing},
                     {name: Category.MACRO for name in ("full", "late", "trailing")})
    # SMA10 and EMA10 are in their warm-up, NaN, on days 0..8
    corpus = augment_corpus(corpus, ["full"], [10])
    for start in range(n):
        ds = slice_period(corpus, Scenario(day(start), 1))
        complete = {name for name, col in corpus.features.items()
                    if not np.isnan(col[start:]).any()}
        assert set(ds.feature_names) == complete
        assert ds.dates == corpus.dates[start:]
        for name in complete:
            assert np.array_equal(ds.features[name], corpus.features[name][start:])
    kept = {start: set(slice_period(corpus, Scenario(day(start), 1)).feature_names)
            for start in (8, 9, 19, 20)}
    indicators = {"SMA10_full", "EMA10_full"}
    assert kept == {8: {"full"}, 9: {"full", *indicators}, 19: {"full", *indicators},
                    20: {"full", *indicators, "late"}}


def test_prepared_corpus_columns_are_read_only(make_series):
    raw = {"gappy": make_series("gappy", [1.0, None, 3.0, 4.0, 2.0]),
           "whole": make_series("whole", [5.0, 1.0, 2.0, 4.0, 3.0])}
    cleaned, _, _ = clean_corpus(raw, missing_ratio_max=1.0)
    corpus = augment_corpus(cleaned, ["whole"], [2])
    assert corpus.feature_names == ("EMA2_whole", "SMA2_whole", "gappy", "whole")
    for col in corpus.features.values():
        with pytest.raises(ValueError, match="read-only"):
            col[-1] = 0.0


def test_slice_period_out_of_range(make_series):
    corpus = _cleaned_corpus([make_series("m", [float(i % 7) for i in range(100)])])
    with pytest.raises(ValueError, match="outside corpus range"):
        slice_period(corpus, Scenario(date(2030, 1, 1), 1))


# ---------------------------------------------------------------------------
# make_target
# ---------------------------------------------------------------------------

def _plain_dataset(day, n, feature_values=None):
    values = feature_values if feature_values is not None else np.arange(float(n))
    return Dataset(dates=tuple(day(i) for i in range(n)),
                   features={"x": np.asarray(values, dtype=float)},
                   categories={"x": Category.MACRO})


def test_make_target_shift_by_one(day):
    ds = _plain_dataset(day, 3)
    price = np.array([10.0, 11.0, 12.0])
    out = make_target(ds, price, window=1)
    assert out.n_rows == 2
    assert list(out.target) == [11.0, 12.0]
    assert out.window == 1


def test_make_target_window_zero_rejected(day):
    ds = _plain_dataset(day, 3)
    price = np.array([10.0, 11.0, 12.0])
    with pytest.raises(ValueError, match="window"):
        make_target(ds, price, window=0)


def test_make_target_length_arithmetic(day):
    ds = _plain_dataset(day, 2000)
    price = np.arange(2000.0)
    out = make_target(ds, price, window=180)
    assert out.n_rows == 1820


def test_make_target_missing_everywhere(day):
    ds = _plain_dataset(day, 3)
    # the price series starts after the dataset's last day
    price = np.full(3, np.nan)
    with pytest.raises(ValueError, match="missing for all rows"):
        make_target(ds, price, window=1)


def test_make_target_shift_round_trip(day):
    # reversing the shift recovers the index series on the overlap
    n, w = 50, 7
    price_values = [float(100 + i * i % 31) for i in range(n)]
    ds = _plain_dataset(day, n)
    price = np.array(price_values)
    out = make_target(ds, price, window=w)
    for t in range(out.n_rows):
        assert out.target[t] == price_values[t + w]


# ---------------------------------------------------------------------------
# chronological_split
# ---------------------------------------------------------------------------

def test_split_80_20(day):
    ds = _plain_dataset(day, 100)
    train, test = chronological_split(ds, 0.2)
    assert train.n_rows == 80 and test.n_rows == 20
    assert max(train.dates) < min(test.dates)


def test_split_floor_min_one(day):
    ds = _plain_dataset(day, 3)
    train, test = chronological_split(ds, 0.5)
    assert train.n_rows == 2 and test.n_rows == 1


def test_split_fraction_bounds(day):
    ds = _plain_dataset(day, 10)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            chronological_split(ds, bad)


# ---------------------------------------------------------------------------
# Dataset canonicalization
# ---------------------------------------------------------------------------

def test_dataset_column_order_is_canonical(day):
    dates = tuple(day(i) for i in range(3))
    a = Dataset(dates=dates,
                features={"b": np.ones(3), "a": np.zeros(3)},
                categories={"a": Category.MACRO, "b": Category.MACRO})
    b = Dataset(dates=dates,
                features={"a": np.zeros(3), "b": np.ones(3)},
                categories={"a": Category.MACRO, "b": Category.MACRO})
    assert a.feature_names == b.feature_names == ("a", "b")
    assert np.array_equal(a.matrix(), b.matrix())


def test_clean_corpus_forward_fills_trad_index(day):
    # weekday-only index: weekend gaps forward-filled, not interpolated
    points = []
    for i in range(30):
        d = day(i)
        if d.weekday() < 5:
            points.append((d, float(100 + i)))
    raw = {"QQQ_Close": MetricSeries.from_points("QQQ_Close", Category.TRADITIONAL_INDEX, points)}
    cleaned, drop_log, imputed = clean_corpus(raw)
    assert drop_log == []
    assert imputed.get("QQQ_Close", 0) > 0
    by_date = dict(zip(cleaned.dates, cleaned.features["QQQ_Close"]))
    # first Saturday carries Friday's value
    saturday = next(d for d in cleaned.dates if d.weekday() == 5)
    friday = saturday - timedelta(days=1)
    assert by_date[saturday] == by_date[friday]


def test_clean_corpus_forward_fills_trad_index_only_inside_its_span(day):
    # a weekday-only index whose first and last dates hold no value, inside
    # a longer daily macro series: the corpus calendar pads the index with
    # NaN on both sides, and the fill must not reach into that padding
    points = [(day(i), float(100 + i % 9)) for i in range(10, 50) if day(i).weekday() < 5]
    points = [(day(8), None)] + points + [(day(52), None)]
    index = MetricSeries.from_points("QQQ_Close", Category.TRADITIONAL_INDEX, points)
    macro = MetricSeries.from_points("m", Category.MACRO,
                                     [(day(i), float(i % 7)) for i in range(60)])
    cleaned, drop_log, imputed = clean_corpus({"QQQ_Close": index, "m": macro})
    assert drop_log == [] and cleaned.dates == tuple(day(i) for i in range(60))
    col = cleaned.features["QQQ_Close"]
    observed = np.flatnonzero(~np.isnan(col))
    assert (observed[0], observed[-1]) == (10, 49)   # both weekdays
    assert np.isnan(col[:10]).all() and np.isnan(col[50:]).all()
    # every weekend day strictly inside days 10..49 is filled, and nothing else
    weekend_days = sum(day(i).weekday() >= 5 for i in range(10, 50))
    want, want_filled = oracle.forward_fill(index)
    assert imputed == {"QQQ_Close": weekend_days} and want_filled == weekend_days
    assert col[8:53].view(np.int64).tolist() == want.values.view(np.int64).tolist()
