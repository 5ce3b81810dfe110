import os
from dataclasses import replace
from datetime import date

import pytest

from cryptodiv import reports
from cryptodiv.data import Category
from cryptodiv.reports import render_improvement_by_category_csv

from synthetic import scenario_result


def test_improvement_by_category_mean_adds_left_to_right():
    # three cells of one period; a compensated sum (builtin sum from Python 3.12
    # on) would give 1.0 / 3 for macro
    results = [scenario_result(date(2019, 1, 1), window,
                               {Category.MACRO: value, Category.MARKET: 2.0})
               for window, value in ((1, 1e16), (7, 1.0), (30, -1e16))]
    assert render_improvement_by_category_csv(results).splitlines() == [
        "category,2019", "Macroeconomic Indicators,0.00", "Market Inputs,2.00"]


def test_improvement_by_category_mean_per_period():
    results = [scenario_result(date(2018, 1, 1), 7, {Category.MACRO: 1.0}),
               scenario_result(date(2019, 1, 1), 7, {Category.MACRO: 3.0}),
               scenario_result(date(2019, 1, 1), 30, {Category.MACRO: -2.0})]
    assert render_improvement_by_category_csv(results).splitlines() == [
        "category,2018,2019", "Macroeconomic Indicators,1.00,0.50"]


def test_tables_list_cells_in_period_then_window_order_whatever_order_they_arrive_in():
    # the scenario files' name order, in which `report` reads them
    results = [scenario_result(date(year, 1, 1), window, {Category.MACRO: float(window)})
               for year, window in ((2017, 30), (2017, 7), (2019, 180), (2019, 30), (2019, 7))]
    assert reports.render_feature_vectors_csv(results).splitlines() == [
        "scenario,n_features", "2017_7,1", "2017_30,1", "2019_7,1", "2019_30,1", "2019_180,1"]
    assert reports.render_contribution_csv(results).splitlines() == [
        "set,window,category,contribution_factor", "2017,7,macro,1.0", "2017,30,macro,1.0",
        "2019,7,macro,1.0", "2019,30,macro,1.0", "2019,180,macro,1.0"]
    assert reports.render_improvement_by_window_csv(results).splitlines() == [
        "window,2017,2019", "7,7.00,7.00", "30,30.00,30.00", "180,-,180.00"]


def test_horizon_tables_hold_only_the_sets_with_all_four_windows():
    # 2018 ran windows 1, 7, 90 and 180; 2019 lacks 180
    results = [replace(scenario_result(date(year, 1, 1), w),
                       rf_importance={"shared": 1.0, f"w{w}": float(w)})
               for year, windows in ((2018, (1, 7, 90, 180)), (2019, (1, 7, 90)))
               for w in windows]
    assert reports.render_top_features_csv(results).splitlines() == [
        "set,horizon,rank,feature,importance",
        "2018,short_term,1,w7,7.0", "2018,short_term,2,shared,1.0", "2018,short_term,3,w1,1.0",
        "2018,long_term,1,w180,180.0", "2018,long_term,2,w90,90.0",
        "2018,long_term,3,shared,1.0"]
    assert reports.render_unique_features_csv(results).splitlines() == [
        "set,horizon,rank,feature,importance",
        "2018,short_term,1,w7,7.0", "2018,short_term,2,w1,1.0",
        "2018,long_term,1,w180,180.0", "2018,long_term,2,w90,90.0"]


@pytest.mark.parametrize("failing", ["replace", "write"])
def test_atomic_write_text_leaves_no_temp_file_when_it_fails(tmp_path, monkeypatch, failing):
    target = tmp_path / "tables" / "t.csv"
    target.parent.mkdir()
    target.write_text("old\n")

    write_text = type(target).write_text

    def partial_write(path, text):
        write_text(path, text[:1])     # the file is there when the disk fills up
        raise OSError("disk full")

    def fail(*args):
        raise OSError("disk full")

    if failing == "replace":
        monkeypatch.setattr(os, "replace", fail)
    else:
        monkeypatch.setattr(type(target), "write_text", partial_write)
    with pytest.raises(OSError, match="disk full"):
        reports.atomic_write_text(target, "new\n")
    assert sorted(p.name for p in target.parent.iterdir()) == ["t.csv"]
    assert target.read_text() == "old\n"
