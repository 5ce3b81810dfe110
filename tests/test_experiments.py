import pickle
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from cryptodiv.data import Category, Dataset, Scenario, chronological_split
from cryptodiv.experiments import (PipelineConfig, ShapleySettings, StageError, _params_summary,
                                   contribution_factors, improvement, prepare_dataset,
                                   result_from_json, result_to_json, run_scenario)
from cryptodiv.fra import FraConfig
from cryptodiv.models import EnsembleParams, ModelKind, fit_forest
from cryptodiv.reports import HORIZON_WINDOWS, horizon_importance, ranked

from synthetic import diversity_corpus, scenario_result

FAST_RF = EnsembleParams(n_estimators=30, max_depth=8, features_per_split=1 / 3)
FAST_GBT = EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=20, max_depth=3,
                          learning_rate=0.1, bootstrap=False)


def fast_config(seed=0, target_count=10):
    return PipelineConfig(
        target_metric="idx",
        indicator_sources=(),
        fra=FraConfig(target_count=target_count, top_k_union=min(10, target_count),
                      rf_params=FAST_RF, gbt_params=FAST_GBT, pfi_repeats=1),
        holdout_fraction=0.2,
        shapley=ShapleySettings(n_permutations=15, background_rows=20, explain_rows=8),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# contribution factors
# ---------------------------------------------------------------------------

def test_contribution_simple_ratio():
    final = [f"a{i}" for i in range(5)]
    categories = {f"a{i}": Category.MACRO for i in range(5)}
    factors = contribution_factors(final, categories, {Category.MACRO: 10})
    assert factors == {Category.MACRO: 0.5}


def test_contribution_absent_category_zero():
    factors = contribution_factors(
        ["x"], {"x": Category.MACRO},
        {Category.MACRO: 2, Category.TECHNICAL: 7})
    assert factors[Category.TECHNICAL] == 0.0


def test_contribution_zero_candidates_omitted():
    factors = contribution_factors([], {}, {Category.MACRO: 0, Category.TECHNICAL: 3})
    assert Category.MACRO not in factors
    assert factors[Category.TECHNICAL] == 0.0


def test_contribution_invariant_to_renaming_and_order():
    final = ["b", "a", "c"]
    categories = {"a": Category.MACRO, "b": Category.MACRO, "c": Category.TECHNICAL}
    counts = {Category.MACRO: 4, Category.TECHNICAL: 2}
    base = contribution_factors(final, categories, counts)
    renamed = contribution_factors(
        ["x_" + f for f in reversed(final)],
        {"x_" + f: c for f, c in categories.items()}, counts)
    assert base == renamed


def test_contribution_unknown_survivor_rejected():
    with pytest.raises(ValueError, match="no category"):
        contribution_factors(["mystery"], {}, {Category.MACRO: 1})


def test_contribution_survivors_exceed_candidates_rejected():
    with pytest.raises(ValueError, match="exceed"):
        contribution_factors(["a", "b"], {"a": Category.MACRO, "b": Category.MACRO},
                             {Category.MACRO: 1})


# ---------------------------------------------------------------------------
# horizon groups (reports.horizon_importance)
# ---------------------------------------------------------------------------

def short_and_long(importance_by_window, start=date(2019, 1, 1)):
    """The (short, long) importance maps of one set's cells, window -> rf_importance."""
    results = [replace(scenario_result(start, w), rf_importance=m)
               for w, m in importance_by_window.items()]
    return tuple(horizon_importance(results)[str(start.year)].values())


def test_group_horizons_mean_and_carry():
    by_window = {
        1: {"f": 0.4, "only1": 0.9},
        7: {"f": 0.2},
        90: {"g": 0.5},
        180: {"g": 0.1, "only180": 0.3},
    }
    short, long = short_and_long(by_window)
    assert short["f"] == pytest.approx(0.3)
    assert short["only1"] == pytest.approx(0.9)
    assert long["g"] == pytest.approx(0.3)
    assert long["only180"] == pytest.approx(0.3)
    assert HORIZON_WINDOWS == {"short_term": (1, 7), "long_term": (90, 180)}


def test_group_horizons_disjoint_sizes_sum():
    by_window = {
        1: {f"a{i}": 1.0 for i in range(4)},
        7: {f"b{i}": 1.0 for i in range(3)},
        90: {}, 180: {},
    }
    short, _ = short_and_long(by_window)
    assert len(short) == 7


def test_horizon_importance_leaves_out_a_set_missing_a_window():
    # 2019 lacks window 7; 2018 has all four
    results = [replace(scenario_result(date(2019, 1, 1), w), rf_importance=m)
               for w, m in {1: {"f": 1.0}, 90: {}, 180: {}}.items()]
    assert horizon_importance(results) == {}
    results += [scenario_result(date(2018, 1, 1), w) for w in (1, 7, 90, 180)]
    assert list(horizon_importance(results)) == ["2018"]


def test_group_merged_value_between_members():
    rng = np.random.default_rng(0)
    w1 = {f"f{i}": float(rng.uniform()) for i in range(10)}
    w7 = {f"f{i}": float(rng.uniform()) for i in range(10)}
    short, _ = short_and_long({1: w1, 7: w7, 90: {}, 180: {}})
    for f in w1:
        lo, hi = sorted((w1[f], w7[f]))
        assert lo <= short[f] <= hi


def test_top_k_and_unique_top_k():
    a = {"x": 3.0, "y": 2.0, "z": 1.0, "w": 2.0}
    b = {"x": 9.0, "q": 1.0}
    only_a = {f: v for f, v in a.items() if f not in b}
    assert ranked(a, 2) == [("x", 3.0), ("w", 2.0)]  # tie w/y broken by name
    assert ranked(only_a, 2) == [("w", 2.0), ("y", 2.0)]
    assert ranked(only_a, 10) == [("w", 2.0), ("y", 2.0), ("z", 1.0)]
    assert ranked({}, 5) == []


# ---------------------------------------------------------------------------
# improvement
# ---------------------------------------------------------------------------

def _improvement_fixture(n=300, seed=0):
    rng = np.random.default_rng(seed)
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n))
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = 2 * a + 2 * b + rng.normal(scale=0.1, size=n)
    ds = Dataset(dates=dates,
                 features={"a": a, "b": b},
                 categories={"a": Category.ONCHAIN_BTC, "b": Category.MACRO},
                 target=y)
    return ds


def test_improvement_formula_spot_checks():
    # direct arithmetic: category MSE twice the diverse MSE -> 100% improvement
    assert (2.0 - 1.0) / 1.0 * 100.0 == 100.0
    ds = _improvement_fixture()
    train, test = chronological_split(ds, 0.2)
    result, diverse = improvement(FAST_RF, 7, train, test, ["b", "a"],
                                  {Category.ONCHAIN_BTC: ["a"], Category.MACRO: ["b"]})
    # the diverse arm trains on the sorted final vector, from the arms' one seed
    assert diverse.feature_names == ("a", "b")
    X_test = test.matrix(["a", "b"])
    reference = fit_forest(train.matrix(["a", "b"]), train.target, FAST_RF, 7)
    assert diverse.predict(X_test).tolist() == reference.predict(X_test).tolist()
    for cat, m in result.mse_by_category.items():
        expected = (m - result.mse_diverse) / result.mse_diverse * 100.0
        assert result.improvement_by_category[cat] == pytest.approx(expected, abs=1e-12)
    assert result.mean_improvement == pytest.approx(
        np.mean(list(result.improvement_by_category.values())))
    assert all(v > 0 for v in result.improvement_by_category.values())


def test_improvement_zero_when_equal():
    assert (5.0 - 5.0) / 5.0 * 100.0 == 0.0


def test_improvement_degenerate_leak_rejected():
    n = 120
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n))
    ds = Dataset(dates=dates,
                 features={"a": np.arange(float(n)), "b": np.ones(n)},
                 categories={"a": Category.MACRO, "b": Category.TECHNICAL},
                 target=np.full(n, 3.0))
    train, test = chronological_split(ds, 0.2)
    with pytest.raises(ValueError, match="exactly 0"):
        improvement(EnsembleParams(n_estimators=2, max_depth=3), 0, train, test, ["a", "b"],
                    {Category.MACRO: ["a"], Category.TECHNICAL: ["b"]})


def test_improvement_empty_partition_rejected():
    ds = _improvement_fixture()
    train, test = chronological_split(ds, 0.2)
    with pytest.raises(ValueError, match="empty"):
        improvement(FAST_RF, 7, train, test, ["a"], {Category.MACRO: []})


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_run_scenario_deterministic_replay():
    corpus = diversity_corpus(seed=3, n_days=500)
    scenario = Scenario(date(2019, 1, 1), 7)
    config = fast_config(seed=5)
    a = run_scenario(corpus, scenario, config)
    b = run_scenario(corpus, scenario, config)
    assert result_to_json(a) == result_to_json(b)


def test_run_scenario_diversity_beats_single_categories():
    corpus = diversity_corpus(seed=1, n_days=600)
    result = run_scenario(corpus, Scenario(date(2019, 1, 1), 7), fast_config(seed=2))
    for cat, m in result.improvement.mse_by_category.items():
        assert result.improvement.mse_diverse < m
    assert all(v > 0 for v in result.improvement.improvement_by_category.values())


def test_run_scenario_excludes_target_metric_from_features():
    corpus = diversity_corpus(seed=4, n_days=400)
    result = run_scenario(corpus, Scenario(date(2019, 1, 1), 7), fast_config(seed=0))
    assert "idx" not in result.final_features
    assert Category.MARKET not in result.candidate_counts


def test_run_scenario_planted_category_dominates_contribution():
    # only category A features drive the target; B is pure noise
    rng = np.random.default_rng(12)
    n = 500
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n))
    features, categories = {}, {}
    a_cols = []
    for i in range(4):
        col = np.sin(2 * np.pi * np.arange(n) / (25 + 12 * i)) + 0.2 * rng.normal(size=n)
        a_cols.append(col)
        features[f"sig_{i}"], categories[f"sig_{i}"] = col, Category.ONCHAIN_BTC
    for i in range(4):
        features[f"noise_{i}"] = rng.normal(size=n)
        categories[f"noise_{i}"] = Category.SENTIMENT_INTEREST
    w = 7
    index = np.empty(n)
    index[:w] = 0.0
    index[w:] = 2 * a_cols[0][:-w] + a_cols[1][:-w] + 0.1 * rng.normal(size=n - w)
    features["idx"], categories["idx"] = index, Category.MARKET
    corpus = Dataset(dates, features, categories)

    result = run_scenario(corpus, Scenario(date(2019, 1, 1), w), fast_config(seed=3, target_count=4))
    factors = result.contribution_factors
    assert factors[Category.ONCHAIN_BTC] > factors[Category.SENTIMENT_INTEREST]


@pytest.mark.parametrize("target_count", [4, 10], ids=["fra-rounds", "no-fra-round"])
def test_run_scenario_fits_each_forest_once(monkeypatch, target_count):
    import cryptodiv.experiments as experiments_module
    import cryptodiv.fra as fra_module
    fits = []
    for module in (experiments_module, fra_module):
        def counting(*args, _fit=module.fit_forest, **kwargs):
            fits.append(_fit(*args, **kwargs))
            return fits[-1]
        monkeypatch.setattr(module, "fit_forest", counting)
    explained = []

    def capturing(model, *args, _explain=experiments_module.shapley_sampled, **kwargs):
        explained.append(model)
        return _explain(model, *args, **kwargs)

    monkeypatch.setattr(experiments_module, "shapley_sampled", capturing)
    corpus = diversity_corpus(seed=3, n_days=400)
    scenario = Scenario(date(2019, 1, 1), 7)
    result = run_scenario(corpus, scenario, fast_config(seed=5, target_count=target_count))
    rounds = result.fra_iterations
    assert (rounds > 0) == (target_count == 4)
    # FRA's forests (round 1's even when it removes nothing, so no iteration
    # records it), the final forest and one forest per category arm
    categories = len(result.improvement.mse_by_category)
    assert len(fits) == rounds + 1 + categories + (rounds == 0)
    # the explained forest is the first one fitted: round 1's
    assert len(explained) == 1 and explained[0] is fits[0]
    assert len(explained[0].feature_names) == sum(result.candidate_counts.values())

    # with tune_first the explained forest has the tuned parameters
    tiny_rf = [EnsembleParams(n_estimators=3, max_depth=2),
               EnsembleParams(n_estimators=5, max_depth=4)]
    tiny_gbt = [EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=3, max_depth=2,
                               learning_rate=0.1, bootstrap=False)]
    monkeypatch.setattr(fra_module, "default_rf_grid", lambda: tiny_rf)
    monkeypatch.setattr(fra_module, "default_gbt_grid", lambda: tiny_gbt)
    config = fast_config(seed=5, target_count=target_count)
    tuned = replace(config, fra=replace(config.fra, rf_params=None, gbt_params=None,
                                        tune_first=True, cv_folds=3))
    explained.clear()
    result = run_scenario(corpus, scenario, tuned)
    assert len(explained) == 1 and explained[0].params in tiny_rf
    assert result.model_summary["rf"] == _params_summary(explained[0].params)


def test_run_scenario_stage_error_names_stage():
    corpus = diversity_corpus(seed=5, n_days=300)
    config = fast_config(seed=0)
    bad = PipelineConfig(target_metric="no_such_metric", indicator_sources=(),
                         fra=config.fra, holdout_fraction=0.2,
                         shapley=config.shapley, seed=0)
    with pytest.raises(StageError, match="stage prepare"):
        run_scenario(corpus, Scenario(date(2019, 1, 1), 7), bad)


def test_stage_error_pickle_round_trip():
    # a failed cell returns its StageError from a worker process, so it must unpickle
    original = StageError("2019_7", "fra", ValueError("x"))
    restored = pickle.loads(pickle.dumps(original))
    assert isinstance(restored, StageError)
    assert (restored.scenario_label, restored.stage) == ("2019_7", "fra")
    assert str(restored) == str(original) == "scenario 2019_7, stage fra: x"
    assert isinstance(restored.cause, ValueError) and restored.cause.args == ("x",)


def test_prepare_dataset_shapes():
    corpus = diversity_corpus(seed=6, n_days=400, window=7)
    config = fast_config(seed=0)
    ds = prepare_dataset(corpus, Scenario(date(2019, 1, 1), 7), config)
    assert ds.n_rows == 400 - 7
    assert "idx" not in ds.features
    assert len(ds.features) == 10


def test_result_json_round_trip():
    corpus = diversity_corpus(seed=7, n_days=400)
    result = run_scenario(corpus, Scenario(date(2019, 1, 1), 7), fast_config(seed=1))
    text = result_to_json(result)
    back = result_from_json(text)
    assert result_to_json(back) == text
    assert back.scenario == result.scenario
    assert back.final_features == result.final_features
    assert back.contribution_factors == result.contribution_factors
