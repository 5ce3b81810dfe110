import json
from datetime import date, timedelta

import numpy as np
import pytest

from cryptodiv.data import Category, Dataset
from cryptodiv.fra import (DEFAULT_GBT_PARAMS, DEFAULT_RF_PARAMS, FraConfig, ImportanceReport,
                           ReducedFeatureSet, audit_json, bottom_half, final_vector, fra_reduce)
from cryptodiv.models import EnsembleParams, ModelKind

RF_PARAMS = EnsembleParams(kind=ModelKind.RANDOM_FOREST, n_estimators=25, max_depth=6,
                           features_per_split=1 / 3)
GBT_PARAMS = EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=25, max_depth=3,
                            learning_rate=0.1, bootstrap=False, features_per_split=1 / 3)


def planted_dataset(seed, n=500, n_informative=8, n_noise=32, feature_order=None):
    """Exact copies of the target plus independent noise columns."""
    rng = np.random.default_rng(seed)
    target = rng.normal(size=n).cumsum()
    target = (target - target.mean()) / target.std()
    features = {}
    categories = {}
    for i in range(n_informative):
        features[f"signal_{i:02d}"] = target.copy()
        categories[f"signal_{i:02d}"] = Category.ONCHAIN_BTC
    for i in range(n_noise):
        features[f"noise_{i:02d}"] = rng.normal(size=n)
        categories[f"noise_{i:02d}"] = Category.MACRO
    if feature_order is not None:
        features = {k: features[k] for k in feature_order}
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n))
    return Dataset(dates=dates, features=features, categories=categories,
                   target=target)


def planted_config(target_count=10):
    return FraConfig(target_count=target_count, top_k_union=min(10, target_count),
                     rf_params=RF_PARAMS, gbt_params=GBT_PARAMS, pfi_repeats=1)


# ---------------------------------------------------------------------------
# bottom_half
# ---------------------------------------------------------------------------

def test_bottom_half_picks_lowest_scores():
    report = ImportanceReport("mdi", {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
    assert bottom_half(report) == {"c", "d"}


def test_bottom_half_floor_rule():
    report = ImportanceReport("mdi", {f"f{i}": float(5 - i) for i in range(5)})
    assert bottom_half(report) == {"f3", "f4"}


def test_bottom_half_all_equal_scores():
    # ascending-name tie-break ranks smaller names higher, so the two
    # lexicographically greatest names fall in the bottom half
    report = ImportanceReport("mdi", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
    assert bottom_half(report) == {"c", "d"}


def test_bottom_half_single_feature_empty():
    report = ImportanceReport("mdi", {"only": 1.0})
    assert bottom_half(report) == set()


# ---------------------------------------------------------------------------
# fra_reduce
# ---------------------------------------------------------------------------

def test_fra_noop_when_at_or_below_target(monkeypatch):
    import cryptodiv.fra as fra_module
    rounds = []

    def capturing(*args, _evaluate=fra_module.evaluate_methods, **kwargs):
        rounds.append(_evaluate(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(fra_module, "evaluate_methods", capturing)
    ds = planted_dataset(0, n=200, n_informative=3, n_noise=3)
    out = fra_reduce(ds, planted_config(target_count=10), 0)
    assert out.iterations == [] and not out.forced_stop
    # round 1 still ranks every candidate, and its forest is the full forest
    assert len(rounds) == 1
    reports, forest = rounds[0]
    assert out.full_forest is forest
    mean_rank = fra_module._mean_ranks(ds.feature_names, reports)
    assert out.survivors == sorted(ds.feature_names, key=lambda f: (mean_rank[f], f))


def test_fra_ranks_candidates_when_no_round_removes():
    # three candidates against a target count of 5: the signal column must
    # lead the survivors, so it leads the FRA half of the final vector
    rng = np.random.default_rng(0)
    n = 300
    target = rng.normal(size=n).cumsum()
    features = {"aa_noise": rng.normal(size=n), "mm_noise": rng.normal(size=n),
                "zz_signal": target + 0.01 * target.std() * rng.normal(size=n)}
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n))
    ds = Dataset(dates=dates, features=features,
                 categories={f: Category.MACRO for f in features}, target=target)
    config = FraConfig(target_count=5, top_k_union=2, rf_params=RF_PARAMS,
                       gbt_params=GBT_PARAMS, pfi_repeats=1)
    out = fra_reduce(ds, config, 0)
    assert out.iterations == [] and not out.forced_stop
    assert out.survivors[0] == "zz_signal"
    assert sorted(out.survivors) == ["aa_noise", "mm_noise", "zz_signal"]
    assert out.full_forest.feature_names == ("aa_noise", "mm_noise", "zz_signal")
    shap = ImportanceReport("shapley", {"aa_noise": 3.0, "mm_noise": 2.0, "zz_signal": 1.0})
    assert final_vector(out, shap, config.top_k_union).features[0] == "zz_signal"


def test_fra_planted_relevance_small():
    for seed in (0, 1, 2):
        ds = planted_dataset(seed)
        out = fra_reduce(ds, planted_config(), seed)
        informative = [f for f in out.survivors if f.startswith("signal")]
        assert len(informative) >= 7
        assert len(out.survivors) <= 10
        assert len(out.iterations) <= 200


def test_fra_audit_partitions_features():
    ds = planted_dataset(3)
    out = fra_reduce(ds, planted_config(), 3)
    removed = out.removed
    assert len(removed) == len(set(removed))
    assert set(removed) | set(out.survivors) == set(ds.feature_names)
    assert set(removed) & set(out.survivors) == set()


def test_fra_removal_soundness_from_audit():
    ds = planted_dataset(4)
    out = fra_reduce(ds, planted_config(), 4)
    from cryptodiv.importance import pearson_report
    correlation = pearson_report(ds.features, ds.target).scores
    for rec in out.iterations:
        half = {m: set(r[len(r) - len(r) // 2:]) for m, r in rec.rankings.items()}
        for f in rec.removed:
            if rec.forced:
                continue
            assert all(f in half[m] for m in half)
            assert correlation[f] < rec.corr_threshold


def test_fra_feature_count_non_increasing():
    ds = planted_dataset(5)
    out = fra_reduce(ds, planted_config(), 5)
    count = len(ds.feature_names)
    for rec in out.iterations:
        assert len(rec.removed) >= 0
        count -= len(rec.removed)
    assert count == len(out.survivors)


def test_fra_column_order_invariance():
    order = list(planted_dataset(6).feature_names)
    rng = np.random.default_rng(99)
    shuffled = list(order)
    rng.shuffle(shuffled)
    a = fra_reduce(planted_dataset(6), planted_config(), 6)
    b = fra_reduce(planted_dataset(6, feature_order=shuffled), planted_config(), 6)
    assert a.survivors == b.survivors
    assert [r.removed for r in a.iterations] == [r.removed for r in b.iterations]


def test_fra_correlated_copies_terminate():
    # perfectly correlated copies are shielded by the correlation clause until
    # the rising threshold passes 1.0, after which the loop still reaches target
    rng = np.random.default_rng(7)
    n = 300
    target = rng.normal(size=n).cumsum()
    ds = Dataset(
        dates=tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n)),
        features={"copy_a": target.copy(), "copy_b": target.copy(),
                  "copy_c": target.copy()},
        categories={"copy_a": Category.MACRO, "copy_b": Category.MACRO,
                    "copy_c": Category.MACRO},
        target=target)
    config = FraConfig(target_count=1, top_k_union=1, rf_params=RF_PARAMS,
                       gbt_params=GBT_PARAMS, pfi_repeats=1)
    out = fra_reduce(ds, config, 0)
    assert len(out.survivors) == 1
    assert not out.forced_stop
    assert len(out.iterations) <= 200
    # no removal can happen while the threshold is still below 1.0
    for rec in out.iterations:
        if rec.removed:
            assert rec.corr_threshold > 1.0


def test_fra_forced_progress_rule(monkeypatch):
    # stub the four evaluators so the bottom halves never intersect; only the
    # forced rule (worst mean rank) can make progress once the threshold
    # clears 1.0
    ds = planted_dataset(20, n=120, n_informative=2, n_noise=2)
    features = sorted(ds.feature_names)
    fixed = {
        "rf_mdi": ImportanceReport("mdi", {f: float(i) for i, f in enumerate(features)}),
        "gbt_mdi": ImportanceReport("mdi", {f: float(-i) for i, f in enumerate(features)}),
        "rf_pfi": ImportanceReport("pfi", {f: float(i % 2) for i, f in enumerate(features)}),
        "gbt_pfi": ImportanceReport("pfi", {f: float((i + 1) % 2) for i, f in enumerate(features)}),
    }

    def stub(dataset, current, rf_params, gbt_params, pfi_repeats, seed, round_key):
        return {m: ImportanceReport(r.method, {f: r.scores[f] for f in current})
                for m, r in fixed.items()}, None

    import cryptodiv.fra as fra_module
    monkeypatch.setattr(fra_module, "evaluate_methods", stub)
    config = FraConfig(target_count=2, top_k_union=2, corr_start=1.0,
                       rf_params=RF_PARAMS, gbt_params=GBT_PARAMS)
    out = fra_reduce(ds, config, 0)
    assert len(out.survivors) == 2
    forced_recs = [rec for rec in out.iterations if rec.forced]
    assert forced_recs and all(len(rec.removed) == 1 for rec in forced_recs)
    for rec in forced_recs:
        assert rec.corr_threshold > 1.0


def test_fra_max_iterations_flag():
    ds = planted_dataset(8, n=250, n_informative=4, n_noise=8)
    config = FraConfig(target_count=1, top_k_union=1, rf_params=RF_PARAMS,
                       gbt_params=GBT_PARAMS, pfi_repeats=1, max_iterations=2)
    out = fra_reduce(ds, config, 0)
    assert out.forced_stop
    assert len(out.iterations) == 2
    assert len(out.survivors) > 1


def test_fra_requires_target():
    ds = planted_dataset(9, n=100, n_informative=2, n_noise=2)
    ds.target = None
    with pytest.raises(ValueError, match="target"):
        fra_reduce(ds, planted_config(), 9)


def test_fra_audit_json_replayable():
    ds = planted_dataset(10, n=250, n_informative=4, n_noise=12)
    out = fra_reduce(ds, planted_config(target_count=6), 10)
    doc = json.loads(audit_json(out))
    assert doc["survivors"] == out.survivors
    assert len(doc["iterations"]) == len(out.iterations)
    for rec_doc, rec in zip(doc["iterations"], out.iterations):
        assert rec_doc["removed"] == rec.removed
        assert set(rec_doc["rankings"]) == {"rf_mdi", "gbt_mdi", "rf_pfi", "gbt_pfi"}


def test_fra_tune_first_uses_grid_search(monkeypatch):
    # shrink the default grids so the tune path stays fast; the chosen
    # parameters must come from the grid and be frozen across iterations
    import cryptodiv.fra as fra_module
    tiny_rf = [EnsembleParams(n_estimators=3, max_depth=2),
               EnsembleParams(n_estimators=5, max_depth=4)]
    tiny_gbt = [EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=3, max_depth=2,
                               learning_rate=0.1, bootstrap=False)]
    monkeypatch.setattr(fra_module, "default_rf_grid", lambda: tiny_rf)
    monkeypatch.setattr(fra_module, "default_gbt_grid", lambda: tiny_gbt)
    ds = planted_dataset(15, n=200, n_informative=3, n_noise=9)
    config = FraConfig(target_count=6, top_k_union=6, tune_first=True,
                       cv_folds=3, pfi_repeats=1)
    out = fra_reduce(ds, config, 2)
    assert out.rf_params in tiny_rf
    assert out.gbt_params is tiny_gbt[0]
    assert len(out.survivors) <= 6


def test_fra_config_validation():
    with pytest.raises(ValueError):
        FraConfig(target_count=0)
    with pytest.raises(ValueError):
        FraConfig(corr_start=1.5)
    with pytest.raises(ValueError):
        FraConfig(corr_step=0.0)
    with pytest.raises(ValueError):
        FraConfig(target_count=10, top_k_union=11)
    # the grid search would drop the given parameters, while `importance` fits with them
    with pytest.raises(ValueError, match="tune_first"):
        FraConfig(tune_first=True, rf_params=DEFAULT_RF_PARAMS)
    with pytest.raises(ValueError, match="tune_first"):
        FraConfig(tune_first=True, gbt_params=DEFAULT_GBT_PARAMS)


# ---------------------------------------------------------------------------
# final_vector
# ---------------------------------------------------------------------------

def fra_result_with(survivors):
    # final_vector reads only the survivors, so no forest is fitted
    return ReducedFeatureSet(survivors=list(survivors), original=list(survivors),
                             iterations=[], forced_stop=False,
                             rf_params=DEFAULT_RF_PARAMS, gbt_params=DEFAULT_GBT_PARAMS,
                             full_forest=None)


def test_final_vector_identical_rankings():
    features = [f"f{i}" for i in range(10)]
    shap = ImportanceReport("shapley", {f: float(10 - i) for i, f in enumerate(features)})
    fv = final_vector(fra_result_with(features), shap, k=5)
    assert fv.features == features[:5]
    assert len(fv.features) == 5


def test_final_vector_disjoint_rankings():
    fra_features = [f"a{i}" for i in range(5)]
    shap_features = [f"b{i}" for i in range(5)]
    shap = ImportanceReport("shapley", {f: float(5 - i) for i, f in enumerate(shap_features)})
    fv = final_vector(fra_result_with(fra_features), shap, k=5)
    assert fv.features == fra_features + shap_features
    assert len(fv.features) == 10


def test_final_vector_order_fra_first_then_shap_rank():
    fra_features = ["x", "y"]
    shap = ImportanceReport("shapley", {"q": 3.0, "x": 2.0, "p": 1.0})
    fv = final_vector(fra_result_with(fra_features), shap, k=2)
    # top-2 shapley = [q, x]; x already present via FRA
    assert fv.features == ["x", "y", "q"]


def test_final_vector_size_bounds_and_overlap():
    rng = np.random.default_rng(11)
    fra_features = [f"f{i}" for i in range(40)]
    scores = {f: float(rng.uniform()) for f in fra_features}
    shap = ImportanceReport("shapley", scores)
    fv = final_vector(fra_result_with(fra_features), shap, k=20)
    assert 20 <= len(fv.features) <= 40
    assert fv.shap_overlap == 40  # every feature is an FRA survivor here


def test_final_vector_k_clipped():
    shap = ImportanceReport("shapley", {"a": 1.0, "b": 0.5})
    fv = final_vector(fra_result_with(["a", "b"]), shap, k=10)
    assert fv.features == ["a", "b"]
