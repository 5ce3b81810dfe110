import dataclasses

import numpy as np
import pytest

from cryptodiv.models import (EnsembleParams, ModelKind, chronological_folds, fit_forest,
                              fit_gbt, fit_model, fit_tree, grid_search_cv, mse)
from cryptodiv.seeding import substream


def tree_predict(tree, X):
    """Outputs of the single tree a fit_tree node table holds."""
    return tree.value[tree.leaves(X, np.zeros(len(X), dtype=np.intp))]


# ---------------------------------------------------------------------------
# single trees
# ---------------------------------------------------------------------------

def test_tree_constant_target_single_leaf():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = np.full(40, 2.5)
    tree = fit_tree(X, y, EnsembleParams(max_depth=10), substream(0, "t"))
    assert len(tree.feature) == 1 and tree.feature[0] == -1
    assert tree.value[0] == 2.5 and tree.impurity[0] == 0.0


def test_tree_separable_step_splits_once():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 2))
    X[:, 1] = np.where(X[:, 1] > 0, X[:, 1] + 5.0, X[:, 1] - 5.0)  # well-separated
    y = (X[:, 1] > 0).astype(float)
    tree = fit_tree(X, y, EnsembleParams(max_depth=8), substream(0, "t"))
    assert tree.feature[0] == 1
    left, right = tree.left[0], tree.right[0]
    assert tree.feature[left] == -1 and tree.feature[right] == -1
    assert {tree.value[left], tree.value[right]} == {0.0, 1.0}


def test_tree_min_samples_leaf_forces_single_leaf():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    tree = fit_tree(X, y, EnsembleParams(max_depth=8, min_samples_leaf=30), substream(0, "t"))
    assert len(tree.feature) == 1 and tree.feature[0] == -1
    assert tree.value[0] == pytest.approx(y.mean())


def test_tree_node_statistics_consistent():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4))
    y = X[:, 0] + rng.normal(scale=0.1, size=200)
    tree = fit_tree(X, y, EnsembleParams(max_depth=5), substream(0, "t"))

    assert np.all(tree.impurity >= 0)
    split = np.flatnonzero(tree.feature >= 0)
    assert split.size > 0
    assert np.array_equal(tree.n_samples[tree.left[split]] + tree.n_samples[tree.right[split]],
                          tree.n_samples[split])
    assert tree.n_samples[0] == 200


def test_tree_dimension_mismatch():
    with pytest.raises(ValueError):
        fit_tree(np.zeros((10, 2)), np.zeros(9), EnsembleParams(), substream(0, "t"))


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_forest_degenerate_equals_single_tree():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 3))
    y = X[:, 0] ** 2 + rng.normal(scale=0.1, size=80)
    params = EnsembleParams(n_estimators=1, max_depth=6, bootstrap=False)
    forest = fit_forest(X, y, params, seed=9)
    tree = fit_tree(X, y, params, substream(9, "tree", 0))
    assert np.array_equal(forest.predict(X), tree_predict(tree, X))


def test_forest_same_seed_bit_identical():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 5))
    y = X @ np.arange(1.0, 6.0) + rng.normal(size=120)
    params = EnsembleParams(n_estimators=12, max_depth=5, features_per_split=0.5)
    a = fit_forest(X, y, params, seed=3)
    b = fit_forest(X, y, params, seed=3)
    probe = rng.normal(size=(50, 5))
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_forest_learns_linear_signal():
    rng = np.random.default_rng(6)
    X = rng.uniform(-2, 2, size=(600, 3))
    noise = rng.normal(scale=0.3, size=600)
    y = 3.0 * X[:, 0] + noise
    X_test = rng.uniform(-2, 2, size=(200, 3))
    y_test = 3.0 * X_test[:, 0]
    forest = fit_forest(X, y, EnsembleParams(n_estimators=100, max_depth=8), seed=1)
    assert mse(y_test, forest.predict(X_test)) < np.var(y)


def test_forest_prediction_is_mean_of_trees():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 4))
    y = rng.normal(size=100)
    forest = fit_forest(X, y, EnsembleParams(n_estimators=7, max_depth=4), seed=2)
    probe = rng.normal(size=(30, 4))
    per_tree = forest.per_tree_predictions(probe)
    assert np.allclose(per_tree.mean(axis=0), forest.predict(probe), atol=1e-12)


def test_forest_variance_shrinks_with_more_trees():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(150, 3))
    y = X[:, 0] + rng.normal(scale=0.5, size=150)
    probe = np.zeros((1, 3))

    def spread(n_estimators):
        preds = [fit_forest(X, y, EnsembleParams(n_estimators=n_estimators, max_depth=4,
                                                 features_per_split=1 / 3),
                            seed=s).predict(probe)[0] for s in range(12)]
        return np.var(preds)

    assert spread(40) < spread(2)


def test_forest_node_table_is_preorder():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(90, 4))
    y = X[:, 0] + rng.normal(scale=0.5, size=90)
    nodes = fit_forest(X, y, EnsembleParams(n_estimators=5, max_depth=5), seed=3).nodes
    bounds = [int(r) for r in nodes.roots] + [len(nodes.feature)]
    assert bounds[0] == 0

    def walk(i, depth, order):
        order.append(i)
        if nodes.feature[i] < 0:
            assert nodes.left[i] == i and nodes.right[i] == i and nodes.threshold[i] == 0.0
            return depth
        assert nodes.left[i] == i + 1
        return max(walk(nodes.left[i], depth + 1, order), walk(nodes.right[i], depth + 1, order))

    depths = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        order = []
        depths.append(walk(start, 0, order))
        assert order == list(range(start, stop))
    assert nodes.max_depth() == max(depths) <= 5


@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_node_table_equal_at_jobs_1_2_3(bootstrap):
    rng = np.random.default_rng(25)
    X = rng.normal(size=(70, 5))
    y = X[:, 0] - X[:, 2] + rng.normal(scale=0.3, size=70)
    params = EnsembleParams(n_estimators=5, max_depth=4, features_per_split=0.6,
                            bootstrap=bootstrap)
    tables = [fit_forest(X, y, params, seed=4, jobs=jobs).nodes for jobs in (1, 2, 3)]
    for column, reference in vars(tables[0]).items():
        for other in tables[1:]:
            got = getattr(other, column)
            assert got.dtype == reference.dtype and not got.flags.writeable, column
            assert np.array_equal(got.view(np.int64), reference.view(np.int64)), column


def test_per_tree_predictions_c_ordered_rows_match_predict_tree():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(150, 5))
    y = X[:, 1] - X[:, 3] + rng.normal(scale=0.2, size=150)
    probe = rng.normal(size=(40, 5))
    for model in (fit_forest(X, y, EnsembleParams(n_estimators=11, max_depth=6), seed=1),
                  fit_gbt(X, y, EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=9,
                                               max_depth=3, bootstrap=False), seed=1)):
        per_tree = model.per_tree_predictions(probe)
        assert per_tree.shape == (model.n_trees, 40) and per_tree.flags["C_CONTIGUOUS"]
        for t in range(model.n_trees):
            assert np.array_equal(per_tree[t].view(np.int64),
                                  model.predict_tree([t], probe)[0].view(np.int64))
        picked = [5, 0, 3, 0]
        rows = model.predict_tree(picked, probe)
        assert rows.shape == (len(picked), 40) and rows.flags["C_CONTIGUOUS"]
        assert np.array_equal(rows.view(np.int64), per_tree[picked].view(np.int64))


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------

def test_gbt_one_full_stage_matches_single_tree_residuals():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 2))
    y = X[:, 0] * 2 + rng.normal(scale=0.2, size=60)
    params = EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=1, max_depth=50,
                            learning_rate=1.0, bootstrap=False)
    model = fit_gbt(X, y, params, seed=4)
    tree = fit_tree(X, y - y.mean(), params, substream(4, "stage", 0))
    expected = y.mean() + tree_predict(tree, X)
    assert np.allclose(model.predict(X), expected, atol=1e-12)


@pytest.mark.parametrize("features_per_split", [None, 0.5])
def test_gbt_sorting_once_matches_sorting_per_stage(features_per_split):
    rng = np.random.default_rng(26)
    X = np.round(rng.normal(size=(80, 5)), 1)     # tied values in every column
    y = X[:, 0] - X[:, 3] ** 2 + rng.normal(scale=0.2, size=80)
    params = EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=6, max_depth=4,
                            min_samples_leaf=2, features_per_split=features_per_split,
                            bootstrap=False)
    model = fit_gbt(X, y, params, seed=3)
    # the stages re-fitted as separate fit_tree calls, each sorting X itself
    residual, stages, losses = y - y.mean(), [], []
    for i in range(params.n_estimators):
        tree = fit_tree(X, residual, params, substream(3, "stage", i))
        residual = residual - params.learning_rate * tree_predict(tree, X)
        stages.append(tree)
        losses.append(float(np.mean(residual * residual)))
    offsets = np.cumsum([0] + [len(t.feature) for t in stages[:-1]])
    for column in ("feature", "threshold", "left", "right", "value", "n_samples", "impurity"):
        expected = np.concatenate([getattr(t, column) + (off if column in ("left", "right") else 0)
                                   for t, off in zip(stages, offsets)])
        got = getattr(model.nodes, column)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), column
    assert np.array_equal(np.array(model.training_mse).view(np.int64),
                          np.array(losses).view(np.int64))


def test_gbt_base_model_predicts_mean():
    # trees constrained to single leaves contribute nothing beyond the mean
    rng = np.random.default_rng(10)
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    params = EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=3,
                            min_samples_split=51, bootstrap=False)
    model = fit_gbt(X, y, params, seed=0)
    assert np.allclose(model.predict(X), np.full(50, y.mean()), atol=1e-12)


def test_gbt_training_mse_monotone_200_stages():
    rng = np.random.default_rng(11)
    X = np.linspace(0, 4, 300).reshape(-1, 1)
    y = np.sin(X[:, 0] * 2) + 0.05 * rng.normal(size=300)
    params = EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=200, max_depth=3,
                            learning_rate=0.1, bootstrap=False)
    model = fit_gbt(X, y, params, seed=5)
    losses = model.training_mse
    assert len(losses) == 200
    assert all(a >= b for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_unconstrained_tree_memorizes_training_data():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(200, 5))
    y = rng.normal(size=200)
    params = EnsembleParams(n_estimators=1, max_depth=200, bootstrap=False)
    model = fit_forest(X, y, params, seed=0)
    assert np.allclose(model.predict(X), y, atol=1e-12)


def test_duplicate_rows_identical_predictions():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    model = fit_forest(X, y, EnsembleParams(n_estimators=5, max_depth=4), seed=1)
    probe = np.vstack([X[:5], X[:5]])
    out = model.predict(probe)
    assert np.array_equal(out[:5], out[5:])


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(30, 3))
    model = fit_forest(X, rng.normal(size=30), EnsembleParams(n_estimators=2, max_depth=3), seed=0)
    with pytest.raises(ValueError):
        model.predict(rng.normal(size=(5, 4)))


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_examples():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        mse(np.array([1.0]), np.array([1.0, 2.0]))


def test_mse_against_naive_loop():
    rng = np.random.default_rng(15)
    y = rng.normal(size=1000)
    yhat = rng.normal(size=1000)
    naive = sum((a - b) ** 2 for a, b in zip(y, yhat)) / 1000
    assert mse(y, yhat) == pytest.approx(naive, abs=1e-12)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_folds_partition_rows():
    folds = chronological_folds(103, 5)
    flat = np.concatenate(folds)
    assert np.array_equal(flat, np.arange(103))
    assert all(np.array_equal(f, np.arange(f[0], f[-1] + 1)) for f in folds)


def test_grid_single_candidate_chosen():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    grid = [EnsembleParams(n_estimators=2, max_depth=2)]
    result = grid_search_cv(X, y, grid, k=3, seed=0)
    assert result.best_index == 0 and result.best_params is grid[0]


def test_grid_prefers_generalizing_depth():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(300, 3))
    y = (X[:, 0] > 0).astype(float) + rng.normal(scale=0.4, size=300)
    shallow = EnsembleParams(n_estimators=10, max_depth=2)
    memorizer = EnsembleParams(n_estimators=1, max_depth=300, bootstrap=False)
    result = grid_search_cv(X, y, [memorizer, shallow], k=5, seed=1)
    assert result.best_params is shallow


def test_grid_matches_brute_force_oracle():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(200, 4))
    y = X[:, 0] - 0.5 * X[:, 1] + rng.normal(scale=0.3, size=200)
    grid = [
        EnsembleParams(n_estimators=5, max_depth=2),
        EnsembleParams(n_estimators=5, max_depth=6),
        EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=10, max_depth=2,
                       learning_rate=0.1, bootstrap=False),
        EnsembleParams(n_estimators=2, max_depth=4, features_per_split=0.5),
    ]
    k, seed = 5, 42
    result = grid_search_cv(X, y, grid, k=k, seed=seed)

    # independent re-implementation: naive loops over the same fold layout
    n = len(y)
    bounds = [round(i * n / k) for i in range(k + 1)]
    means = []
    for ci, params in enumerate(grid):
        scores = []
        for fi in range(k):
            lo, hi = bounds[fi], bounds[fi + 1]
            test_rows = list(range(lo, hi))
            train_rows = [r for r in range(n) if r < lo or r >= hi]
            fit_seed = int(substream(seed, "cv", ci, fi).integers(0, 2 ** 63 - 1))
            model = fit_model(X[train_rows], y[train_rows], params, fit_seed)
            pred = model.predict(X[test_rows])
            scores.append(float(np.mean((y[test_rows] - pred) ** 2)))
        means.append(float(np.mean(scores)))
    assert result.mean_mses == pytest.approx(means, abs=1e-12)
    assert result.best_index == int(np.argmin(means))


def test_grid_chosen_candidate_attains_minimum():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(90, 2))
    y = rng.normal(size=90)
    grid = [EnsembleParams(n_estimators=t, max_depth=d)
            for t in (2, 5) for d in (2, 4)]
    result = grid_search_cv(X, y, grid, k=3, seed=7)
    best = result.mean_mses[result.best_index]
    assert all(best <= m for m in result.mean_mses)


def test_grid_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        grid_search_cv(np.zeros((10, 1)), np.zeros(10), [], k=2, seed=0)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(n_estimators=0)
    with pytest.raises(ValueError):
        EnsembleParams(max_depth=0)
    with pytest.raises(ValueError):
        EnsembleParams(kind=ModelKind.GRADIENT_BOOST, learning_rate=0.0)
    with pytest.raises(ValueError):
        EnsembleParams(kind=ModelKind.GRADIENT_BOOST, learning_rate=1.5)
    with pytest.raises(ValueError):
        fit_forest(np.zeros((4, 1)), np.zeros(4),
                   EnsembleParams(features_per_split=1.5), seed=0)


def test_summary_shape():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(50, 3))
    model = fit_forest(X, rng.normal(size=50), EnsembleParams(n_estimators=3, max_depth=4), seed=0)
    assert model.kind is ModelKind.RANDOM_FOREST and model.n_trees == 3
    assert len(model.nodes.roots) == 3 and model.nodes.roots[0] == 0
    assert model.nodes.max_depth() <= 4


@pytest.mark.parametrize("fit", [fit_forest, fit_gbt], ids=["rf", "gbt"])
def test_fitted_ensemble_is_read_only(fit):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 3))
    model = fit(X, X[:, 0], EnsembleParams(n_estimators=2, max_depth=3), seed=0)
    for column in vars(model.nodes).values():
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.base_value = 1.0
