import dataclasses

import numpy as np
import pytest

from cryptodiv import importance
from cryptodiv.importance import (ConstantColumnError, ImportanceReport, mdi, pearson,
                                  pearson_report, pfi, shapley_exact, shapley_sampled)
from cryptodiv.models import (EnsembleParams, ModelKind, _NodeTable, fit_forest, fit_gbt, fit_tree,
                              mse)
from cryptodiv.seeding import substream


class LinearStub:
    """f(x) = w @ x; exact Shapley values are known in closed form."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.n_features = len(self.weights)
        self.feature_names = None

    def predict(self, X):
        return np.asarray(X) @ self.weights


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------

def test_pearson_perfect_linear():
    x = np.arange(10.0)
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_two_pass_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000)
    y = rng.normal(size=1000)
    mx, my = sum(x) / len(x), sum(y) / len(y)
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = sum((a - mx) ** 2 for a in x) ** 0.5
    sy = sum((b - my) ** 2 for b in y) ** 0.5
    assert pearson(x, y) == pytest.approx(cov / (sx * sy), abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    r = pearson(x, y)
    assert pearson(y, x) == pytest.approx(r, abs=1e-12)
    assert pearson(3.0 * x + 2.0, y) == pytest.approx(r, abs=1e-9)
    assert pearson(-x, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_constant_column():
    with pytest.raises(ConstantColumnError):
        pearson(np.full(10, 3.0), np.arange(10.0))
    assert pearson_report({"c": np.full(10, 3.0)}, np.arange(10.0)).scores == {"c": 0.0}


# ---------------------------------------------------------------------------
# MDI
# ---------------------------------------------------------------------------

def _step_model(n_estimators=1, informative=0, p=3, n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, informative] = np.where(X[:, informative] > 0,
                                 X[:, informative] + 4, X[:, informative] - 4)
    y = (X[:, informative] > 0).astype(float)
    model = fit_forest(X, y, EnsembleParams(n_estimators=n_estimators, max_depth=6), seed=seed)
    return model, X, y


def test_mdi_single_split_gets_full_credit():
    model, _, _ = _step_model()
    report = mdi(model)
    assert report.scores["f0"] == pytest.approx(1.0, abs=1e-12)
    assert report.scores["f1"] == 0.0 and report.scores["f2"] == 0.0


def test_mdi_sums_to_one():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 6))
    y = X[:, 0] + 0.5 * X[:, 3] + rng.normal(scale=0.2, size=300)
    model = fit_forest(X, y, EnsembleParams(n_estimators=20, max_depth=5,
                                            features_per_split=0.5), seed=3)
    report = mdi(model)
    assert sum(report.scores.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0 for v in report.scores.values())


def test_mdi_planted_relevance_across_seeds():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(250, 2))
        y = X[:, 0].copy()  # exact relation, second column independent noise
        model = fit_forest(X, y, EnsembleParams(n_estimators=50, max_depth=6), seed=seed)
        if mdi(model).scores["f0"] > 0.9:
            hits += 1
    assert hits == 20


def test_mdi_on_gbt():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 3))
    y = 2 * X[:, 1] + rng.normal(scale=0.1, size=200)
    model = fit_gbt(X, y, EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=20,
                                         max_depth=3, bootstrap=False), seed=0)
    report = mdi(model)
    assert report.ranking[0] == "f1"
    assert sum(report.scores.values()) == pytest.approx(1.0, abs=1e-9)


def mdi_oracle(model) -> np.ndarray:
    """MDI by a plain loop over each tree's nodes, in table (breadth-first) order."""
    nodes = model.nodes
    bounds = [int(r) for r in nodes.roots] + [len(nodes.feature)]
    total = np.zeros(model.n_features)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        credit = np.zeros(model.n_features)
        root_n = int(nodes.n_samples[start])
        for i in range(start, stop):
            f = int(nodes.feature[i])
            if f < 0:
                continue
            n, lo, hi = int(nodes.n_samples[i]), int(nodes.left[i]), int(nodes.right[i])
            child = (int(nodes.n_samples[lo]) * float(nodes.impurity[lo])
                     + int(nodes.n_samples[hi]) * float(nodes.impurity[hi])) / n
            credit[f] += (n / root_n) * (float(nodes.impurity[i]) - child)
        total += credit
    total /= len(nodes.roots)
    s = total.sum()
    return total / s if s > 0 else total


@pytest.mark.parametrize("kind", ["rf", "gbt"])
def test_mdi_matches_node_loop_oracle_bit_for_bit(kind):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(250, 7))
    y = X[:, 0] - X[:, 2] ** 2 + 0.5 * X[:, 5] * X[:, 1] + rng.normal(scale=0.3, size=250)
    if kind == "rf":
        model = fit_forest(X, y, EnsembleParams(n_estimators=13, max_depth=7,
                                                features_per_split=0.5), seed=4)
    else:
        model = fit_gbt(X, y, EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=15,
                                             max_depth=4, bootstrap=False), seed=4)
    scores = mdi(model).scores
    got = np.array([scores[f"f{j}"] for j in range(7)])
    assert np.array_equal(got.view(np.int64), mdi_oracle(model).view(np.int64))


def test_mdi_rejects_inconsistent_node_counts():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(60, 3))
    model = fit_forest(X, X[:, 0], EnsembleParams(n_estimators=2, max_depth=3), seed=0)
    n_samples = model.nodes.n_samples.copy()
    n_samples[model.nodes.left[0]] += 1
    corrupted = dataclasses.replace(
        model, nodes=dataclasses.replace(model.nodes, n_samples=n_samples))
    with pytest.raises(ValueError, match="missing per-node statistics"):
        mdi(corrupted)


# ---------------------------------------------------------------------------
# PFI
# ---------------------------------------------------------------------------

def tree_feature_sets(model):
    """The features each tree splits on, read from its block of the node table."""
    return [set(block[block >= 0].tolist())
            for block in np.split(model.nodes.feature, model.nodes.roots[1:])]


def test_pfi_unused_feature_exactly_zero():
    model, X, y = _step_model(n_estimators=5)
    assert set.union(*tree_feature_sets(model)) == {0}
    report = pfi(model, X, y, repeats=3, seed=0)
    assert report.scores["f1"] == 0.0
    assert report.scores["f2"] == 0.0
    assert report.scores["f0"] > 0.0


def test_pfi_perfect_model_doubles_variance():
    # memorizing tree realizes f(x) = x0; permuting x0 gives E[(x - x_perm)^2] = 2 Var
    rng = np.random.default_rng(5)
    n = 10_000
    X = rng.normal(size=(n, 2))
    y = X[:, 0].copy()
    model = fit_forest(X, y, EnsembleParams(n_estimators=1, max_depth=64, bootstrap=False),
                       seed=0)
    assert np.allclose(model.predict(X), y, atol=1e-12)
    report = pfi(model, X, y, repeats=2, seed=1)
    expected = 2.0 * np.var(X[:, 0])
    assert report.scores["f0"] == pytest.approx(expected, rel=0.10)


def test_pfi_redundant_copies_score_below_single_copy():
    rng = np.random.default_rng(6)
    n = 800
    base = rng.normal(size=n)
    noise = rng.normal(scale=0.1, size=n)
    y = base + noise
    params = EnsembleParams(n_estimators=30, max_depth=6, features_per_split=1)

    X_single = np.column_stack([base, rng.normal(size=n)])
    single = pfi(fit_forest(X_single, y, params, seed=1), X_single, y,
                 repeats=3, seed=2).scores["f0"]

    X_dup = np.column_stack([base, base, rng.normal(size=n)])
    dup_report = pfi(fit_forest(X_dup, y, params, seed=1), X_dup, y, repeats=3, seed=2)
    assert dup_report.scores["f0"] < single
    assert dup_report.scores["f1"] < single


def pfi_tree_loop_oracle(model, X, y, repeats, seed):
    """pfi for tree ensembles, re-routing each affected tree on its own, one row at a time."""
    nodes = model.nodes

    def tree_output(t, data):
        out = []
        for x in data:
            i = nodes.roots[t]
            while nodes.feature[i] >= 0:
                i = nodes.left[i] if x[nodes.feature[i]] <= nodes.threshold[i] else nodes.right[i]
            out.append(nodes.value[i])
        return np.array(out)

    per_tree = np.array([tree_output(t, X) for t in range(model.n_trees)])
    total = per_tree.sum(axis=0)
    baseline = mse(y, model.combine_tree_total(total))
    feature_sets = tree_feature_sets(model)
    scores, X_work = {}, X.copy()
    for j in range(X.shape[1]):
        name = f"f{j}"
        affected = [t for t, feats in enumerate(feature_sets) if j in feats]
        if not affected:
            scores[name] = 0.0
            continue
        unaffected_total = total - per_tree[affected].sum(axis=0)
        deltas = []
        for r in range(repeats):
            X_work[:, j] = X[substream(seed, "pfi", name, r).permutation(len(y)), j]
            new_total = unaffected_total + sum(tree_output(t, X_work) for t in affected)
            deltas.append(mse(y, model.combine_tree_total(new_total)) - baseline)
        X_work[:, j] = X[:, j]
        scores[name] = float(np.mean(deltas))
    return scores, baseline


def at_thresholds(model, X, rng):
    """X with one value of each split feature set to that split's threshold."""
    X = X.copy()
    for node in np.flatnonzero(model.nodes.feature >= 0):
        X[rng.integers(len(X)), model.nodes.feature[node]] = model.nodes.threshold[node]
    return X


@pytest.mark.parametrize("kind", ["rf", "gbt", "rf-ties", "gbt-ties"])
def test_pfi_matches_per_tree_loop_oracle_bit_for_bit(kind):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(90, 6))
    y = X[:, 0] - X[:, 2] ** 2 + 0.5 * X[:, 4] * X[:, 1] + rng.normal(scale=0.3, size=90)
    if kind.startswith("rf"):
        model = fit_forest(X, y, EnsembleParams(n_estimators=12, max_depth=6,
                                                features_per_split=0.5), seed=2)
    else:
        model = fit_gbt(X, y, EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=10,
                                             max_depth=3, bootstrap=False), seed=2)
    if kind.endswith("ties"):
        # rows sitting on a threshold go left (x <= threshold) in both routers
        X = at_thresholds(model, X, rng)
    report = pfi(model, X, y, repeats=3, seed=9)
    expected, baseline = pfi_tree_loop_oracle(model, X, y, repeats=3, seed=9)
    names = sorted(expected)
    assert sorted(report.scores) == names
    got = np.array([report.scores[f] for f in names])
    assert np.array_equal(got.view(np.int64), np.array([expected[f] for f in names]).view(np.int64))
    assert report.metadata["baseline_mse"] == baseline


def test_pfi_deterministic_and_name_keyed():
    model, X, y = _step_model(n_estimators=4, seed=7)
    a = pfi(model, X, y, repeats=2, seed=11)
    b = pfi(model, X, y, repeats=2, seed=11)
    assert a.scores == b.scores


@pytest.mark.parametrize("kind", ["rf"])
def test_pfi_equal_at_jobs_1_2_3(kind):
    rng = np.random.default_rng(24)
    X = rng.normal(size=(60, 5))
    y = X[:, 0] + X[:, 1] * X[:, 3] + rng.normal(scale=0.2, size=60)
    model = fit_forest(X, y, EnsembleParams(n_estimators=4, max_depth=4,
                                            features_per_split=0.6), seed=3)
    reports = [pfi(model, X, y, repeats=2, seed=5, jobs=jobs) for jobs in (1, 2, 3)]

    def bits(report):
        return np.array([report.metadata["baseline_mse"], *report.scores.values()]).view(np.int64)

    for report in reports[1:]:
        assert list(report.scores) == list(reports[0].scores)
        assert np.array_equal(bits(report), bits(reports[0]))


# ---------------------------------------------------------------------------
# Shapley
# ---------------------------------------------------------------------------

def test_shapley_exact_linear_model():
    rng = np.random.default_rng(8)
    X_bg = rng.normal(size=(60, 2))
    X_bg -= X_bg.mean(axis=0)  # zero-mean background
    X_ex = rng.normal(size=(7, 2))
    model = LinearStub([1.0, 1.0])
    result = shapley_exact(model, X_bg, X_ex)
    assert np.allclose(result.attributions[:, 0], X_ex[:, 0], atol=1e-9)
    assert np.allclose(result.attributions[:, 1], X_ex[:, 1], atol=1e-9)


def test_shapley_exact_null_player():
    rng = np.random.default_rng(9)
    X_bg = rng.normal(size=(40, 3))
    X_ex = rng.normal(size=(5, 3))
    model = LinearStub([2.0, 0.0, -1.0])
    result = shapley_exact(model, X_bg, X_ex)
    assert np.all(result.attributions[:, 1] == 0.0)


def test_shapley_exact_efficiency_on_forest():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(150, 6))
    y = X[:, 0] + np.abs(X[:, 1]) + 0.5 * X[:, 2] * X[:, 3] + rng.normal(scale=0.1, size=150)
    model = fit_forest(X, y, EnsembleParams(n_estimators=10, max_depth=5), seed=4)
    X_bg, X_ex = X[:40], X[50:58]
    result = shapley_exact(model, X_bg, X_ex)
    totals = result.attributions.sum(axis=1)
    expected = model.predict(X_ex) - result.base_value
    assert np.allclose(totals, expected, atol=1e-9)


def test_shapley_exact_symmetry_for_duplicate_features():
    rng = np.random.default_rng(11)
    base = rng.normal(size=50)
    X_bg = np.column_stack([base, base, rng.normal(size=50)])
    x = np.array([[1.7, 1.7, 0.3]])
    model = LinearStub([1.0, 1.0, 2.0])
    result = shapley_exact(model, X_bg, x)
    assert result.attributions[0, 0] == pytest.approx(result.attributions[0, 1], abs=1e-12)


def test_shapley_exact_feature_cap():
    model = LinearStub(np.ones(13))
    X = np.zeros((4, 13))
    with pytest.raises(ValueError, match="shapley_sampled"):
        shapley_exact(model, X, X)


def test_shapley_sampled_within_three_stderr_of_exact():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(200, 6))
    y = X[:, 0] + 2 * np.abs(X[:, 1]) - X[:, 2] + rng.normal(scale=0.1, size=200)
    model = fit_forest(X, y, EnsembleParams(n_estimators=10, max_depth=5), seed=5)
    X_bg, X_ex = X[:30], X[40:45]
    exact = shapley_exact(model, X_bg, X_ex)
    sampled = shapley_sampled(model, X_bg, X_ex, n_permutations=2000, seed=6)
    bound = 3.0 * sampled.stderr + 1e-12
    assert np.all(np.abs(sampled.attributions - exact.attributions) <= bound)


def test_shapley_sampled_null_feature_exact_zero_for_trees():
    model, X, y = _step_model(n_estimators=5, seed=13)
    result = shapley_sampled(model, X[:20], X[30:35], n_permutations=100, seed=7)
    names = result.feature_names
    assert np.all(result.attributions[:, names.index("f1")] == 0.0)
    assert np.all(result.attributions[:, names.index("f2")] == 0.0)


def test_shapley_sampled_deterministic():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(80, 4))
    y = X[:, 0] + rng.normal(scale=0.1, size=80)
    model = fit_forest(X, y, EnsembleParams(n_estimators=5, max_depth=4), seed=8)
    a = shapley_sampled(model, X[:20], X[20:24], n_permutations=50, seed=9)
    b = shapley_sampled(model, X[:20], X[20:24], n_permutations=50, seed=9)
    assert np.array_equal(a.attributions, b.attributions)
    assert np.array_equal(a.stderr, b.stderr)


def test_shapley_sampled_equal_at_jobs_1_2_3():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(60, 5))
    y = X[:, 0] - np.abs(X[:, 2]) + rng.normal(scale=0.1, size=60)
    model = fit_forest(X, y, EnsembleParams(n_estimators=3, max_depth=4), seed=2)
    results = [shapley_sampled(model, X[:10], X[20:23], n_permutations=7, seed=3, jobs=jobs)
               for jobs in (1, 2, 3)]
    for result in results[1:]:
        assert np.array_equal(result.attributions.view(np.int64),
                              results[0].attributions.view(np.int64))
        assert np.array_equal(result.stderr.view(np.int64), results[0].stderr.view(np.int64))


class PredictOnly:
    """A model seen only through predict(), so shapley_sampled builds every coalition row."""

    def __init__(self, model):
        self.model = model
        self.n_features = model.n_features
        self.feature_names = model.feature_names

    def predict(self, X):
        return self.model.predict(X)


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def splits_twice_on_a_path(nodes) -> bool:
    stack = [(int(root), ()) for root in nodes.roots]
    while stack:
        node, path = stack.pop()
        f = int(nodes.feature[node])
        if f in path:
            return True
        if f >= 0:
            stack += [(int(nodes.left[node]), path + (f,)), (int(nodes.right[node]), path + (f,))]
    return False


@pytest.mark.parametrize("case", ["rf", "gbt", "one-split-feature", "lone-leaf"])
def test_path_reads_match_a_walk_up_to_the_root(case):
    rng = np.random.default_rng(33)
    X = rng.normal(size=(80, 5))
    y = X[:, 0] - np.abs(X[:, 2]) + rng.normal(scale=0.2, size=80)
    if case == "gbt":
        nodes = fit_gbt(X, y, EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=6,
                                             max_depth=3, bootstrap=False), seed=5).nodes
    elif case == "one-split-feature":
        nodes = fit_forest(X, X[:, 0] ** 2, EnsembleParams(n_estimators=3, max_depth=6),
                           seed=5).nodes
        assert splits_twice_on_a_path(nodes)
    elif case == "lone-leaf":
        # a tree on a constant target is one leaf; put one first and one last
        params = EnsembleParams(max_depth=5)
        leaf = fit_tree(X, np.ones(80), params, substream(5, "leaf"))
        nodes = _NodeTable.concat([leaf, fit_tree(X, y, params, substream(5, "tree")), leaf])
        assert len(leaf.feature) == 1
    else:
        nodes = fit_forest(X, y, EnsembleParams(n_estimators=5, max_depth=5,
                                                features_per_split=0.4), seed=5).nodes
    parent = {}
    for node in np.flatnonzero(nodes.feature >= 0):
        parent[int(nodes.left[node])] = parent[int(nodes.right[node])] = int(node)
    for j in range(X.shape[1] + 1):     # the last feature is not in X
        expected = []
        for node in range(len(nodes.feature)):
            above = set()
            while node in parent:
                node = parent[node]
                above.add(int(nodes.feature[node]))
            expected.append(j in above)
        assert nodes.path_reads(j).tolist() == expected, j


def shapley_case(case):
    """(model, background, explained rows) for one routing edge case."""
    rng = np.random.default_rng(31)
    p = 1 if case == "one-feature" else 5
    X = rng.normal(size=(70, p))
    y = X[:, 0] - (np.abs(X[:, 2]) if p > 1 else 0) + rng.normal(scale=0.2, size=70)
    if case == "gbt":
        model = fit_gbt(X, y, EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=8,
                                             max_depth=3, bootstrap=False), seed=4)
    elif case == "one-split-feature":
        # only column 0 matters, so paths split on it again and again
        model = fit_forest(X, X[:, 0] ** 2, EnsembleParams(n_estimators=3, max_depth=6), seed=4)
        assert splits_twice_on_a_path(model.nodes)
    else:
        params = {"min-leaf": dict(min_samples_leaf=5), "subsets": dict(features_per_split=0.4)}
        model = fit_forest(X, y, EnsembleParams(n_estimators=6, max_depth=5,
                                                **params.get(case, {})), seed=4)
    X_bg, X_ex = X[:12].copy(), X[40:46].copy()
    if case == "ties":
        X_bg = at_thresholds(model, X_bg, rng)
        X_ex = at_thresholds(model, X_ex, rng)
    if case == "explained-is-background":
        X_ex[2] = X_bg[5]
    return model, X_bg, X_ex


@pytest.mark.parametrize("case", ["rf", "gbt", "min-leaf", "subsets", "one-split-feature",
                                  "ties", "explained-is-background", "one-feature"])
def test_shapley_sampled_tree_routing_matches_predict_bit_for_bit(case):
    model, X_bg, X_ex = shapley_case(case)
    got = shapley_sampled(model, X_bg, X_ex, n_permutations=6, seed=3)
    expected = shapley_sampled(PredictOnly(model), X_bg, X_ex, n_permutations=6, seed=3)
    assert_same_bits(got.attributions, expected.attributions)
    assert_same_bits(got.stderr, expected.stderr)
    assert got.base_value == expected.base_value


def test_shapley_sampled_tree_routing_in_chunks_and_workers(monkeypatch):
    model, X_bg, X_ex = shapley_case("rf")
    expected = shapley_sampled(PredictOnly(model), X_bg, X_ex, n_permutations=5, seed=8)
    # a budget of two explained rows' leaves per batch splits the 6
    # explained rows into 3 chunks
    n_trees, rows_per_batch = model.n_trees, (X_bg.shape[1] + 1) * len(X_bg)
    monkeypatch.setattr(importance, "_BATCH_BYTES", 2 * rows_per_batch * n_trees * 8)
    calls = []
    original = _NodeTable.coalition_leaves

    def counting(self, X_ex, X_bg, position):
        calls.append(len(X_ex))
        return original(self, X_ex, X_bg, position)

    monkeypatch.setattr(_NodeTable, "coalition_leaves", counting)
    for jobs in (1, 2, 3):
        got = shapley_sampled(model, X_bg, X_ex, n_permutations=5, seed=8, jobs=jobs)
        assert_same_bits(got.attributions, expected.attributions)
        assert_same_bits(got.stderr, expected.stderr)
    assert calls == [2, 2, 2] * 5     # the workers' calls are not seen here


def test_shapley_sampled_rejects_wrong_column_count_for_trees():
    model, X_bg, X_ex = shapley_case("rf")
    with pytest.raises(ValueError, match="expected 5 feature columns"):
        shapley_sampled(model, X_bg[:, :4], X_ex[:, :4], n_permutations=2)


def test_shapley_sampled_unbiased_across_seeds():
    rng = np.random.default_rng(15)
    X_bg = rng.normal(size=(25, 6))
    X_ex = rng.normal(size=(2, 6))
    model = LinearStub([1.0, -2.0, 0.5, 0.0, 3.0, 1.0])
    exact = shapley_exact(model, X_bg, X_ex)
    estimates = [shapley_sampled(model, X_bg, X_ex, n_permutations=20, seed=s).attributions
                 for s in range(40)]
    mean_estimate = np.mean(estimates, axis=0)
    # linear model: every permutation yields the exact value, so this is tight
    assert np.allclose(mean_estimate, exact.attributions, atol=1e-9)


def test_mdi_invariant_to_dataset_column_order():
    # datasets canonicalize column order by name, so a fit from a dataset
    # built in any insertion order produces identical scores
    from datetime import date, timedelta
    from cryptodiv.data import Category, Dataset

    rng = np.random.default_rng(16)
    n = 150
    cols = {f"f{i}": rng.normal(size=n) for i in range(5)}
    y = cols["f2"] + 0.5 * cols["f0"] + rng.normal(scale=0.1, size=n)
    dates = tuple(date(2019, 1, 1) + timedelta(days=i) for i in range(n))
    cats = {k: Category.MACRO for k in cols}
    forward = Dataset(dates=dates, features=dict(cols), categories=cats, target=y)
    backward = Dataset(dates=dates, features=dict(reversed(list(cols.items()))),
                       categories=cats, target=y)
    params = EnsembleParams(n_estimators=10, max_depth=5, features_per_split=0.5)
    score_a = mdi(fit_forest(forward.matrix(), y, params, seed=3,
                             feature_names=forward.feature_names)).scores
    score_b = mdi(fit_forest(backward.matrix(), y, params, seed=3,
                             feature_names=backward.feature_names)).scores
    assert score_a == score_b


def test_report_ranking_and_csv():
    report = ImportanceReport("pfi", {"b": 1.0, "a": 1.0, "c": 2.0})
    assert report.ranking == ["c", "a", "b"]
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "feature,score,rank,method"
    assert csv_text.splitlines()[1].startswith("c,2.0,1,")
