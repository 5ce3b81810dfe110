"""Tree growth, one depth at a time, against the plain reference grower in
tree_oracles, on generated data.

fit_tree, and the trees that fit_forest and fit_gbt grow, must equal the
oracle's node tables bit for bit: the same splits, thresholds, node values,
sample counts and impurities, in the same breadth-first order. A forest's bootstrap tree
reads the fit's one sort on its drawn rows; the oracle ignores that sort and
orders each node's rows by (value, row) itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptodiv import models
from cryptodiv.models import EnsembleParams, ModelKind, fit_forest, fit_gbt, fit_tree
from cryptodiv.seeding import substream

import tree_oracles as oracle

COLUMNS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity", "roots")

# few distinct values, so columns and targets are full of ties
VALUES = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 0.5000000000000001, 2.0, 7.0])
TARGETS = st.one_of(VALUES, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def assert_same_tables(got, expected):
    for column in COLUMNS:
        a, b = getattr(got, column), getattr(expected, column)
        assert a.dtype == b.dtype and a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column


@st.composite
def tree_problems(draw):
    """(X, y, params, seed): tied columns, duplicated rows, sometimes a constant target."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(VALUES, min_size=n * p, max_size=n * p))).reshape(n, p)
    if draw(st.booleans()):
        y = np.full(n, draw(TARGETS))
    else:
        y = np.array(draw(st.lists(TARGETS, min_size=n, max_size=n)))
    if draw(st.booleans()):     # a bootstrap resample: repeated rows, in random order
        rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        X, y = X[rows], y[rows]
    params = EnsembleParams(
        n_estimators=draw(st.integers(1, 4)),
        max_depth=draw(st.sampled_from([1, 2, 3, 6, 40])),
        min_samples_split=draw(st.sampled_from([2, 2, 5])),
        min_samples_leaf=draw(st.sampled_from([1, 3])),
        features_per_split=draw(st.one_of(st.none(), st.just(0.5), st.integers(1, p + 1))),
    )
    return X, y, params, draw(st.integers(0, 2**32))


@given(tree_problems())
@settings(max_examples=400, deadline=None)
def test_fit_tree_equals_partitioning_oracle(problem):
    X, y, params, seed = problem
    assert_same_tables(fit_tree(X, y, params, substream(seed, "tree")),
                       oracle.fit_tree(X, y, params, substream(seed, "tree")))


@given(tree_problems())
@settings(max_examples=150, deadline=None)
def test_forest_and_boosting_equal_partitioning_oracle(problem):
    X, y, params, seed = problem
    forest = fit_forest(X, y, params, seed)
    boosted = fit_gbt(X, y, params, seed)
    calls = []

    def oracle_tree(*args, **kwargs):
        calls.append(args)
        return oracle.fit_tree(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "fit_tree", oracle_tree)
        expected_forest = fit_forest(X, y, params, seed)
        expected_boosted = fit_gbt(X, y, params, seed)
    # one oracle tree per forest tree and per boosting stage
    assert len(calls) == 2 * params.n_estimators
    assert_same_tables(forest.nodes, expected_forest.nodes)
    assert_same_tables(boosted.nodes, expected_boosted.nodes)
    assert (np.array(boosted.training_mse).tobytes()
            == np.array(expected_boosted.training_mse).tobytes())


def test_deep_tree_on_tied_columns_equals_partitioning_oracle():
    """A criterion-8-like shape: hundreds of rows, many tied columns, a third per split."""
    rng = np.random.default_rng(13)
    X = np.round(rng.normal(size=(400, 30)), 1)
    y = X[:, 0] - X[:, 7] ** 2 + np.round(rng.normal(size=400), 2)
    for params in (EnsembleParams(max_depth=12, features_per_split=1 / 3),
                   EnsembleParams(max_depth=4, min_samples_leaf=3),
                   EnsembleParams(kind=ModelKind.GRADIENT_BOOST, max_depth=3, features_per_split=7,
                                  bootstrap=False)):
        assert_same_tables(fit_tree(X, y, params, substream(5, "tree")),
                           oracle.fit_tree(X, y, params, substream(5, "tree")))
