"""Regression tree ensembles: random forest and least-squares gradient boosting.

Trees are grown greedily by variance reduction with midpoint thresholds,
straight into a preorder node table; an ensemble keeps all of its trees in
one such table. Per-node sample counts and impurities are kept so
impurity-based importance can be computed later. All randomness (bootstrap
draws, per-node feature subsets) comes from substreams keyed by (seed, tree
index), so a fit is fully determined by (data, params, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from ._parallel import fork_map
from .seeding import derive_seed, substream


class ModelKind(Enum):
    RANDOM_FOREST = "rf"
    GRADIENT_BOOST = "gbt"


@dataclass(frozen=True)
class EnsembleParams:
    """Hyperparameters shared by both ensemble kinds.

    features_per_split: None = all features; an int is an absolute count; a
    float in (0, 1] is a fraction of the feature count (floor, at least 1).
    """

    kind: ModelKind = ModelKind.RANDOM_FOREST
    n_estimators: int = 100
    max_depth: int = 8
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    features_per_split: float | int | None = None
    learning_rate: float = 0.1
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.kind is ModelKind.GRADIENT_BOOST and not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        share = self.features_per_split
        if isinstance(share, (int, np.integer)):
            if share < 1:
                raise ValueError(f"features_per_split count must be >= 1, got {share}")
        elif share is not None and not 0.0 < share <= 1.0:
            raise ValueError(f"features_per_split fraction must be in (0, 1], got {share}")


@dataclass(eq=False)
class _NodeTable:
    """Fitted trees as parallel per-node arrays in preorder.

    Tree t occupies one block starting at roots[t]: each node is followed by
    its left subtree, then its right subtree. At a leaf feature is -1,
    threshold 0.0, and left and right point back at the leaf itself.
    n_samples and impurity (the variance of the node's targets) feed
    impurity-based importance; value is the mean.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray
    roots: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[list]) -> "_NodeTable":
        """One tree from preorder rows (feature, threshold, left, right, value, n, impurity)."""
        feature, threshold, left, right, value, n_samples, impurity = zip(*rows)
        return cls(np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
                   np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                   np.array(value, dtype=np.float64), np.array(n_samples, dtype=np.intp),
                   np.array(impurity, dtype=np.float64), np.zeros(1, dtype=np.intp))

    @classmethod
    def concat(cls, tables: list["_NodeTable"]) -> "_NodeTable":
        offsets = np.cumsum([0] + [len(t.feature) for t in tables[:-1]]).astype(np.intp)

        def stacked(column: str) -> np.ndarray:
            return np.concatenate([getattr(t, column) for t in tables])

        def shifted(column: str) -> np.ndarray:
            return np.concatenate([getattr(t, column) + off for t, off in zip(tables, offsets)])

        table = cls(stacked("feature"), stacked("threshold"), shifted("left"), shifted("right"),
                    stacked("value"), stacked("n_samples"), stacked("impurity"), offsets)
        for column in vars(table).values():
            column.flags.writeable = False
        return table

    def leaves(self, X: np.ndarray, node: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Leaf reached by each row of X from the start nodes `node`.

        node has shape (n,) or (n, k): row i of X is routed from node[i] (or
        from each of node[i, :]). Given `rows`, of node's shape, row rows[i]
        is routed from node[i] instead.
        """
        if rows is None:
            rows = np.arange(len(X)).reshape((-1,) + (1,) * (node.ndim - 1))
        while True:
            feat = self.feature[node]
            if not (feat >= 0).any():
                return node
            # a row already at a leaf stays there whichever way it goes; its
            # feature -1 just reads the last column
            go_left = X[rows, feat] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])

    def coalition_leaves(self, X_ex: np.ndarray, X_bg: np.ndarray,
                         position: np.ndarray) -> np.ndarray:
        """Leaves of every coalition row of one feature ordering.

        Coalition k of explained row e and background row b takes e's value
        of each feature f with position[f] < k and b's value of the others.
        The result, shape (len(X_ex), p + 1, len(X_bg), n_trees), holds the
        leaf `leaves` would route that row to in each tree. Each (e, b, tree)
        is routed once, carrying the sizes k in [lo, hi) that reach its node:
        at a split on f, sizes up to position[f] follow b and larger ones
        follow e, so the interval moves whole where e and b go the same way
        and splits at position[f] + 1 where they do not.
        """
        n_ex, n_bg, n_trees = len(X_ex), len(X_bg), len(self.roots)
        sizes = X_ex.shape[1] + 1
        item = np.arange(n_ex * n_bg * n_trees)     # (e, b, tree) in C order
        node = np.tile(self.roots, n_ex * n_bg)
        lo = np.zeros(len(item), dtype=np.intp)
        hi = np.full(len(item), sizes, dtype=np.intp)
        done = []
        while len(item):
            feat = self.feature[node]
            split = feat >= 0
            done.append((item[~split], lo[~split], hi[~split], node[~split]))
            item, node, lo, hi, feat = item[split], node[split], lo[split], hi[split], feat[split]
            threshold = self.threshold[node]
            ex_left = X_ex[item // (n_bg * n_trees), feat] <= threshold
            bg_left = X_bg[item // n_trees % n_bg, feat] <= threshold
            cut = position[feat] + 1    # sizes below cut read the background row
            whole = (ex_left == bg_left) | (lo >= cut) | (hi <= cut)
            # a split interval keeps [lo, cut) on b's side and adds [cut, hi)
            # on e's side
            parted = np.flatnonzero(~whole)
            ex_child = np.where(ex_left[parted], self.left[node[parted]], self.right[node[parted]])
            node = np.where(np.where(lo >= cut, ex_left, bg_left), self.left[node], self.right[node])
            node = np.concatenate((node, ex_child))
            item = np.concatenate((item, item[parted]))
            hi = np.concatenate((np.where(whole, hi, cut), hi[parted]))
            lo = np.concatenate((lo, cut[parted]))
        item, lo, hi, leaf = (np.concatenate(column) for column in zip(*done))
        # each item's intervals tile [0, sizes), so in (item, lo) order the
        # repeated leaves fill an (e, b, tree, k) array
        order = np.argsort(item * sizes + lo)
        leaves = np.repeat(leaf[order], (hi - lo)[order]).reshape(n_ex, n_bg, n_trees, sizes)
        return np.ascontiguousarray(leaves.transpose(0, 3, 1, 2))

    def path_reads(self, feature: int) -> np.ndarray:
        """Per node: whether a split on `feature` lies on its path from the root.

        A preorder subtree is the block [s, subtree_end[s]), so the nodes
        below the splits on `feature` are a union of such blocks.
        """
        splits = np.flatnonzero(self.feature == feature)
        n = len(self.feature)
        edges = (np.bincount(splits + 1, minlength=n + 1)
                 - np.bincount(self.subtree_end[splits], minlength=n + 1))
        return np.cumsum(edges[:n]) > 0

    @cached_property
    def subtree_end(self) -> np.ndarray:
        """One past the last node of each node's subtree: its rightmost leaf + 1."""
        last = np.arange(len(self.feature))
        while True:
            below = self.right[last]    # a leaf's right is itself
            if np.array_equal(below, last):
                end = last + 1
                end.flags.writeable = False
                return end
            last = below

    def max_depth(self) -> int:
        """Depth of the deepest tree; a lone leaf has depth 0."""
        level, depth = self.roots, -1
        while level.size:
            depth += 1
            level = level[self.feature[level] >= 0]
            level = np.concatenate((self.left[level], self.right[level]))
        return depth


@dataclass(frozen=True)
class TreeEnsemble:
    """A fitted forest or boosting stack; immutable after fitting."""

    params: EnsembleParams
    nodes: _NodeTable
    n_features: int
    feature_names: tuple[str, ...] | None = None
    base_value: float = 0.0
    training_mse: tuple[float, ...] = ()  # boosting only: per-stage train MSE

    @property
    def kind(self) -> ModelKind:
        return self.params.kind

    @property
    def n_trees(self) -> int:
        return len(self.nodes.roots)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, got shape {X.shape}")
        start = np.broadcast_to(self.nodes.roots, (len(X), self.n_trees))
        return self.combine_tree_total(self.nodes.value[self.nodes.leaves(X, start)].sum(axis=1))

    def per_tree_predictions(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows), row t is tree t's output."""
        return self.predict_tree(range(self.n_trees), X)

    def predict_tree(self, tree_indices: Sequence[int], X: np.ndarray) -> np.ndarray:
        """(len(tree_indices), n_rows), row i is the output of tree tree_indices[i].

        C order matters: pfi sums these over axis 0, which then adds the rows
        one after another; a transposed view would be summed pairwise and
        give different low bits.
        """
        X = np.asarray(X, dtype=np.float64)
        roots = self.nodes.roots[np.asarray(tree_indices, dtype=np.intp)]
        start = np.broadcast_to(roots, (len(X), len(roots)))
        return np.ascontiguousarray(self.nodes.value[self.nodes.leaves(X, start)].T)

    def tree_feature_sets(self) -> list[np.ndarray]:
        """Feature indices each tree actually splits on."""
        return [np.unique(f[f >= 0]) for f in np.split(self.nodes.feature, self.nodes.roots[1:])]

    def combine_tree_total(self, total: np.ndarray) -> np.ndarray:
        """Predictions from a precomputed sum of per-tree outputs."""
        if self.kind is ModelKind.RANDOM_FOREST:
            return total / self.n_trees
        return self.base_value + self.params.learning_rate * total


def _resolve_features_per_split(setting: float | int | None, n_features: int) -> int:
    if setting is None:
        return n_features
    if isinstance(setting, (int, np.integer)):
        return min(int(setting), n_features)
    return max(1, min(n_features, int(setting * n_features)))


def _check_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or len(y) != len(X):
        raise ValueError(f"y length {y.shape} does not match X rows {len(X)}")
    if len(y) < 1:
        raise ValueError("need at least one sample")
    return X, y


def _best_split_sorted(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Best (local feature, split position, threshold) over sorted columns.

    xs/ys hold each candidate's values sorted ascending, ys centered on the
    node mean, so the variance reduction of a split collapses to
    (sum of left ys)^2 * n / (n_l * n_r). Ties break toward the earlier
    candidate column, then the smaller split position, by scanning the gain
    matrix feature-major.
    """
    n = len(ys)
    cy = np.cumsum(ys, axis=0)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    weight = n / (nl * (n - nl))
    sums_l = cy[:-1]
    gain = sums_l * sums_l * weight
    valid = xs[1:] > xs[:-1]
    if min_leaf > 1:
        k = min_leaf
        valid[:k - 1] = False
        valid[len(valid) - (k - 1):] = False
    gain[~valid] = -np.inf
    flat = np.ravel(gain.T)  # feature-major scan
    best = int(np.argmax(flat))
    if flat[best] <= 0.0 or not np.isfinite(flat[best]):
        return None
    local_feat, pos = divmod(best, n - 1)
    threshold = 0.5 * (xs[pos, local_feat] + xs[pos + 1, local_feat])
    return local_feat, pos, float(threshold)


def _grow(X: np.ndarray, y: np.ndarray, sorted_idx: np.ndarray, depth: int,
          params: EnsembleParams, rng: np.random.Generator, m: int, rows: list[list]) -> None:
    """Append one node, then its left and right subtrees, to `rows` (preorder).

    sorted_idx[:, f] lists the node's rows sorted by feature f. Children
    partition the parent's sorted columns instead of re-sorting, so each
    level costs O(n * p) after the single O(n log n * p) root sort.
    """
    n = sorted_idx.shape[0]
    y_node = y[sorted_idx[:, 0]]
    mean = float(y_node.mean())
    centered = y_node - mean
    sse = float(centered @ centered)
    leaf = len(rows)
    row = [-1, 0.0, leaf, leaf, mean, n, sse / n]
    rows.append(row)
    if (depth >= params.max_depth or n < params.min_samples_split
            or n < 2 * params.min_samples_leaf or np.ptp(y_node) == 0.0):
        return

    p = X.shape[1]
    if m >= p:
        candidates = np.arange(p)
    else:
        candidates = np.sort(rng.choice(p, size=m, replace=False))
    si = sorted_idx[:, candidates]
    xs = X[si, candidates[None, :]]
    ys = y[si] - mean
    found = _best_split_sorted(xs, ys, params.min_samples_leaf)
    if found is None:
        return
    local_feat, pos, threshold = found
    row[0] = int(candidates[local_feat])
    row[1] = threshold

    in_left = np.zeros(len(y), dtype=bool)
    in_left[si[:pos + 1, local_feat]] = True
    sel = in_left[sorted_idx]
    sorted_t = sorted_idx.T
    left_sorted = sorted_t[sel.T].reshape(p, pos + 1).T
    right_sorted = sorted_t[~sel.T].reshape(p, n - pos - 1).T
    row[2] = len(rows)
    _grow(X, y, left_sorted, depth + 1, params, rng, m, rows)
    row[3] = len(rows)
    _grow(X, y, right_sorted, depth + 1, params, rng, m, rows)


def fit_tree(X: np.ndarray, y: np.ndarray, params: EnsembleParams,
             rng: np.random.Generator, _sorted_idx: np.ndarray | None = None) -> _NodeTable:
    """Grow one CART regression tree; rng drives per-node feature subsets.

    _sorted_idx, if given, is _sort_columns(X), for callers that fit many
    trees on the same X.
    """
    X, y = _check_xy(X, y)
    m = _resolve_features_per_split(params.features_per_split, X.shape[1])
    sorted_idx = _sort_columns(X) if _sorted_idx is None else _sorted_idx
    rows: list[list] = []
    _grow(X, y, sorted_idx, 0, params, rng, m, rows)
    return _NodeTable.from_rows(rows)


def _sort_columns(X: np.ndarray) -> np.ndarray:
    """Row indices sorting each column of X, as the root of a tree needs them."""
    return np.argsort(X, axis=0).astype(np.int32)


def fit_forest(X: np.ndarray, y: np.ndarray, params: EnsembleParams, seed: int,
               feature_names: Sequence[str] | None = None, jobs: int = 1) -> TreeEnsemble:
    """Random forest: trees on bootstrap resamples, prediction = tree mean.

    jobs > 1 grows the trees in that many forked processes. Each tree draws
    from its own substream, so the forest is the same for every jobs value.
    """
    X, y = _check_xy(X, y)
    if params.kind is not ModelKind.RANDOM_FOREST:
        params = replace(params, kind=ModelKind.RANDOM_FOREST)
    n = len(y)

    def grow(i: int) -> _NodeTable:
        rng = substream(seed, "tree", i)
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
            return fit_tree(X[rows], y[rows], params, rng)
        return fit_tree(X, y, params, rng)

    trees = fork_map(grow, range(params.n_estimators), jobs)
    return TreeEnsemble(
        params=params, nodes=_NodeTable.concat(trees), n_features=X.shape[1],
        feature_names=tuple(feature_names) if feature_names is not None else None,
    )


def fit_gbt(X: np.ndarray, y: np.ndarray, params: EnsembleParams, seed: int,
            feature_names: Sequence[str] | None = None) -> TreeEnsemble:
    """Least-squares gradient boosting on depth-limited trees.

    Stage k fits the current residuals; prediction is the training mean plus
    learning_rate times the sum of tree outputs. Training MSE per stage is
    recorded and is non-increasing by construction.
    """
    X, y = _check_xy(X, y)
    if params.kind is not ModelKind.GRADIENT_BOOST:
        params = replace(params, kind=ModelKind.GRADIENT_BOOST)
    base = float(y.mean())
    residual = y - base
    at_root = np.zeros(len(y), dtype=np.intp)
    sorted_idx = _sort_columns(X)   # every stage fits the same X
    trees = []
    stage_mse = []
    for i in range(params.n_estimators):
        rng = substream(seed, "stage", i)
        tree = fit_tree(X, residual, params, rng, _sorted_idx=sorted_idx)
        residual = residual - params.learning_rate * tree.value[tree.leaves(X, at_root)]
        trees.append(tree)
        stage_mse.append(float(np.mean(residual * residual)))
    return TreeEnsemble(
        params=params, nodes=_NodeTable.concat(trees), n_features=X.shape[1],
        feature_names=tuple(feature_names) if feature_names is not None else None,
        base_value=base, training_mse=tuple(stage_mse),
    )


def fit_model(X: np.ndarray, y: np.ndarray, params: EnsembleParams, seed: int,
              feature_names: Sequence[str] | None = None) -> TreeEnsemble:
    if params.kind is ModelKind.RANDOM_FOREST:
        return fit_forest(X, y, params, seed, feature_names)
    return fit_gbt(X, y, params, seed, feature_names)


def mse(y: np.ndarray, yhat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1 or len(y) < 1:
        raise ValueError(f"mse needs equal-length 1-D arrays, got {y.shape} vs {yhat.shape}")
    diff = y - yhat
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

@dataclass
class CVResult:
    candidates: list[EnsembleParams]
    fold_mses: list[list[float]]
    mean_mses: list[float]
    best_index: int

    @property
    def best_params(self) -> EnsembleParams:
        return self.candidates[self.best_index]


def chronological_folds(n: int, k: int) -> list[np.ndarray]:
    """k contiguous blocks of row indices, in time order, no shuffling."""
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    return list(np.array_split(np.arange(n), k))


def grid_search_cv(X: np.ndarray, y: np.ndarray, grid: Sequence[EnsembleParams],
                   k: int = 5, seed: int = 0) -> CVResult:
    """Score each candidate by mean held-out MSE over k chronological folds.

    The minimum mean MSE wins; ties go to the earlier candidate in grid
    order. Each (candidate, fold) fit draws from its own seed substream.
    """
    X, y = _check_xy(X, y)
    if not grid:
        raise ValueError("empty parameter grid")
    folds = chronological_folds(len(y), k)
    fold_mses: list[list[float]] = []
    for ci, params in enumerate(grid):
        scores = []
        for fi, fold in enumerate(folds):
            train = np.setdiff1d(np.arange(len(y)), fold)
            model = fit_model(X[train], y[train], params, derive_seed(seed, "cv", ci, fi))
            scores.append(mse(y[fold], model.predict(X[fold])))
        fold_mses.append(scores)
    mean_mses = [float(np.mean(s)) for s in fold_mses]
    best_index = int(np.argmin(mean_mses))  # first minimum
    return CVResult(list(grid), fold_mses, mean_mses, best_index)


def default_rf_grid() -> list[EnsembleParams]:
    grid = []
    for n_estimators in (100, 300):
        for max_depth in (4, 8, 16):
            for min_samples_split in (2, 10):
                for features_per_split in (1 / 3, None):
                    grid.append(EnsembleParams(
                        kind=ModelKind.RANDOM_FOREST, n_estimators=n_estimators,
                        max_depth=max_depth, min_samples_split=min_samples_split,
                        features_per_split=features_per_split))
    return grid


def default_gbt_grid() -> list[EnsembleParams]:
    grid = []
    for n_estimators in (100, 300):
        for max_depth in (4, 8, 16):
            for min_samples_split in (2, 10):
                for learning_rate in (0.05, 0.1):
                    grid.append(EnsembleParams(
                        kind=ModelKind.GRADIENT_BOOST, n_estimators=n_estimators,
                        max_depth=max_depth, min_samples_split=min_samples_split,
                        learning_rate=learning_rate, bootstrap=False))
    return grid
