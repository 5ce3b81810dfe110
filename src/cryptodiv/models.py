"""Regression tree ensembles: random forest and least-squares gradient boosting.

A fit sorts each column of X once, stably, and every tree grows from that sort
on its own rows; a bootstrap row drawn k times counts k times. A tree grows one
depth at a time: the depth's nodes draw their candidate columns together and
find their splits in one pass over their rows. Trees split by variance
reduction at midpoint thresholds into one preorder node table per ensemble,
which keeps node sample counts and impurities for importance. All
randomness comes from substreams keyed by (seed, tree index), and no sum goes
through BLAS, so (data, params, seed) fixes a fit's bits on every CPU.
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

    def _check_x(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, got shape {X.shape}")
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_x(X)
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
        X = self._check_x(X)
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
    X = np.ascontiguousarray(X, dtype=np.float64)   # fit_tree reads X by flat index
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or len(y) != len(X):
        raise ValueError(f"y length {y.shape} does not match X rows {len(X)}")
    if len(y) < 1:
        raise ValueError("need at least one sample")
    return X, y


def fit_tree(X: np.ndarray, y: np.ndarray, params: EnsembleParams, rng: np.random.Generator,
             _columns: tuple[np.ndarray, np.ndarray] | None = None,
             _rows: np.ndarray | None = None) -> _NodeTable:
    """Grow one CART regression tree, one depth at a time; rng draws each depth's candidates.

    _columns, if given, is _sort_columns(X), shared by the trees of one fit.
    _rows, if given, are the rows to grow on: a row listed k times counts k times.

    A depth's nodes hold their rows in consecutive blocks of `members`. Each
    splittable node gets m candidate columns (the m smallest of its row of one
    rng.random((k, p)) draw, ascending). In each candidate slot, sorting
    (node, rank) keys lists every node's rows in its candidate's root order,
    and one cumsum of the targets, centered on each node's mean, gives every
    node's left sums. A split maximizes (left sum)^2 * n / (n_l * n_r) at a
    value change; ties go to the earlier slot, then the smaller position. Each
    child is a slice of its parent's winning slot, so it needs no partition.
    """
    X, y = _check_xy(X, y)
    n_rows, p = X.shape
    m = _resolve_features_per_split(params.features_per_split, p)
    order, rank = _sort_columns(X) if _columns is None else _columns
    members = np.arange(n_rows) if _rows is None else np.sort(_rows)
    sizes = np.array([len(members)])
    levels = []     # per depth: (feature, threshold, value, n_samples, impurity) of its nodes
    for depth in range(params.max_depth + 1):
        starts = np.cumsum(sizes) - sizes
        node = np.repeat(np.arange(len(sizes)), sizes)
        y_m = y[members]
        mean = np.add.reduceat(y_m, starts) / sizes
        centered = y_m - mean[node]
        feature, threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
        levels.append((feature, threshold, mean, sizes,
                       np.add.reduceat(centered * centered, starts) / sizes))
        grow = ((sizes >= params.min_samples_split) & (sizes >= 2 * params.min_samples_leaf)
                & (np.maximum.reduceat(y_m, starts) != np.minimum.reduceat(y_m, starts)))
        if depth == params.max_depth or not grow.any():
            break
        at = np.flatnonzero(grow)
        members, sizes = members[grow[node]], sizes[at]
        k, N = len(at), len(members)
        starts = np.cumsum(sizes) - sizes
        node = np.repeat(np.arange(k), sizes)
        if m >= p:
            cand = np.broadcast_to(np.arange(p), (k, p))
        else:
            cand = np.sort(np.argsort(rng.random((k, p)), axis=1, kind="stable")[:, :m], axis=1)
        col = np.repeat(cand.T, sizes, axis=1)  # (m, N): each slot's candidate per member
        base = (node * n_rows).astype(np.int32 if k * n_rows < 2**31 else np.int64)
        flat = col * n_rows
        keys = np.sort(base + rank.take(flat + members), axis=1)
        rows = order.take(flat + (keys - base))
        xs = X.take(rows * p + col)
        left = np.cumsum(y.take(rows) - mean[at][node], axis=1)
        left -= np.repeat(np.where(starts > 0, left[:, starts - 1], 0.0), sizes, axis=1)
        n_l = np.arange(1, N + 1) - starts[node]
        n_r = sizes[node] - n_l
        # gains are >= 0 and a split needs one > 0, so a split that is not allowed scores 0:
        # fewer than min_samples_leaf rows on a side (a block's last slot has n_r = 0) ...
        weight = np.where((n_l >= params.min_samples_leaf) & (n_r >= params.min_samples_leaf),
                          sizes[node] / np.maximum(n_l * n_r, 1), 0.0)
        rise = np.zeros(xs.shape, dtype=bool)   # ... or no value change to cut at
        np.greater(xs[:, 1:], xs[:, :-1], out=rise[:, :-1])
        gain = left * left
        gain *= weight
        gain *= rise
        slot_best = np.maximum.reduceat(gain, starts, axis=1)
        slot = slot_best.argmax(axis=0)
        best = slot_best[slot, np.arange(k)]
        split = (best > 0.0) & (best < np.inf)
        if not split.any():
            break
        won = slot[node], np.arange(N)
        hit = gain[won] == best[node]
        cut = np.minimum.reduceat(np.where(hit, won[1], N), starts)    # each node's last left row
        members = rows[won][split[node]]
        n_left = cut - starts + 1
        sizes = np.column_stack((n_left, sizes - n_left))[split].ravel()
        cut, slot = cut[split], slot[split]
        feature[at[split]] = cand[split, slot]
        threshold[at[split]] = 0.5 * (xs[slot, cut] + xs[slot, cut + 1])
    return _preorder(levels)


def _preorder(levels: list[tuple[np.ndarray, ...]]) -> _NodeTable:
    """One tree's node table from its depths' nodes; a split node's children
    are the next depth's next two nodes."""
    splits = [level[0] >= 0 for level in levels]
    count = [np.ones(len(s), dtype=np.intp) for s in splits]     # subtree sizes, bottom up
    for d in range(len(levels) - 2, -1, -1):
        count[d][splits[d]] += count[d + 1][0::2] + count[d + 1][1::2]
    place = [np.zeros(1, dtype=np.intp)]                          # preorder positions, top down
    for d in range(1, len(levels)):
        child = np.repeat(place[-1][splits[d - 1]] + 1, 2)
        child[1::2] += count[d][0::2]
        place.append(child)
    left, right = [p.copy() for p in place], [p.copy() for p in place]
    for d in range(len(levels) - 1):
        left[d][splits[d]], right[d][splits[d]] = place[d + 1][0::2], place[d + 1][1::2]
    at = np.concatenate(place)

    def column(parts, dtype) -> np.ndarray:
        out = np.empty(len(at), dtype=dtype)
        out[at] = np.concatenate(parts)
        return out

    feature, threshold, value, n_samples, impurity = zip(*levels)
    return _NodeTable(column(feature, np.intp), column(threshold, np.float64),
                      column(left, np.intp), column(right, np.intp), column(value, np.float64),
                      column(n_samples, np.intp), column(impurity, np.float64),
                      np.zeros(1, dtype=np.intp))


def _sort_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank): order[f] is the rows sorted by column f, rank[f, r] row r's place in it."""
    # stable: every CPU breaks ties by row index; intp: fit_tree's flat indices cannot overflow
    order = np.argsort(X.T, axis=1, kind="stable")
    rank = np.empty(order.shape, dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(len(X), dtype=np.int32), axis=1)
    return order, rank


def fit_forest(X: np.ndarray, y: np.ndarray, params: EnsembleParams, seed: int,
               feature_names: Sequence[str] | None = None, jobs: int = 1) -> TreeEnsemble:
    """Random forest: trees on bootstrap resamples, prediction = tree mean.

    Every tree grows from one sort of X. jobs > 1 grows them in that many forked processes;
    each draws from its own substream, so the forest is the same for every jobs value.
    """
    X, y = _check_xy(X, y)
    if params.kind is not ModelKind.RANDOM_FOREST:
        params = replace(params, kind=ModelKind.RANDOM_FOREST)
    columns = _sort_columns(X)

    def grow(i: int) -> _NodeTable:
        rng = substream(seed, "tree", i)
        rows = rng.integers(0, len(y), size=len(y)) if params.bootstrap else None
        return fit_tree(X, y, params, rng, _columns=columns, _rows=rows)

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
    columns = _sort_columns(X)   # every stage fits the same X
    trees = []
    stage_mse = []
    for i in range(params.n_estimators):
        rng = substream(seed, "stage", i)
        tree = fit_tree(X, residual, params, rng, _columns=columns)
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
