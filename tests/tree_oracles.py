"""Reference tree grower: every node partitions all of the root's sorted columns.

This is the grower that `cryptodiv.models` replaced with growth from per-column
ranks. Each node carries an (n x p) matrix whose column f lists the node's rows
sorted by feature f; a split partitions every column, keeping each one's order.
The root's sort is stable, so tied values keep their rows in index order.
A bootstrap tree grows on its drawn rows copied out of X in index order, so a
row drawn k times is k adjacent rows. The tree tests require `models.fit_tree`,
`fit_forest` and `fit_gbt` to build the same node tables as this grower, bit
for bit.
"""

from __future__ import annotations

import numpy as np

from cryptodiv.models import (EnsembleParams, _best_split_sorted, _check_xy, _NodeTable,
                              _resolve_features_per_split)


def sort_columns(X: np.ndarray) -> np.ndarray:
    """Row indices sorting each column of X, as the root of a tree needs them."""
    return np.argsort(X, axis=0, kind="stable").astype(np.int32)


def grow(X: np.ndarray, y: np.ndarray, sorted_idx: np.ndarray, depth: int,
         params: EnsembleParams, rng: np.random.Generator, m: int, rows: list[list]) -> None:
    """Append one node, then its left and right subtrees, to `rows` (preorder).

    sorted_idx[:, f] lists the node's rows sorted by feature f. Children
    partition the parent's sorted columns instead of re-sorting.
    """
    n = sorted_idx.shape[0]
    y_node = y[sorted_idx[:, 0]]
    mean = float(y_node.mean())
    centered = y_node - mean
    sse = float(np.sum(centered * centered))
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
    grow(X, y, left_sorted, depth + 1, params, rng, m, rows)
    row[3] = len(rows)
    grow(X, y, right_sorted, depth + 1, params, rng, m, rows)


def fit_tree(X: np.ndarray, y: np.ndarray, params: EnsembleParams, rng: np.random.Generator,
             _columns=None, _rows: np.ndarray | None = None) -> _NodeTable:
    """One tree grown by partitioning, on the rows _rows lists if given.

    X and y are copied to hold those rows in index order, and the copy is
    sorted afresh; a sort shared between fits (_columns) is ignored.
    """
    X, y = _check_xy(X, y)
    if _rows is not None:
        X, y = X[np.sort(_rows)], y[np.sort(_rows)]
    m = _resolve_features_per_split(params.features_per_split, X.shape[1])
    rows: list[list] = []
    grow(X, y, sort_columns(X), 0, params, rng, m, rows)
    return _NodeTable.from_rows(rows)
