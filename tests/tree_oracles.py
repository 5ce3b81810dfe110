"""Reference tree grower: plain loops over each depth's nodes and candidates.

It reads the definition of a tree that `cryptodiv.models.fit_tree` grows,
one node and one candidate at a time:

- The root holds the tree's rows in index order; a row listed k times in
  `_rows` is there k times.
- A node is a leaf at max_depth, below min_samples_split or
  2 * min_samples_leaf rows, or when its targets are all equal.
- The k splittable nodes of one depth, in order, share one
  `rng.random((k, p))` draw when m < p. A node's candidates are the m
  columns with the smallest draws in its row, ties to the smaller column,
  in ascending order.
- In candidate slot j, each node lists its rows by (value, row) in its j-th
  candidate. One running sum of the targets, each centered on its node's
  mean, runs over all nodes of the depth in that slot; a node's left sum is
  the running sum minus its value before the node.
- A split maximizes (left sum)^2 * n / (n_l * n_r) at a value change with
  min_samples_leaf rows on each side; ties go to the earlier slot, then the
  smaller position. The children are the two sides in the winning order.
- The table lists each node, then its left subtree, then its right subtree.

The tree tests require `models.fit_tree`, `fit_forest` and `fit_gbt` to
build the same node tables as this grower, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cryptodiv.models import EnsembleParams, _check_xy, _NodeTable, _resolve_features_per_split


def node_sum(values: list[float]) -> float:
    """A node's sum as a depth-wide `np.add.reduceat` takes it, which is not np.sum's order."""
    return float(np.add.reduceat(np.array(values), [0])[0])


def best_split(level: list[dict], slots: int, X: list[list[float]], y: list[float],
               min_leaf: int) -> None:
    """Set each node's best (gain, slot, position, ordered rows, feature), or None."""
    for node in level:
        node["best"] = None
    for j in range(slots):
        running = 0.0
        for node in level:
            f = node["candidates"][j]
            rows = sorted(node["rows"], key=lambda r: (X[r][f], r))
            n, before = len(rows), running
            for i, r in enumerate(rows):
                running += y[r] - node["value"]
                n_l, n_r = i + 1, n - i - 1
                if n_l < min_leaf or n_r < min_leaf or not X[rows[i + 1]][f] > X[r][f]:
                    continue
                left = running - before
                gain = left * left * (n / (n_l * n_r))
                if node["best"] is None or gain > node["best"][0]:
                    node["best"] = (gain, j, i, rows, f)


def fit_tree(X: np.ndarray, y: np.ndarray, params: EnsembleParams, rng: np.random.Generator,
             _columns=None, _rows: np.ndarray | None = None) -> _NodeTable:
    """One tree on the rows _rows lists if given; a shared sort (_columns) is ignored."""
    X, y = _check_xy(X, y)
    n_rows, p = X.shape
    m = _resolve_features_per_split(params.features_per_split, p)
    xl, yl = X.tolist(), y.tolist()
    root = {"rows": list(range(n_rows)) if _rows is None else sorted(_rows.tolist())}
    level = [root]
    for depth in range(params.max_depth + 1):
        growing = []
        for node in level:
            ys = [yl[r] for r in node["rows"]]
            n = len(ys)
            node["n"], node["value"] = n, node_sum(ys) / n
            node["impurity"] = node_sum([(v - node["value"]) * (v - node["value"])
                                         for v in ys]) / n
            if (depth < params.max_depth and n >= params.min_samples_split
                    and n >= 2 * params.min_samples_leaf and max(ys) != min(ys)):
                growing.append(node)
        if not growing:
            break
        draws = rng.random((len(growing), p)).tolist() if m < p else [[0.0] * p] * len(growing)
        for node, draw in zip(growing, draws):
            node["candidates"] = sorted(sorted(range(p), key=lambda f: (draw[f], f))[:m])
        best_split(growing, m, xl, yl, params.min_samples_leaf)
        level = []
        for node in growing:
            if node["best"] is None or not 0.0 < node["best"][0] < float("inf"):
                continue
            _, _, i, rows, f = node["best"]
            node["split"] = (f, 0.5 * (xl[rows[i]][f] + xl[rows[i + 1]][f]))
            node["children"] = ({"rows": rows[:i + 1]}, {"rows": rows[i + 1:]})
            level.extend(node["children"])

    table: list[list] = []

    def emit(node: dict) -> None:
        """Append node, then its left and right subtrees (preorder)."""
        here = len(table)
        feature, threshold = node.get("split", (-1, 0.0))
        row = [feature, threshold, here, here, node["value"], node["n"], node["impurity"]]
        table.append(row)
        for link, child in zip((2, 3), node.get("children", ())):
            row[link] = len(table)
            emit(child)

    emit(root)
    columns = [np.array(c, dtype=t) for c, t in zip(
        zip(*table), (np.intp, np.float64, np.intp, np.intp, np.float64, np.intp, np.float64))]
    return _NodeTable(*columns, roots=np.zeros(1, dtype=np.intp))
