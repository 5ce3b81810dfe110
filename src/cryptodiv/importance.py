"""Feature-importance evaluators: Pearson correlation, impurity-based
importance (MDI), permutation importance (PFI), and Shapley values.

Shapley attributions use the interventional value function: v(S) is the
mean model output over background rows with the features in S pinned to the
explained instance. An exact enumerator covers small feature counts and
doubles as the oracle for the permutation-sampling estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._parallel import fork_map
from .models import TreeEnsemble, mse
from .seeding import substream


class ConstantColumnError(ValueError):
    """Pearson correlation is undefined for a constant column."""


@dataclass
class ImportanceReport:
    method: str
    scores: dict[str, float]
    metadata: dict = field(default_factory=dict)

    @property
    def ranking(self) -> list[str]:
        """Features by descending score; ties by ascending name."""
        return sorted(self.scores, key=lambda f: (-self.scores[f], f))

    def to_csv(self) -> str:
        lines = ["feature,score,rank,method"]
        for rank, feature in enumerate(self.ranking, start=1):
            lines.append(f"{feature},{self.scores[feature]!r},{rank},{self.method}")
        return "\n".join(lines) + "\n"


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError(f"pearson needs equal-length 1-D arrays of >= 2, got {x.shape} vs {y.shape}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise ConstantColumnError("correlation undefined for a constant column")
    r = float(xc @ yc) / (sx * sy)
    return max(-1.0, min(1.0, r))


def pearson_abs(x: np.ndarray, y: np.ndarray) -> float:
    """|r|, treating constant columns as 0 for pipeline use."""
    try:
        return abs(pearson(x, y))
    except ConstantColumnError:
        return 0.0


def pearson_report(features: Mapping[str, np.ndarray], target: np.ndarray) -> ImportanceReport:
    scores = {name: pearson_abs(col, target) for name, col in features.items()}
    return ImportanceReport("pearson", scores, {"absolute": True})


# ---------------------------------------------------------------------------
# MDI
# ---------------------------------------------------------------------------

def mdi(model: TreeEnsemble) -> ImportanceReport:
    """Impurity-decrease importance from the retained node statistics.

    Each split credits its feature with (node samples / root samples) times
    the impurity decrease; credits are summed per tree, averaged over the
    ensemble, and normalized to sum 1.
    """
    nodes, n_trees = model.nodes, model.n_trees
    if not n_trees:
        raise ValueError("model has no fitted trees")
    p = model.n_features
    split = np.flatnonzero(nodes.feature >= 0)
    left, right = nodes.left[split], nodes.right[split]
    n_node, n_left, n_right = nodes.n_samples[split], nodes.n_samples[left], nodes.n_samples[right]
    if np.any(n_left + n_right != n_node):
        raise ValueError("model is missing per-node statistics")
    tree = np.searchsorted(nodes.roots, split, side="right") - 1
    weighted_child = (n_left * nodes.impurity[left] + n_right * nodes.impurity[right]) / n_node
    credit = (n_node / nodes.n_samples[nodes.roots[tree]]) * (nodes.impurity[split] - weighted_child)
    # bins are (tree, feature) pairs, each summed in node order
    credits = np.bincount(tree * p + nodes.feature[split], weights=credit,
                          minlength=n_trees * p).reshape(n_trees, p)
    total = np.zeros(p)
    for tree_credit in credits:
        total += tree_credit
    total /= n_trees
    s = total.sum()
    if s > 0:
        total = total / s
    names = _names(model, p)
    return ImportanceReport("mdi", {n: float(v) for n, v in zip(names, total)},
                            {"kind": model.kind.value, "n_trees": n_trees})


# ---------------------------------------------------------------------------
# PFI
# ---------------------------------------------------------------------------

def pfi(model: TreeEnsemble, X: np.ndarray, y: np.ndarray, repeats: int = 5,
        seed: int = 0, feature_names: Sequence[str] | None = None,
        jobs: int = 1) -> ImportanceReport:
    """Mean MSE increase when one column at a time is randomly permuted.

    Each (feature, repeat) permutation comes from its own substream keyed by
    the feature name, so scores do not depend on column order. jobs > 1
    scores one contiguous chunk of features in each of that many forked
    processes, with the same result.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features or len(y) != len(X):
        raise ValueError(f"X/y shapes {X.shape}/{y.shape} do not match model with "
                         f"{model.n_features} features")
    names = list(feature_names) if feature_names is not None else list(_names(model, X.shape[1]))
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length does not match X columns")
    n = len(y)
    # Permuting column j only moves a (row, tree) pair whose baseline path
    # splits on j, so only those pairs are re-routed and every other pair
    # keeps its cached output. A feature no tree reads scores exactly 0
    # without any routing at all.
    nodes = model.nodes
    per_tree = model.per_tree_predictions(X)
    total = per_tree.sum(axis=0)
    baseline = mse(y, model.combine_tree_total(total))
    base_leaves = nodes.leaves(X, np.broadcast_to(nodes.roots, (n, model.n_trees))).T
    trees_by_feature: dict[int, list[int]] = {}
    for t, feats in enumerate(model.tree_feature_sets()):
        for f in feats:
            trees_by_feature.setdefault(int(f), []).append(t)

    def score(X_work: np.ndarray, j: int) -> float:
        affected = trees_by_feature.get(j, [])
        if not affected:
            return 0.0
        outputs = per_tree[affected]
        unaffected_total = total - outputs.sum(axis=0)
        tree, row = np.nonzero(nodes.path_reads(j)[base_leaves[affected]])
        start = nodes.roots[affected][tree]
        deltas = []
        for r in range(repeats):
            perm = substream(seed, "pfi", names[j], r).permutation(n)
            X_work[:, j] = X[perm, j]
            outputs[tree, row] = nodes.value[nodes.leaves(X_work, start, row)]
            # sum() adds the affected trees' rows in order, as one
            # predict_tree call per tree would
            new_total = unaffected_total + sum(outputs)
            deltas.append(mse(y, model.combine_tree_total(new_total)) - baseline)
        X_work[:, j] = X[:, j]
        return float(np.mean(deltas))

    def score_chunk(columns: np.ndarray) -> list[float]:
        X_work = X.copy()   # one working copy per chunk, restored after each feature
        return [score(X_work, int(j)) for j in columns]

    chunks = np.array_split(np.arange(len(names)), max(1, min(jobs, len(names))))
    chunk_scores = fork_map(score_chunk, chunks, jobs)
    scores = dict(zip(names, (s for chunk in chunk_scores for s in chunk)))
    return ImportanceReport("pfi", scores, {"repeats": repeats, "seed": seed,
                                            "baseline_mse": baseline})


# ---------------------------------------------------------------------------
# Shapley values
# ---------------------------------------------------------------------------

EXACT_MAX_FEATURES = 12
# shapley_sampled evaluates the coalitions of this many bytes' worth of
# explained rows at a time
_BATCH_BYTES = 50_000_000


@dataclass
class ShapleyResult:
    feature_names: tuple[str, ...]
    attributions: np.ndarray        # (n_explained, n_features)
    base_value: float               # v(empty set): mean background prediction
    report: ImportanceReport        # global mean |attribution| per feature
    stderr: np.ndarray | None = None  # sampled estimator only


def shapley_exact(model, X_background: np.ndarray, X_explain: np.ndarray,
                  feature_names: Sequence[str] | None = None) -> ShapleyResult:
    """Exact Shapley attributions by full coalition enumeration (p <= 12)."""
    X_bg, X_ex, names = _check_shapley_inputs(model, X_background, X_explain, feature_names)
    p = X_bg.shape[1]
    if p > EXACT_MAX_FEATURES:
        raise ValueError(
            f"{p} features require 2^{p} coalitions; use shapley_sampled for p > {EXACT_MAX_FEATURES}")
    n_masks = 1 << p
    weights = _coalition_weights(p)
    bits = (np.arange(n_masks)[:, None] >> np.arange(p)[None, :]) & 1  # (masks, p)
    member = bits.astype(bool)
    sizes = member.sum(axis=1)

    nb = len(X_bg)
    attributions = np.zeros((len(X_ex), p))
    base_value = float(np.mean(model.predict(X_bg)))
    for i, x in enumerate(X_ex):
        batch = np.where(member[:, None, :], x[None, None, :], X_bg[None, :, :])
        values = model.predict(batch.reshape(n_masks * nb, p)).reshape(n_masks, nb).mean(axis=1)
        for j in range(p):
            bit = 1 << j
            without = np.flatnonzero((np.arange(n_masks) & bit) == 0)
            gains = values[without | bit] - values[without]
            attributions[i, j] = float(np.sum(weights[sizes[without]] * gains))
    report = _global_report(names, attributions, {"estimator": "exact",
                                                  "n_background": nb,
                                                  "n_explained": len(X_ex)})
    return ShapleyResult(tuple(names), attributions, base_value, report)


def shapley_sampled(model, X_background: np.ndarray, X_explain: np.ndarray,
                    n_permutations: int = 2000, seed: int = 0,
                    feature_names: Sequence[str] | None = None,
                    jobs: int = 1) -> ShapleyResult:
    """Permutation-sampling Shapley estimate with per-feature standard errors.

    Each sampled feature ordering contributes one marginal gain per feature;
    the estimate is their mean. The same orderings are shared by all
    explained rows. jobs > 1 evaluates the orderings in that many forked
    processes; their gains are still added up in ordering order, so the
    result is the same for every jobs value.
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    X_bg, X_ex, names = _check_shapley_inputs(model, X_background, X_explain, feature_names)
    p = X_bg.shape[1]
    nb = len(X_bg)
    n_ex = len(X_ex)
    rows_per_batch = (p + 1) * nb   # coalition rows per explained row

    if isinstance(model, TreeEnsemble):
        if p != model.n_features:
            raise ValueError(f"expected {model.n_features} feature columns, got shape {X_bg.shape}")
        nodes, n_trees = model.nodes, model.n_trees
        # a batch holds one leaf per (coalition row, tree)
        chunk = max(1, _BATCH_BYTES // (rows_per_batch * n_trees * 8))

        def predict_coalitions(ex: np.ndarray, order: np.ndarray) -> np.ndarray:
            position = np.empty(p, dtype=np.intp)
            position[order] = np.arange(p)
            leaves = nodes.coalition_leaves(ex, X_bg, position)
            # the leaves predict() would reach, summed and combined as it does
            total = nodes.value[leaves].reshape(-1, n_trees).sum(axis=1)
            return model.combine_tree_total(total)
    else:
        chunk = max(1, _BATCH_BYTES // (rows_per_batch * p * 8))

        def predict_coalitions(ex: np.ndarray, order: np.ndarray) -> np.ndarray:
            member = np.zeros((p + 1, p), dtype=bool)  # member[k] = first k features of order
            member[1:] = np.cumsum(np.eye(p, dtype=bool)[order], axis=0)
            batch = np.where(member[None, :, None, :], ex[:, None, None, :], X_bg[None, None, :, :])
            return model.predict(batch.reshape(len(ex) * rows_per_batch, p))

    def marginals(t: int) -> tuple[np.ndarray, np.ndarray]:
        """Ordering t, and each explained row's gain of order[k] at step k."""
        order = substream(seed, "perm", t).permutation(p)
        gains = np.empty((n_ex, p))
        for start in range(0, n_ex, chunk):
            ex = X_ex[start:start + chunk]
            values = predict_coalitions(ex, order).reshape(len(ex), p + 1, nb).mean(axis=2)
            gains[start:start + chunk] = np.diff(values, axis=1)
        return order, gains

    sums = np.zeros((n_ex, p))
    sq_sums = np.zeros((n_ex, p))
    for order, gains in fork_map(marginals, range(n_permutations), jobs):
        sums[:, order] += gains
        sq_sums[:, order] += gains * gains
    attributions = sums / n_permutations
    if n_permutations > 1:
        variance = (sq_sums - n_permutations * attributions ** 2) / (n_permutations - 1)
        stderr = np.sqrt(np.maximum(variance, 0.0) / n_permutations)
    else:
        stderr = np.full((n_ex, p), np.inf)
    base_value = float(np.mean(model.predict(X_bg)))
    report = _global_report(names, attributions, {"estimator": "permutation",
                                                  "n_permutations": n_permutations,
                                                  "seed": seed,
                                                  "n_background": nb,
                                                  "n_explained": n_ex})
    return ShapleyResult(tuple(names), attributions, base_value, report, stderr=stderr)


def _coalition_weights(p: int) -> np.ndarray:
    """weights[s] = s! (p - s - 1)! / p! for coalition size s."""
    fact = [math.factorial(i) for i in range(p + 1)]
    return np.array([fact[s] * fact[p - s - 1] / fact[p] for s in range(p)])


def _check_shapley_inputs(model, X_background, X_explain, feature_names):
    X_bg = np.atleast_2d(np.asarray(X_background, dtype=np.float64))
    X_ex = np.atleast_2d(np.asarray(X_explain, dtype=np.float64))
    if len(X_bg) == 0:
        raise ValueError("background set is empty")
    if X_bg.shape[1] != X_ex.shape[1]:
        raise ValueError(f"background has {X_bg.shape[1]} columns, explained rows {X_ex.shape[1]}")
    p = X_bg.shape[1]
    if feature_names is not None:
        names = list(feature_names)
        if len(names) != p:
            raise ValueError("feature_names length does not match columns")
    else:
        names = list(getattr(model, "feature_names", None) or (f"f{j}" for j in range(p)))
    return X_bg, X_ex, names


def _global_report(names: Sequence[str], attributions: np.ndarray, metadata: dict) -> ImportanceReport:
    scores = {n: float(np.mean(np.abs(attributions[:, j]))) for j, n in enumerate(names)}
    return ImportanceReport("shapley", scores, metadata)


def _names(model: TreeEnsemble, p: int) -> tuple[str, ...]:
    if model.feature_names is not None:
        return model.feature_names
    return tuple(f"f{j}" for j in range(p))
