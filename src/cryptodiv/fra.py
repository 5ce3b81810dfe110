"""Iterative multi-method feature elimination and the final-vector union.

Each round fits a random forest and a gradient-boosted model on the
surviving features, ranks them four ways (impurity importance and
permutation importance for both models), and removes every feature that
sits in the bottom half of all four rankings while correlating with the
target below a threshold that rises each round. A forced-progress rule
guarantees termination once the correlation clause has become vacuous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .importance import ImportanceReport, mdi, pearson_report, pfi
from .models import (EnsembleParams, ModelKind, TreeEnsemble, default_gbt_grid,
                     default_rf_grid, fit_forest, fit_gbt, grid_search_cv)
from .seeding import derive_seed

METHODS = ("rf_mdi", "gbt_mdi", "rf_pfi", "gbt_pfi")

DEFAULT_RF_PARAMS = EnsembleParams(
    kind=ModelKind.RANDOM_FOREST, n_estimators=100, max_depth=8, features_per_split=1 / 3)
DEFAULT_GBT_PARAMS = EnsembleParams(
    kind=ModelKind.GRADIENT_BOOST, n_estimators=100, max_depth=4, learning_rate=0.1,
    bootstrap=False)


@dataclass(frozen=True)
class FraConfig:
    target_count: int = 100
    corr_start: float = 0.5
    corr_step: float = 0.025
    top_k_union: int = 75
    rf_params: EnsembleParams | None = None   # None -> defaults, or tuned when tune_first
    gbt_params: EnsembleParams | None = None
    tune_first: bool = False
    cv_folds: int = 5
    pfi_repeats: int = 3
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.target_count < 1:
            raise ValueError(f"target_count must be >= 1, got {self.target_count}")
        if not 0.0 <= self.corr_start <= 1.0:
            raise ValueError(f"corr_start must be in [0, 1], got {self.corr_start}")
        if self.corr_step <= 0.0:
            raise ValueError(f"corr_step must be > 0, got {self.corr_step}")
        if not 1 <= self.top_k_union <= self.target_count:
            raise ValueError(
                f"top_k_union must be in [1, target_count], got {self.top_k_union}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.pfi_repeats < 1:
            raise ValueError(f"pfi_repeats must be >= 1, got {self.pfi_repeats}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tune_first and (self.rf_params or self.gbt_params):
            raise ValueError("tune_first chooses rf_params and gbt_params by grid search; "
                             "omit them (fra.rf, fra.gbt)")


@dataclass
class IterationRecord:
    iteration: int
    corr_threshold: float
    rankings: dict[str, list[str]]  # method -> features, best first
    removed: list[str]
    forced: bool


@dataclass
class ReducedFeatureSet:
    survivors: list[str]            # by ascending mean rank at the last round evaluated
    original: list[str]
    iterations: list[IterationRecord]
    forced_stop: bool               # max_iterations hit before reaching target_count
    rf_params: EnsembleParams
    gbt_params: EnsembleParams
    full_forest: TreeEnsemble       # round 1's forest on every feature

    @property
    def removed(self) -> list[str]:
        return [f for rec in self.iterations for f in rec.removed]


def bottom_half(report: ImportanceReport) -> set[str]:
    """The floor(p/2) lowest-ranked features of a report."""
    if not report.scores:
        raise ValueError("empty importance report")
    ranking = report.ranking
    half = len(ranking) // 2
    return set(ranking[len(ranking) - half:])


def _mean_ranks(features: Sequence[str], reports: dict[str, ImportanceReport]) -> dict[str, float]:
    ranks = {f: 0.0 for f in features}
    for report in reports.values():
        for position, f in enumerate(report.ranking, start=1):
            ranks[f] += position
    return {f: total / len(reports) for f, total in ranks.items()}


def _resolve_params(dataset: Dataset, features: list[str], config: FraConfig
                    ) -> tuple[EnsembleParams, EnsembleParams]:
    if config.tune_first:
        X = dataset.matrix(features)
        y = dataset.target
        rf_cv = grid_search_cv(X, y, default_rf_grid(), k=config.cv_folds,
                               seed=derive_seed(config.seed, "fra", "tune", "rf"))
        gbt_cv = grid_search_cv(X, y, default_gbt_grid(), k=config.cv_folds,
                                seed=derive_seed(config.seed, "fra", "tune", "gbt"))
        return rf_cv.best_params, gbt_cv.best_params
    return (config.rf_params or DEFAULT_RF_PARAMS,
            config.gbt_params or DEFAULT_GBT_PARAMS)


def evaluate_methods(dataset: Dataset, features: list[str], rf_params: EnsembleParams,
                     gbt_params: EnsembleParams, pfi_repeats: int, seed: int,
                     round_key: int = 0) -> tuple[dict[str, ImportanceReport], TreeEnsemble]:
    """Fit both models on the given features; the four rankings and the forest."""
    X = dataset.matrix(features)
    y = dataset.target
    rf = fit_round_forest(X, y, features, rf_params, seed, round_key)
    gbt = fit_gbt(X, y, gbt_params, derive_seed(seed, "fra", "gbt", round_key),
                  feature_names=features)
    return {
        "rf_mdi": mdi(rf),
        "gbt_mdi": mdi(gbt),
        "rf_pfi": rf_pfi(rf, X, y, pfi_repeats, seed, round_key),
        "gbt_pfi": pfi(gbt, X, y, repeats=pfi_repeats,
                       seed=derive_seed(seed, "fra", "gbt_pfi", round_key),
                       feature_names=features),
    }, rf


def fit_round_forest(X: np.ndarray, y: np.ndarray, features: Sequence[str],
                     rf_params: EnsembleParams, seed: int, round_key: int,
                     jobs: int = 1) -> TreeEnsemble:
    """A round's random forest on the round's matrix of `features`, from the round's seed."""
    return fit_forest(X, y, rf_params, derive_seed(seed, "fra", "rf", round_key),
                      feature_names=features, jobs=jobs)


def rf_pfi(rf: TreeEnsemble, X: np.ndarray, y: np.ndarray, pfi_repeats: int, seed: int,
           round_key: int, jobs: int = 1) -> ImportanceReport:
    """A round's random-forest PFI: its forest permuted under the round's key."""
    return pfi(rf, X, y, repeats=pfi_repeats, seed=derive_seed(seed, "fra", "rf_pfi", round_key),
               jobs=jobs)


def fra_reduce(dataset: Dataset, config: FraConfig) -> ReducedFeatureSet:
    """Run the elimination loop until at most target_count features remain.

    A feature is removed when it lies in the bottom half of all four
    rankings and its absolute correlation with the target is below the
    round's threshold. If a round removes nothing while the threshold has
    grown past 1.0 (making the correlation clause vacuous), the single
    feature with the worst mean rank is removed so the loop always
    progresses; hitting max_iterations stops the run with a flag. Round 1
    is evaluated whatever the candidate count, so the survivors are always
    ranked and round 1's forest is always fitted.
    """
    if dataset.target is None:
        raise ValueError("dataset has no target column; apply make_target first")
    original = list(dataset.feature_names)
    if not original:
        raise ValueError("dataset has no features")

    rf_params, gbt_params = _resolve_params(dataset, original, config)
    correlation = pearson_report(dataset.features, dataset.target).scores

    current = list(original)
    records: list[IterationRecord] = []
    threshold = config.corr_start
    reports, full_forest = evaluate_methods(dataset, current, rf_params, gbt_params,
                                            config.pfi_repeats, config.seed, round_key=1)

    while len(current) > config.target_count and len(records) < config.max_iterations:
        iteration = len(records) + 1
        if iteration > 1:
            reports, _ = evaluate_methods(dataset, current, rf_params, gbt_params,
                                          config.pfi_repeats, config.seed, round_key=iteration)
        in_all_bottoms = set.intersection(*(bottom_half(r) for r in reports.values()))
        removal = sorted(f for f in in_all_bottoms if correlation[f] < threshold)
        forced = False
        if not removal and threshold > 1.0:
            mean_rank = _mean_ranks(current, reports)
            removal = [max(current, key=lambda f: (mean_rank[f], f))]
            forced = True
        records.append(IterationRecord(
            iteration=iteration, corr_threshold=threshold,
            rankings={m: reports[m].ranking for m in METHODS},
            removed=removal, forced=forced))
        removed_set = set(removal)
        current = [f for f in current if f not in removed_set]
        threshold += config.corr_step

    forced_stop = len(current) > config.target_count
    mean_rank = _mean_ranks(list(reports["rf_mdi"].scores), reports)
    survivors = sorted(current, key=lambda f: (mean_rank[f], f))
    return ReducedFeatureSet(survivors=survivors, original=original, iterations=records,
                             forced_stop=forced_stop, rf_params=rf_params,
                             gbt_params=gbt_params, full_forest=full_forest)


@dataclass
class FinalVector:
    features: list[str]     # FRA top-k order first, then Shapley-only entries
    shap_overlap: int       # |top-100 Shapley  intersect  FRA survivors|


def final_vector(fra_result: ReducedFeatureSet, shap_report: ImportanceReport,
                 k: int) -> FinalVector:
    """Union of the top-k FRA and top-k Shapley features."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fra_top = fra_result.survivors[:k]
    shap_ranking = shap_report.ranking
    seen = set(fra_top)
    features = fra_top + [f for f in shap_ranking[:k] if f not in seen]
    overlap = len(set(shap_ranking[:100]) & set(fra_result.survivors))
    return FinalVector(features=features, shap_overlap=overlap)


def audit_json(result: ReducedFeatureSet) -> str:
    """Replayable audit trail of one reduction run."""
    doc = {
        "original_features": result.original,
        "survivors": result.survivors,
        "forced_stop": result.forced_stop,
        "iterations": [
            {
                "iteration": rec.iteration,
                "corr_threshold": rec.corr_threshold,
                "rankings": rec.rankings,
                "removed": rec.removed,
                "forced": rec.forced,
            }
            for rec in result.iterations
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
