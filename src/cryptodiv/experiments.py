"""Scenario orchestration: per-cell pipeline runs and the result analyses.

A scenario is one (period start, prediction window) cell. run_scenario
composes the full pipeline for one cell; the helpers below compute the
derived analyses: per-category contribution factors and the MSE
improvement of the diverse feature vector over single-category baselines.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ._parallel import WorkerDied
from ._syntax import parse_day
from .data import Category, Dataset, Scenario, chronological_split, make_target, slice_period
from .fra import (DEFAULT_RF_PARAMS, FinalVector, FraConfig, ReducedFeatureSet, audit_json,
                  final_vector, fit_round_forest, fra_reduce, rf_pfi)
from .importance import ImportanceReport, mdi, pearson_report, shapley_sampled
from .models import EnsembleParams, TreeEnsemble, fit_forest, mse
from .seeding import derive_seed, substream

IMPORTANCE_METHODS = ("pearson", "mdi", "pfi", "shapley")


class StageError(RuntimeError):
    """A pipeline stage failed; names the scenario and stage."""

    def __init__(self, scenario_label: str, stage: str, cause: Exception):
        super().__init__(f"scenario {scenario_label}, stage {stage}: {cause}")
        self.scenario_label = scenario_label
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # a failed cell travels back from its worker process pickled; the
        # default reduce would call __init__ with the message as the only argument
        return type(self), (self.scenario_label, self.stage, self.cause)


@dataclass(frozen=True)
class ShapleySettings:
    n_permutations: int = 50
    background_rows: int = 50
    explain_rows: int = 25

    def __post_init__(self):
        for name in ("n_permutations", "background_rows", "explain_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs besides the corpus and the cells.

    The indicator settings apply once, when the corpus is prepared; the rest
    configure run_scenario.
    """

    target_metric: str = "crypto100"
    indicator_sources: tuple[str, ...] = ("close-price", "market-cap", "volume")
    indicator_windows: tuple[int, ...] = (5, 10, 14, 20, 30, 100, 200)
    fra: FraConfig = field(default_factory=FraConfig)
    holdout_fraction: float = 0.2
    shapley: ShapleySettings = field(default_factory=ShapleySettings)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")


@dataclass
class ImprovementResult:
    mse_diverse: float
    mse_by_category: dict[Category, float]
    improvement_by_category: dict[Category, float]  # percent decrease
    mean_improvement: float


@dataclass
class ScenarioResult:
    scenario: Scenario
    final_features: list[str]
    feature_categories: dict[str, Category]
    candidate_counts: dict[Category, int]
    contribution_factors: dict[Category, float]
    rf_importance: dict[str, float]
    model_summary: dict
    improvement: ImprovementResult
    fra_iterations: int
    fra_forced_stop: bool
    shap_overlap: int
    # the audit_json text of the cell's reduction; `run` writes it beside the
    # stored result, which does not hold it
    fra_audit: str | None = None

    @property
    def label(self) -> str:
        return self.scenario.label

    @property
    def feature_count(self) -> int:
        return len(self.final_features)


def contribution_factors(final_features: Sequence[str],
                         categories: Mapping[str, Category],
                         candidate_counts: Mapping[Category, int]) -> dict[Category, float]:
    """Fraction of each category's candidates that made the final vector.

    Categories with zero candidates are omitted; a category with candidates
    but no survivors contributes 0.0.
    """
    survivors: dict[Category, int] = {}
    for f in final_features:
        if f not in categories:
            raise ValueError(f"final feature {f!r} has no category")
        cat = categories[f]
        survivors[cat] = survivors.get(cat, 0) + 1
    factors: dict[Category, float] = {}
    for cat in sorted(candidate_counts, key=lambda c: c.value):
        count = candidate_counts[cat]
        if count == 0:
            continue
        n_surviving = survivors.get(cat, 0)
        if n_surviving > count:
            raise ValueError(
                f"{cat.value}: {n_surviving} survivors exceed {count} candidates")
        factors[cat] = n_surviving / count
    return factors


def improvement(params: EnsembleParams, seed: int, train: Dataset, test: Dataset,
                final_features: Sequence[str],
                category_partitions: Mapping[Category, Sequence[str]]
                ) -> tuple[ImprovementResult, TreeEnsemble]:
    """MSE percentage decrease of the diverse vector over each category arm.

    Every arm is a forest fitted with `params` and `seed` on the sorted
    features of its subset of `train`, and scored on `test`; only the subset
    differs. The diverse arm's subset is the final vector, and its forest is
    returned with the result.
    improvement = (MSE_category - MSE_diverse) / MSE_diverse * 100.
    """
    def arm(features: Sequence[str]) -> tuple[TreeEnsemble, float]:
        feats = sorted(features)
        model = fit_forest(train.matrix(feats), train.target, params, seed, feature_names=feats)
        return model, mse(test.target, model.predict(test.matrix(feats)))

    diverse, mse_diverse = arm(final_features)
    if mse_diverse == 0.0:
        raise ValueError("diverse-arm MSE is exactly 0; target leaks into the features")
    mse_by_category: dict[Category, float] = {}
    improvement_by_category: dict[Category, float] = {}
    for cat in sorted(category_partitions, key=lambda c: c.value):
        features = category_partitions[cat]
        if not features:
            raise ValueError(f"category {cat.value} has an empty feature partition")
        _, m = arm(features)
        mse_by_category[cat] = m
        improvement_by_category[cat] = (m - mse_diverse) / mse_diverse * 100.0
    mean_improvement = float(np.mean(list(improvement_by_category.values())))
    return ImprovementResult(mse_diverse, mse_by_category, improvement_by_category,
                             mean_improvement), diverse


# ---------------------------------------------------------------------------
# the per-cell pipeline
# ---------------------------------------------------------------------------

def scenario_seed(config_seed: int, scenario: Scenario) -> int:
    return derive_seed(config_seed, "scenario", scenario.period_start.isoformat(),
                       scenario.window)


def prepare_dataset(corpus: Dataset, scenario: Scenario, config: PipelineConfig) -> Dataset:
    """Period slice and target attachment for one cell of the prepared corpus.

    The corpus already holds its indicators, computed over each source's
    full history, so their warm-up uses data from before the period start
    and never introduces missing rows inside the slice.
    """
    target = config.target_metric
    if target not in corpus.features:
        raise ValueError(f"target metric {target!r} not in corpus")
    dataset = slice_period(corpus, scenario)
    features = [n for n in dataset.feature_names if n != target]
    if not features:
        raise ValueError("no candidate features besides the target metric")
    # the slice runs to the end of the corpus, so it is the corpus's last rows
    price = corpus.features[target][corpus.n_rows - dataset.n_rows:]
    return make_target(dataset.select(features), price, scenario.window)


def cell_blocks(corpus: Dataset, scenario: Scenario,
                config: PipelineConfig) -> tuple[Dataset, Dataset]:
    """The chronological train and test blocks of one cell of the prepared corpus."""
    dataset = prepare_dataset(corpus, scenario, config)
    return chronological_split(dataset, config.holdout_fraction)


def _fra_seed(scenario: Scenario, config: PipelineConfig) -> int:
    return derive_seed(scenario_seed(config.seed, scenario), "fra")


def cell_importance(train: Dataset, scenario: Scenario, config: PipelineConfig,
                    method: str, jobs: int = 1) -> ImportanceReport:
    """One importance report over a cell's train block, from FRA's round-1 forest
    with the `fra.rf` parameters or DEFAULT_RF_PARAMS (never grid-searched ones)."""
    if method not in IMPORTANCE_METHODS:
        raise ValueError(f"unknown importance method {method!r}")
    if method == "pearson":
        return pearson_report(train.features, train.target)
    fra_seed = _fra_seed(scenario, config)
    X = train.matrix()
    model = fit_round_forest(X, train.target, train.feature_names,
                             config.fra.rf_params or DEFAULT_RF_PARAMS, fra_seed, 1, jobs=jobs)
    if method == "mdi":
        return mdi(model)
    if method == "shapley":
        return _shapley_ranking(model, train, config.shapley, scenario_seed(config.seed, scenario),
                                jobs=jobs)
    return rf_pfi(model, X, train.target, config.fra.pfi_repeats, fra_seed, 1, jobs=jobs)


def run_stage(label: str, name: str, fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs), with a failure raised as a StageError naming cell `label` and stage `name`.

    A StageError, or a WorkerDied, which is no fault of the stage, passes unwrapped.
    """
    try:
        return fn(*args, **kwargs)
    except (StageError, WorkerDied):
        raise
    except Exception as exc:
        raise StageError(label, name, exc) from exc


def run_scenario(corpus: Dataset, scenario: Scenario, config: PipelineConfig) -> ScenarioResult:
    """Execute the full pipeline for one cell of the prepared corpus."""
    seed = scenario_seed(config.seed, scenario)
    stage = partial(run_stage, scenario.label)
    train, test = stage("prepare", cell_blocks, corpus, scenario, config)
    fra_result: ReducedFeatureSet = stage("fra", fra_reduce, train, config.fra,
                                          _fra_seed(scenario, config))

    shap_report = stage("shapley", _shapley_ranking, fra_result.full_forest, train,
                        config.shapley, seed)
    fv: FinalVector = stage("final_vector", final_vector, fra_result, shap_report,
                            config.fra.top_k_union)

    partitions: dict[Category, list[str]] = {}
    for f, cat in train.categories.items():
        partitions.setdefault(cat, []).append(f)
    candidate_counts = {cat: len(features) for cat, features in partitions.items()}
    factors = stage("contribution", contribution_factors, fv.features,
                    train.categories, candidate_counts)
    # the final forest is the diverse improvement arm, and rf_importance is its MDI
    improvement_result, rf_final = stage("improvement", improvement, fra_result.rf_params,
                                         derive_seed(seed, "improvement"), train, test,
                                         fv.features, partitions)
    rf_importance = stage("importance", mdi, rf_final).scores

    return ScenarioResult(
        scenario=scenario,
        final_features=fv.features,
        feature_categories={f: train.categories[f] for f in fv.features},
        candidate_counts=candidate_counts,
        contribution_factors=factors,
        rf_importance=rf_importance,
        model_summary={
            "rf": _params_summary(fra_result.rf_params),
            "gbt": _params_summary(fra_result.gbt_params),
            "final_rf_trees": rf_final.n_trees,
            "final_rf_max_depth": rf_final.nodes.max_depth(),
        },
        improvement=improvement_result,
        fra_iterations=len(fra_result.iterations),
        fra_forced_stop=fra_result.forced_stop,
        shap_overlap=fv.shap_overlap,
        fra_audit=audit_json(fra_result),
    )


def _shapley_ranking(model: TreeEnsemble, train: Dataset, settings: ShapleySettings,
                     seed: int, jobs: int = 1) -> ImportanceReport:
    X = train.matrix(list(model.feature_names))
    bg_rows = _subsample_rows(len(X), settings.background_rows,
                              substream(seed, "shap", "background"))
    ex_rows = _subsample_rows(len(X), settings.explain_rows,
                              substream(seed, "shap", "explain"))
    result = shapley_sampled(model, X[bg_rows], X[ex_rows],
                             n_permutations=settings.n_permutations,
                             seed=derive_seed(seed, "shap", "perms"), jobs=jobs)
    return result.report


def _subsample_rows(n: int, limit: int, rng: np.random.Generator) -> np.ndarray:
    if n <= limit:
        return np.arange(n)
    return np.sort(rng.choice(n, size=limit, replace=False))


def _params_summary(params: EnsembleParams) -> dict:
    return {**asdict(params), "kind": params.kind.value}


# ---------------------------------------------------------------------------
# serialization for stored results
# ---------------------------------------------------------------------------

def result_to_json(result: ScenarioResult) -> str:
    doc = {
        "scenario": {
            "period_start": result.scenario.period_start.isoformat(),
            "window": result.scenario.window,
            "label": result.label,
        },
        "feature_count": result.feature_count,
        "final_features": result.final_features,
        "feature_categories": {f: c.value for f, c in result.feature_categories.items()},
        "candidate_counts": {c.value: n for c, n in result.candidate_counts.items()},
        "contribution_factors": {c.value: v for c, v in result.contribution_factors.items()},
        "rf_importance": result.rf_importance,
        "model_summary": result.model_summary,
        "improvement": {
            "mse_diverse": result.improvement.mse_diverse,
            "mse_by_category": {c.value: v for c, v in result.improvement.mse_by_category.items()},
            "improvement_by_category": {c.value: v for c, v in
                                        result.improvement.improvement_by_category.items()},
            "mean_improvement": result.improvement.mean_improvement,
        },
        "fra": {
            "iterations": result.fra_iterations,
            "forced_stop": result.fra_forced_stop,
        },
        "shap_overlap": result.shap_overlap,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def result_from_json(text: str) -> ScenarioResult:
    doc = json.loads(text)
    try:
        start = parse_day(doc["scenario"]["period_start"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"scenario.period_start: {exc}") from exc
    window = doc["scenario"]["window"]
    if type(window) is not int or window < 1:   # true/false are not windows
        raise ValueError(f"scenario.window: expected an integer >= 1, got {window!r}")
    scenario = Scenario(start, window)
    by_category = doc["improvement"]["improvement_by_category"]
    improvement_result = ImprovementResult(
        mse_diverse=doc["improvement"]["mse_diverse"],
        mse_by_category={Category(c): v for c, v in doc["improvement"]["mse_by_category"].items()},
        improvement_by_category={
            Category(c): _number(v, f"improvement.improvement_by_category.{c}")
            for c, v in by_category.items()},
        mean_improvement=_number(doc["improvement"]["mean_improvement"],
                                 "improvement.mean_improvement"),
    )
    return ScenarioResult(
        scenario=scenario,
        final_features=list(doc["final_features"]),
        feature_categories={f: Category(c) for f, c in doc["feature_categories"].items()},
        candidate_counts={Category(c): n for c, n in doc["candidate_counts"].items()},
        contribution_factors={Category(c): _number(v, f"contribution_factors.{c}")
                              for c, v in doc["contribution_factors"].items()},
        rf_importance={f: _number(v, f"rf_importance.{f}")
                       for f, v in doc["rf_importance"].items()},
        model_summary=doc["model_summary"],
        improvement=improvement_result,
        fra_iterations=doc["fra"]["iterations"],
        fra_forced_stop=doc["fra"]["forced_stop"],
        shap_overlap=doc["shap_overlap"],
    )


def _number(value, where: str):
    """A stored value that a table prints: a JSON number, which true/false are not."""
    if type(value) not in (int, float):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    return value
