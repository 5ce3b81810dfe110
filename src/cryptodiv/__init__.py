"""Data-source diversity analysis for cryptocurrency market forecasting.

Pipeline pieces: a market-cap index over the top-N assets, multi-source
dataset construction, technical indicator generation, from-scratch tree
ensembles, four feature-importance evaluators, an iterative multi-method
feature-reduction algorithm, and the scenario experiments that quantify how
much diverse data sources improve forecast MSE.
"""

from .data import (Category, Dataset, DropRecord, ManifestError, MetricSeries, Scenario,
                   chronological_split, clean_corpus, dedupe, drop_degenerate,
                   interpolate_fill, load_corpus, make_target, slice_period)
from .experiments import (HorizonGroup, PipelineConfig, ScenarioResult, ShapleySettings,
                          StageError, contribution_factors, group_horizons, improvement,
                          run_scenario, top_k, unique_top_k)
from .fra import FinalVector, FraConfig, ReducedFeatureSet, bottom_half, final_vector, fra_reduce
from .importance import (ConstantColumnError, ImportanceReport, ShapleyResult, mdi,
                         pearson, pfi, shapley_exact, shapley_sampled)
from .index import (CalibrationResult, IndexDomainError, IndexParams, McapSnapshot,
                    calibrate_power, crypto100, select_top_n)
from .indicators import bollinger, ema, rsi, sma
from .models import (CVResult, EnsembleParams, ModelKind, TreeEnsemble, fit_forest, fit_gbt,
                     fit_tree, grid_search_cv, mse)

__version__ = "0.1.0"
