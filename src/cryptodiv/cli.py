"""Command-line entry points.

Subcommands:
  index       build the market-cap index CSV, optionally calibrating the power
  run         execute every (period, window) scenario cell and write all artifacts
  fra         run the feature-reduction loop for one cell, writing the audit trail
  importance  compute one importance report for one cell
  report      re-render the aggregate tables from stored scenario results

All randomness flows from the single config seed; flags override config
file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

from . import data, experiments, fra, importance, index, indicators, models, reports
from ._parallel import WorkerDied, fork_map
from .data import Category, Scenario
from .experiments import PipelineConfig, ShapleySettings, StageError
from .fra import FraConfig
from .models import EnsembleParams, ModelKind
from .seeding import derive_seed


class ConfigError(ValueError):
    """A run-config document is malformed; the message names the bad key."""


@dataclass
class RunConfig:
    manifest: Path
    output_dir: Path
    seed: int = 0
    periods: tuple[date, ...] = (date(2017, 1, 1), date(2019, 1, 1))
    windows: tuple[int, ...] = (1, 7, 30, 90, 180)
    flat_run_max: int = 60
    missing_ratio_max: float = 0.20
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    index_input: Path | None = None       # optional mcaps CSV to build the target index
    index_params: index.IndexParams = field(default_factory=index.IndexParams)
    jobs: int = 1

    def __post_init__(self):
        # a lone observed value is a constant run of 1, so 1 would drop every column
        if self.flat_run_max < 2:
            raise ValueError(f"flat_run_max must be >= 2, got {self.flat_run_max}")
        if not 0.0 <= self.missing_ratio_max <= 1.0:
            raise ValueError(f"missing_ratio_max must be in [0, 1], got {self.missing_ratio_max}")


_PARAM_KEYS = {"kind", "n_estimators", "max_depth", "min_samples_split",
               "min_samples_leaf", "features_per_split", "learning_rate", "bootstrap"}
_FRA_KEYS = {"target_count", "corr_start", "corr_step", "top_k_union", "tune_first",
             "cv_folds", "pfi_repeats", "max_iterations", "rf", "gbt"}
_SHAP_KEYS = {"n_permutations", "background_rows", "explain_rows"}
_INDEX_KEYS = {"mcaps", "top_n", "power"}
_TOP_KEYS = {"manifest", "output_dir", "seed", "periods", "windows", "holdout_fraction",
             "target_metric", "indicator_sources", "indicator_windows", "flat_run_max",
             "missing_ratio_max", "fra", "shapley", "index"}


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} at {where}")


def _section(doc: dict, key: str, allowed: set[str], where: str) -> dict:
    """The object at doc[key], empty when absent, holding only `allowed` keys."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    _check_keys(section, allowed, where)
    return section


# JSON value accepted for each field annotation that a config key sets
_FIELD_KINDS = {"int": ("an integer", (int,)), "float": ("a number", (int, float)),
                "bool": ("true or false", (bool,)), "str": ("a string", (str,)),
                "float | int | None": ("a number or null", (int, float, type(None)))}


def _build(cls, doc: dict, where: str, **given):
    """cls(**given, **doc values of cls's other fields); a field absent from doc keeps its default.

    Each doc value must have the JSON type of its field, and the range
    checks of cls.__post_init__ report as a ConfigError naming `where`.
    """
    values = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given or f.name not in doc:
            continue
        value = doc[f.name]
        kind, types = _FIELD_KINDS[f.type]
        # bool is a subclass of int, so true/false pass as a number unless excluded
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ConfigError(f"bad value for {f.name!r} at {where}: expected {kind}, got {value!r}")
        values[f.name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"bad value at {where}: {exc}") from exc


def _parse_params(fra_doc: dict, key: str, kind: ModelKind) -> EnsembleParams | None:
    if key not in fra_doc:
        return None
    where = f"fra.{key}"
    return _build(EnsembleParams, _section(fra_doc, key, _PARAM_KEYS, where), where, kind=kind)


def _distinct_years(periods: tuple[date, ...], where: str) -> tuple[date, ...]:
    """Scenario labels carry only the period's year, so periods must not share one."""
    seen: dict[int, date] = {}
    for p in periods:
        if p.year in seen:
            raise ConfigError(f"{where}: periods {seen[p.year]} and {p} fall in the same year, "
                              f"so their scenario labels collide ({p.year}_<window>)")
        seen[p.year] = p
    return periods


def _windows(value, where: str, allow_empty: bool = False) -> tuple[int, ...]:
    """A list of integer windows, each at least 1; true/false are not integers here."""
    if not isinstance(value, list) or not all(type(v) is int and v >= 1 for v in value):
        raise ConfigError(f"bad value for {where}: expected a list of integers >= 1, got {value!r}")
    if not value and not allow_empty:
        raise ConfigError(f"bad value for {where}: expected a list of integers >= 1, got [], "
                          f"which leaves no scenario cells")
    return tuple(value)


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object: {path}")
    _check_keys(doc, _TOP_KEYS, "config root")
    for key in ("manifest", "output_dir"):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r} at config root")

    base = path.parent
    fra_doc = _section(doc, "fra", _FRA_KEYS, "fra")
    fra_config = _build(FraConfig, fra_doc, "fra",
                        rf_params=_parse_params(fra_doc, "rf", ModelKind.RANDOM_FOREST),
                        gbt_params=_parse_params(fra_doc, "gbt", ModelKind.GRADIENT_BOOST))
    shapley = _build(ShapleySettings, _section(doc, "shapley", _SHAP_KEYS, "shapley"), "shapley")

    try:
        periods = tuple(date.fromisoformat(p) for p in doc.get("periods", ["2017-01-01", "2019-01-01"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad periods: {exc}") from exc
    _distinct_years(periods, "periods")
    windows = _windows(doc.get("windows", [1, 7, 30, 90, 180]), "'windows' at config root")

    given = {}
    if "indicator_sources" in doc:
        sources = doc["indicator_sources"]
        if not isinstance(sources, list) or not all(isinstance(v, str) for v in sources):
            raise ConfigError(f"bad value for 'indicator_sources' at config root: "
                              f"expected a list of strings, got {sources!r}")
        given["indicator_sources"] = tuple(sources)
    if "indicator_windows" in doc:
        # an empty list means no indicators
        given["indicator_windows"] = _windows(doc["indicator_windows"],
                                              "'indicator_windows' at config root",
                                              allow_empty=True)
    pipeline = _build(PipelineConfig, doc, "config root", fra=fra_config, shapley=shapley, **given)

    index_input = None
    index_params = index.IndexParams()
    if "index" in doc:
        index_doc = _section(doc, "index", _INDEX_KEYS, "index")
        if not isinstance(index_doc.get("mcaps"), str):
            raise ConfigError(f"index section needs an 'mcaps' path, got {index_doc.get('mcaps')!r}")
        index_input = base / index_doc["mcaps"]
        index_params = _build(index.IndexParams, index_doc, "index")

    return _build(RunConfig, doc, "config root",
                  manifest=base / doc["manifest"], output_dir=base / doc["output_dir"],
                  seed=pipeline.seed, periods=periods, windows=windows, pipeline=pipeline,
                  index_input=index_input, index_params=index_params)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    pipeline = cfg.pipeline
    fra_cfg = pipeline.fra
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.output_dir = Path(args.out)
    if getattr(args, "periods", None):
        cfg.periods = _distinct_years(
            tuple(date.fromisoformat(p) for p in args.periods.split(",")), "--periods")
    if getattr(args, "windows", None):
        try:
            windows = [int(w) for w in args.windows.split(",")]
        except ValueError:
            windows = args.windows  # not a list of integers, so _windows rejects it
        cfg.windows = _windows(windows, "--windows")
    if getattr(args, "jobs", None) is not None:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg.jobs = args.jobs
    fra_changes = {}
    if getattr(args, "target_features", None) is not None:
        fra_changes["target_count"] = args.target_features
    if getattr(args, "corr_start", None) is not None:
        fra_changes["corr_start"] = args.corr_start
    if getattr(args, "corr_step", None) is not None:
        fra_changes["corr_step"] = args.corr_step
    if getattr(args, "top_k", None) is not None:
        fra_changes["top_k_union"] = args.top_k
    if fra_changes:
        fra_cfg = replace(fra_cfg, **fra_changes)
    holdout = getattr(args, "holdout", None)
    pipeline = replace(pipeline, fra=fra_cfg,
                       holdout_fraction=holdout if holdout is not None else pipeline.holdout_fraction,
                       seed=cfg.seed)
    if getattr(args, "power", None) is not None:
        cfg.index_params = replace(cfg.index_params, power=args.power)
    cfg.pipeline = pipeline
    return cfg


# ---------------------------------------------------------------------------
# corpus preparation shared by run / fra / importance
# ---------------------------------------------------------------------------

def _prepare_corpus(cfg: RunConfig):
    """Load, optionally inject the computed index series, clean, and add the indicators."""
    corpus = data.load_corpus(cfg.manifest)
    index_rows = None
    if cfg.index_input is not None:
        snapshots = index.load_mcap_csv(cfg.index_input)
        index_rows = index.index_series(snapshots, cfg.index_params)
        name = cfg.pipeline.target_metric
        if name in corpus:
            raise ConfigError(f"index target {name!r} already exists in the corpus")
        corpus[name] = data.MetricSeries(
            name, Category.MARKET,
            tuple(d for d, _, _ in index_rows),
            [v for _, _, v in index_rows],
        )
        corpus = {k: corpus[k] for k in sorted(corpus)}
    pipeline = cfg.pipeline
    # a source that cleaning drops is skipped later, and drop_log.csv says why
    unknown = sorted(set(pipeline.indicator_sources) - set(corpus))
    if unknown:
        raise ConfigError(f"indicator_sources names metric(s) {unknown} that are neither in the "
                          f"manifest nor the index target")
    cleaned, drop_log, imputed = data.clean_corpus(
        corpus, flat_run_max=cfg.flat_run_max, missing_ratio_max=cfg.missing_ratio_max)
    if pipeline.indicator_sources:
        battery = indicators.default_battery(pipeline.indicator_sources, pipeline.indicator_windows)
        cleaned = indicators.augment_corpus(cleaned, battery)
    return cleaned, drop_log, imputed, index_rows


def _scenario_dataset(cfg: RunConfig, scenario: Scenario):
    corpus, _, _, _ = _prepare_corpus(cfg)
    dataset = experiments.prepare_dataset(corpus, scenario, cfg.pipeline)
    train, test = data.chronological_split(dataset, cfg.pipeline.holdout_fraction)
    return train, test


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_index(args: argparse.Namespace) -> int:
    params = index.IndexParams(top_n=args.top_n, power=args.power)
    snapshots = index.load_mcap_csv(args.mcaps)
    if args.calibrate:
        if not args.reference:
            print("error: --calibrate requires --reference", file=sys.stderr)
            return 1
        reference = _load_single_series_csv(Path(args.reference))
        sums = {}
        for snap in snapshots:
            top = index.select_top_n(snap, params.top_n)
            sums[snap.date] = float(sum(snap.caps[s] for s in top))
        candidates = tuple(int(c) for c in args.candidates.split(","))
        result = index.calibrate_power(sums, reference, candidates)
        params = replace(params, power=result.power)
        if args.fit_out:
            reports.atomic_write_text(args.fit_out, index.render_calibration_csv(result))
        print(f"calibrated power: {result.power}")
    rows = index.index_series(snapshots, params)
    reports.atomic_write_text(args.out, index.render_index_csv(rows, params.power))
    print(f"wrote {len(rows)} index rows to {args.out}")
    return 0


def _load_single_series_csv(path: Path) -> dict[date, float]:
    """Read a `date,<value>` CSV into a date -> value map."""
    if not path.is_file():
        raise FileNotFoundError(f"reference file not found: {path}")
    out: dict[date, float] = {}
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("date,"):
            raise ValueError(f"{path}: expected a 'date,<metric>' header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                out[date.fromisoformat(cells[0])] = float(cells[1])
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{lineno}: bad row {line!r}") from None
    return out


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    corpus, drop_log, imputed, index_rows = _prepare_corpus(cfg)
    scenarios = [Scenario(p, w) for p in cfg.periods for w in cfg.windows]

    def run_cell(scenario: Scenario) -> experiments.ScenarioResult | StageError:
        """One cell's result, or the StageError it failed with."""
        try:
            return experiments.run_scenario(corpus, scenario, cfg.pipeline)
        except StageError as exc:
            return exc

    # the workers are forked after the corpus is prepared and share it
    outcomes = fork_map(run_cell, scenarios, cfg.jobs)
    results = [o for o in outcomes if not isinstance(o, StageError)]
    failures = [o for o in outcomes if isinstance(o, StageError)]

    out = cfg.output_dir
    finished = {f"{result.label}.json" for result in results}
    # an earlier run's cells would otherwise be rendered with this run's
    for path in sorted((out / "scenarios").glob("*.json")):
        if path.name not in finished:
            path.unlink()
    for result in results:
        reports.atomic_write_text(out / "scenarios" / f"{result.label}.json",
                                  experiments.result_to_json(result))
    if not failures:
        reports.write_tables(results, out / "tables")
    else:
        # after a failure `cryptodiv report` renders the tables from the stored cells
        shutil.rmtree(out / "tables", ignore_errors=True)
    reports.atomic_write_text(out / "drop_log.csv", reports.render_drop_log_csv(drop_log))
    if imputed:
        lines = ["metric,forward_filled_days"]
        lines += [f"{m},{n}" for m, n in sorted(imputed.items())]
        reports.atomic_write_text(out / "imputation_log.csv", "\n".join(lines) + "\n")
    else:
        (out / "imputation_log.csv").unlink(missing_ok=True)
    if index_rows is not None:
        reports.atomic_write_text(out / "index.csv",
                                  index.render_index_csv(index_rows, cfg.index_params.power))
    else:
        (out / "index.csv").unlink(missing_ok=True)
    for exc in failures:
        print(f"error: {exc}", file=sys.stderr)
    if failures:
        return 1
    print(f"completed {len(results)} scenario(s); artifacts in {out}")
    return 0


def cmd_fra(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    scenario = Scenario(date.fromisoformat(args.period), args.window)
    train, _ = _scenario_dataset(cfg, scenario)
    seed = experiments.scenario_seed(cfg.pipeline.seed, scenario)
    fra_config = replace(cfg.pipeline.fra, seed=derive_seed(seed, "fra"))
    result = fra.fra_reduce(train, fra_config)
    out_dir = Path(args.out) if args.out else cfg.output_dir / "fra"
    reports.atomic_write_text(out_dir / f"{scenario.label}_audit.json", fra.audit_json(result))
    lines = ["feature,rank"]
    lines += [f"{f},{i}" for i, f in enumerate(result.survivors, start=1)]
    reports.atomic_write_text(out_dir / f"{scenario.label}_survivors.csv", "\n".join(lines) + "\n")
    flag = " (forced stop)" if result.forced_stop else ""
    print(f"{scenario.label}: {len(result.original)} -> {len(result.survivors)} features "
          f"in {len(result.iterations)} iteration(s){flag}; audit in {out_dir}")
    return 0


def cmd_importance(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    scenario = Scenario(date.fromisoformat(args.period), args.window)
    train, _ = _scenario_dataset(cfg, scenario)
    seed = experiments.scenario_seed(cfg.pipeline.seed, scenario)
    features = list(train.feature_names)
    rf_params = cfg.pipeline.fra.rf_params or fra.DEFAULT_RF_PARAMS

    if args.method == "pearson":
        report = importance.pearson_report(train.features, train.target)
    elif args.method == "shapley":
        report = experiments._shapley_ranking(train, rf_params, cfg.pipeline.shapley, seed,
                                              jobs=cfg.jobs)
    else:
        X = train.matrix(features)
        model = models.fit_forest(X, train.target, rf_params,
                                  derive_seed(seed, "importance", "rf"),
                                  feature_names=features, jobs=cfg.jobs)
        if args.method == "mdi":
            report = importance.mdi(model)
        else:
            report = importance.pfi(model, X, train.target,
                                    repeats=cfg.pipeline.fra.pfi_repeats,
                                    seed=derive_seed(seed, "importance", "pfi"),
                                    feature_names=features, jobs=cfg.jobs)
    out = Path(args.out) if args.out else cfg.output_dir / "importance" / f"{scenario.label}_{args.method}.csv"
    reports.atomic_write_text(out, report.to_csv())
    print(f"wrote {args.method} report for {scenario.label} to {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    scenario_dir = results_dir / "scenarios"
    if not scenario_dir.is_dir():
        print(f"error: no scenarios directory under {results_dir}", file=sys.stderr)
        return 1
    results = []
    for path in sorted(scenario_dir.glob("*.json")):
        results.append(experiments.result_from_json(path.read_text()))
    if not results:
        print(f"error: no stored scenario results in {scenario_dir}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else results_dir / "tables"
    written = reports.write_tables(results, out_dir)
    print(f"re-rendered {len(written)} table(s) from {len(results)} scenario(s) into {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptodiv",
        description="Data-source diversity pipeline for cryptocurrency forecasting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="compute the market-cap index CSV")
    p_index.add_argument("--mcaps", required=True, help="long-format CSV date,asset,market_cap_usd")
    p_index.add_argument("--power", type=int, default=7)
    p_index.add_argument("--top-n", type=int, default=100)
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--calibrate", action="store_true",
                         help="choose the power against a reference price series")
    p_index.add_argument("--reference", help="date,<price> CSV used by --calibrate")
    p_index.add_argument("--candidates", default="5,6,7,8,9")
    p_index.add_argument("--fit-out", help="write the calibration fit table here")
    p_index.set_defaults(func=cmd_index)

    def add_common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--periods")
        p.add_argument("--windows")
        p.add_argument("--target-features", type=int, dest="target_features")
        p.add_argument("--corr-start", type=float, dest="corr_start")
        p.add_argument("--corr-step", type=float, dest="corr_step")
        p.add_argument("--top-k", type=int, dest="top_k")
        p.add_argument("--power", type=int)
        p.add_argument("--holdout", type=float)

    p_run = sub.add_parser("run", help="run every scenario cell and write artifacts")
    add_common(p_run)
    p_run.add_argument("--jobs", type=int, help="worker processes for the cells")
    p_run.set_defaults(func=cmd_run)

    p_fra = sub.add_parser("fra", help="run feature reduction for one cell")
    add_common(p_fra)
    p_fra.add_argument("--period", required=True, help="period start YYYY-MM-DD")
    p_fra.add_argument("--window", required=True, type=int)
    p_fra.set_defaults(func=cmd_fra)

    p_imp = sub.add_parser("importance", help="one importance report for one cell")
    add_common(p_imp)
    p_imp.add_argument("--period", required=True)
    p_imp.add_argument("--window", required=True, type=int)
    p_imp.add_argument("--method", required=True,
                       choices=["pearson", "mdi", "pfi", "shapley"])
    p_imp.add_argument("--jobs", type=int,
                       help="worker processes for the trees, permutations or feature chunks")
    p_imp.set_defaults(func=cmd_importance)

    p_rep = sub.add_parser("report", help="re-render tables from stored results")
    p_rep.add_argument("--results", required=True, help="output directory of a previous run")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, data.ManifestError, index.IndexDomainError, WorkerDied,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
