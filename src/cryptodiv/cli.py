"""Command-line entry points.

Subcommands:
  index       build the market-cap index CSV, optionally calibrating the power
  run         execute every (period, window) scenario cell and write all artifacts
  importance  compute one importance report for one cell
  report      re-render the aggregate tables from stored scenario results

All randomness flows from the single config seed; flags override config
file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Callable

from . import data, experiments, index, indicators, reports
from ._parallel import WorkerDied, fork_map
from ._syntax import parse_day
from .data import Category, Scenario
from .experiments import PipelineConfig, ShapleySettings, StageError
from .fra import FraConfig
from .models import EnsembleParams, ModelKind


class ConfigError(ValueError):
    """A run-config document is malformed; the message names the bad key."""


@dataclass
class RunConfig:
    manifest: Path
    output_dir: Path
    periods: tuple[date, ...] = (date(2017, 1, 1), date(2019, 1, 1))
    windows: tuple[int, ...] = (1, 7, 30, 90, 180)
    flat_run_max: int = data.FLAT_RUN_MAX
    missing_ratio_max: float = data.MISSING_RATIO_MAX
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    index_input: Path | None = None       # optional mcaps CSV to build the target index
    index_params: index.IndexParams = field(default_factory=index.IndexParams)
    jobs: int = 1

    def __post_init__(self):
        data.check_thresholds(self.flat_run_max, self.missing_ratio_max)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


_PARAM_KEYS = {"n_estimators", "max_depth", "min_samples_split",
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
    """fra.rf or fra.gbt: a forest has no learning rate, and boosting never bootstraps."""
    if key not in fra_doc:
        return None
    where = f"fra.{key}"
    forest = kind is ModelKind.RANDOM_FOREST
    allowed = _PARAM_KEYS - {"learning_rate"} if forest else _PARAM_KEYS
    section = _section(fra_doc, key, allowed, where)
    if not forest and section.get("bootstrap", False) is not False:
        raise ConfigError(f"bad value for 'bootstrap' at {where}: expected false, "
                          f"got {section['bootstrap']!r}")
    return _build(EnsembleParams, {"bootstrap": forest, **section}, where, kind=kind)


def _checked(where: str, fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs), with a bad value reported as a ConfigError naming `where`."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:   # TypeError: a JSON value of the wrong type
        raise ConfigError(f"bad value for {where}: {exc}") from exc


def _periods(values) -> tuple[date, ...]:
    """YYYY-MM-DD period starts. Scenario labels carry only the year, so no two may share one."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list of YYYY-MM-DD dates, got {values!r}")
    if not values:
        raise ValueError("expected a list of YYYY-MM-DD dates, got [], which leaves no scenario cells")
    periods = tuple(parse_day(p) for p in values)
    seen: dict[int, date] = {}
    for p in periods:
        if p.year in seen:
            raise ValueError(f"periods {seen[p.year]} and {p} fall in the same year, "
                             f"so their scenario labels collide ({p.year}_<window>)")
        seen[p.year] = p
    return periods


def _positive_ints(value, allow_empty: bool = False) -> tuple[int, ...]:
    """A list of distinct integers, each at least 1; true/false are not integers here."""
    if not isinstance(value, list) or not all(type(v) is int and v >= 1 for v in value):
        raise ValueError(f"expected a list of integers >= 1, got {value!r}")
    if not value and not allow_empty:
        raise ValueError("expected a list of integers >= 1, got [], which leaves no scenario cells")
    if len(set(value)) < len(value):
        raise ValueError(f"expected no repeated value, got {value!r}")
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
        # an empty path would mean the config's own directory
        if not isinstance(doc[key], str) or not doc[key]:
            raise ConfigError(f"bad value for {key!r} at config root: expected a non-empty "
                              f"string, got {doc[key]!r}")

    base = path.parent
    fra_doc = _section(doc, "fra", _FRA_KEYS, "fra")
    fra_config = _build(FraConfig, fra_doc, "fra",
                        rf_params=_parse_params(fra_doc, "rf", ModelKind.RANDOM_FOREST),
                        gbt_params=_parse_params(fra_doc, "gbt", ModelKind.GRADIENT_BOOST))
    shapley = _build(ShapleySettings, _section(doc, "shapley", _SHAP_KEYS, "shapley"), "shapley")

    cells = {key: _checked(f"'{key}' at config root", parse, doc[key])
             for key, parse in (("periods", _periods), ("windows", _positive_ints)) if key in doc}

    given = {}
    if "indicator_sources" in doc:
        sources = doc["indicator_sources"]
        if not isinstance(sources, list) or not all(isinstance(v, str) for v in sources):
            raise ConfigError(f"bad value for 'indicator_sources' at config root: "
                              f"expected a list of strings, got {sources!r}")
        given["indicator_sources"] = tuple(sources)
    if "indicator_windows" in doc:
        # an empty list means no indicators
        given["indicator_windows"] = _checked("'indicator_windows' at config root",
                                              _positive_ints, doc["indicator_windows"], True)
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
                  pipeline=pipeline, index_input=index_input, index_params=index_params,
                  **cells)


# The flags that override a config field, by the object that holds the field:
# dest -> flag. Each flag's dest is its field's name, and a flag applies when
# it is given, that is, when its value is not None.
_RUN_FLAGS = {"output_dir": "--out", "periods": "--periods", "windows": "--windows",
              "jobs": "--jobs"}
_PIPELINE_FLAGS = {"seed": "--seed", "holdout_fraction": "--holdout"}
_FRA_FLAGS = {"target_count": "--target-features", "corr_start": "--corr-start",
              "corr_step": "--corr-step", "top_k_union": "--top-k"}
_INDEX_FLAGS = {"power": "--power"}


def _flag_value(dest: str, value):
    """The field value that a flag's parsed argument stands for."""
    if dest == "output_dir":
        if not value:
            raise ValueError("expected a path, got ''")
        return Path(value)
    if dest == "periods":
        return _periods(value.split(","))
    if dest == "windows":
        return _int_list(value)
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """A flag's comma-separated integers of at least 1, in ASCII digits (`int` reads `٧`, `1_0`)."""
    return _positive_ints([int(v) if v.isascii() and v.isdigit() else v for v in text.split(",")])


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    def override(obj, flags: dict[str, str]):
        # a subcommand may not declare every flag
        given = {dest: flag for dest, flag in flags.items()
                 if getattr(args, dest, None) is not None}
        values = {dest: _checked(flag, _flag_value, dest, getattr(args, dest))
                  for dest, flag in given.items()}
        # one replace, as the object's checks may relate two of its fields
        return _checked(", ".join(given.values()), replace, obj, **values)

    fra_cfg = override(cfg.pipeline.fra, _FRA_FLAGS)
    pipeline = override(replace(cfg.pipeline, fra=fra_cfg), _PIPELINE_FLAGS)
    index_params = override(cfg.index_params, _INDEX_FLAGS)
    if args.power is not None and cfg.index_input is None:
        raise ConfigError("--power given, but the config has no 'index' section")
    return override(replace(cfg, pipeline=pipeline, index_params=index_params), _RUN_FLAGS)


# ---------------------------------------------------------------------------
# corpus preparation shared by run / importance
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
        days = [d.isoformat() for d, _, _ in index_rows]   # numpy reads ISO text faster than dates
        corpus[name] = data.MetricSeries(name, Category.MARKET, days, [v for _, _, v in index_rows])
    pipeline = cfg.pipeline
    # a source that cleaning drops is skipped later, and drop_log.csv says why
    unknown = sorted(set(pipeline.indicator_sources) - set(corpus))
    if unknown:
        raise ConfigError(f"indicator_sources names metric(s) {unknown} that are neither in the "
                          f"manifest nor the index target")
    cleaned, drop_log, imputed = data.clean_corpus(corpus, cfg.flat_run_max, cfg.missing_ratio_max)
    cleaned = indicators.augment_corpus(cleaned, pipeline.indicator_sources,
                                        pipeline.indicator_windows)
    return cleaned, drop_log, imputed, index_rows


def _cell_train(cfg: RunConfig, args: argparse.Namespace) -> tuple[Scenario, data.Dataset]:
    """The cell that --period and --window name, and its train block."""
    scenario = _checked("--window", Scenario, _checked("--period", parse_day, args.period),
                        args.window)
    corpus, _, _, _ = _prepare_corpus(cfg)
    train, _ = experiments.run_stage(scenario.label, "prepare", experiments.cell_blocks, corpus,
                                     scenario, cfg.pipeline)
    return scenario, train


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_index(args: argparse.Namespace) -> int:
    power = {} if args.power is None else {"power": args.power}
    params = _checked("--top-n, --power", index.IndexParams, top_n=args.top_n, **power)
    # each flag that applies only to one mode is rejected in the other
    if args.calibrate and args.power is not None:
        raise ConfigError("--power given with --calibrate, which chooses the power")
    calibration = [flag for flag, value in (("--reference", args.reference),
                                            ("--candidates", args.candidates),
                                            ("--fit-out", args.fit_out)) if value is not None]
    if calibration and not args.calibrate:
        raise ConfigError(f"{', '.join(calibration)} given without --calibrate")
    if args.calibrate and not args.reference:
        raise ConfigError("--calibrate requires --reference")
    candidates = {} if args.candidates is None else {
        "candidate_powers": _checked("--candidates", _int_list, args.candidates)}
    snapshots = index.load_mcap_csv(args.mcaps)
    if args.calibrate:
        reference = index.load_reference_csv(args.reference)
        sums = {snap.date: index.top_n_cap(snap, params.top_n) for snap in snapshots}
        result = index.calibrate_power(sums, reference, **candidates)
        params = replace(params, power=result.power)
        if args.fit_out:
            reports.atomic_write_text(args.fit_out, index.render_calibration_csv(result))
        print(f"calibrated power: {result.power}")
    rows = index.index_series(snapshots, params)
    reports.atomic_write_text(args.out, index.render_index_csv(rows, params.power))
    print(f"wrote {len(rows)} index rows to {args.out}")
    return 0


# What `run` owns in its output directory, as globs under it. A run deletes
# each owned file that it does not write, and a subdirectory that this
# leaves empty, so nothing of an earlier run is mixed with its own, and it
# leaves every other file alone.
_RUN_OWNED = ("scenarios/*.json", "fra/*_audit.json", "tables/*.csv", "drop_log.csv",
              "imputation_log.csv", "index.csv")


def _write_run_files(out: Path, files: dict[str, str]) -> None:
    """Write `files` (path under out -> text) and delete every other run-owned file."""
    for pattern in _RUN_OWNED:
        for path in sorted(out.glob(pattern)):
            if path.relative_to(out).as_posix() not in files:
                path.unlink()
                if path.parent != out and not any(path.parent.iterdir()):
                    path.parent.rmdir()
    for name, text in files.items():
        reports.atomic_write_text(out / name, text)


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

    files = {}
    for result in results:
        files[f"scenarios/{result.label}.json"] = experiments.result_to_json(result)
        files[f"fra/{result.label}_audit.json"] = result.fra_audit
    if not failures:
        # after a failure `cryptodiv report` renders the tables from the stored cells
        tables = reports.render_tables(results)
        files.update((f"tables/{name}", text) for name, text in tables.items())
    files["drop_log.csv"] = reports.render_drop_log_csv(drop_log)
    if imputed:
        lines = ["metric,forward_filled_days"]
        lines += [f"{m},{n}" for m, n in sorted(imputed.items())]
        files["imputation_log.csv"] = "\n".join(lines) + "\n"
    if index_rows is not None:
        files["index.csv"] = index.render_index_csv(index_rows, cfg.index_params.power)
    _write_run_files(cfg.output_dir, files)
    for exc in failures:
        print(f"error: {exc}", file=sys.stderr)
    if failures:
        return 1
    print(f"completed {len(results)} scenario(s); artifacts in {cfg.output_dir}")
    return 0


def cmd_importance(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    scenario, train = _cell_train(cfg, args)
    report = experiments.run_stage(scenario.label, args.method, experiments.cell_importance, train,
                                   scenario, cfg.pipeline, args.method, cfg.jobs)
    # --out names the report file itself
    out = (cfg.output_dir if args.output_dir is not None
           else cfg.output_dir / "importance" / f"{scenario.label}_{args.method}.csv")
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
    paths = {}   # cell label -> the file that holds it
    for path in sorted(scenario_dir.glob("*.json")):
        try:
            result = experiments.result_from_json(path.read_text())
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # a KeyError's text is the bare key
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            print(f"error: {path}: not a stored scenario result: {detail}", file=sys.stderr)
            return 1
        if result.label in paths:
            print(f"error: {paths[result.label]} and {path} both hold scenario {result.label}",
                  file=sys.stderr)
            return 1
        if path.stem != result.label:
            print(f"error: {path} holds scenario {result.label}, so it must be named "
                  f"{result.label}.json", file=sys.stderr)
            return 1
        paths[result.label] = path
        results.append(result)
    if not results:
        print(f"error: no stored scenario results in {scenario_dir}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else results_dir / "tables"
    tables = reports.render_tables(results)
    for name, text in tables.items():
        reports.atomic_write_text(out_dir / name, text)
    print(f"re-rendered {len(tables)} table(s) from {len(results)} scenario(s) into {out_dir}")
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
    p_index.add_argument("--power", type=int, help="index power (default 7)")
    p_index.add_argument("--top-n", type=int, default=100)
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--calibrate", action="store_true",
                         help="choose the power against a reference price series")
    p_index.add_argument("--reference", help="date,<price> CSV used by --calibrate")
    p_index.add_argument("--candidates", help="powers --calibrate tries (default 5,6,7,8,9)")
    p_index.add_argument("--fit-out", help="write the calibration fit table here")
    p_index.set_defaults(func=cmd_index)

    def add_common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="output_dir")
        p.add_argument("--power", type=int)
        p.add_argument("--holdout", type=float, dest="holdout_fraction")

    p_run = sub.add_parser("run", help="run every scenario cell and write artifacts")
    add_common(p_run)
    p_run.add_argument("--periods")
    p_run.add_argument("--windows")
    p_run.add_argument("--target-features", type=int, dest="target_count")
    p_run.add_argument("--corr-start", type=float)
    p_run.add_argument("--corr-step", type=float)
    p_run.add_argument("--top-k", type=int, dest="top_k_union")
    p_run.add_argument("--jobs", type=int, help="worker processes for the cells")
    p_run.set_defaults(func=cmd_run)

    p_imp = sub.add_parser("importance", help="one importance report for one cell")
    add_common(p_imp)
    p_imp.add_argument("--period", required=True)
    p_imp.add_argument("--window", required=True, type=int)
    p_imp.add_argument("--method", required=True, choices=experiments.IMPORTANCE_METHODS)
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
    except (ConfigError, data.ManifestError, index.IndexDomainError, StageError, WorkerDied,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
