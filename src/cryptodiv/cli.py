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
import math
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Callable

from . import data, experiments, fra, index, indicators, reports
from ._parallel import WorkerDied, fork_map
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
    if key not in fra_doc:
        return None
    where = f"fra.{key}"
    return _build(EnsembleParams, _section(fra_doc, key, _PARAM_KEYS, where), where, kind=kind)


def _checked(where: str, fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs), with a bad value reported as a ConfigError naming `where`."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:   # TypeError: a JSON value of the wrong type
        raise ConfigError(f"bad value for {where}: {exc}") from exc


def _periods(values) -> tuple[date, ...]:
    """ISO period starts. Scenario labels carry only the year, so no two may share one."""
    periods = tuple(date.fromisoformat(p) for p in values)
    seen: dict[int, date] = {}
    for p in periods:
        if p.year in seen:
            raise ValueError(f"periods {seen[p.year]} and {p} fall in the same year, "
                             f"so their scenario labels collide ({p.year}_<window>)")
        seen[p.year] = p
    return periods


def _windows(value, allow_empty: bool = False) -> tuple[int, ...]:
    """A list of integer windows, each at least 1; true/false are not integers here."""
    if not isinstance(value, list) or not all(type(v) is int and v >= 1 for v in value):
        raise ValueError(f"expected a list of integers >= 1, got {value!r}")
    if not value and not allow_empty:
        raise ValueError("expected a list of integers >= 1, got [], which leaves no scenario cells")
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

    periods = _checked("'periods' at config root", _periods,
                       doc.get("periods", ["2017-01-01", "2019-01-01"]))
    windows = _checked("'windows' at config root", _windows,
                       doc.get("windows", [1, 7, 30, 90, 180]))

    given = {}
    if "indicator_sources" in doc:
        sources = doc["indicator_sources"]
        if not isinstance(sources, list) or not all(isinstance(v, str) for v in sources):
            raise ConfigError(f"bad value for 'indicator_sources' at config root: "
                              f"expected a list of strings, got {sources!r}")
        given["indicator_sources"] = tuple(sources)
    if "indicator_windows" in doc:
        # an empty list means no indicators
        given["indicator_windows"] = _checked("'indicator_windows' at config root", _windows,
                                              doc["indicator_windows"], True)
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
                  periods=periods, windows=windows, pipeline=pipeline,
                  index_input=index_input, index_params=index_params)


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
        # a window that is not a plain integer stays a string, which _windows rejects
        return _windows([int(w) if w.isdigit() else w for w in value.split(",")])
    return value


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
    pipeline = cfg.pipeline
    # a source that cleaning drops is skipped later, and drop_log.csv says why
    unknown = sorted(set(pipeline.indicator_sources) - set(corpus))
    if unknown:
        raise ConfigError(f"indicator_sources names metric(s) {unknown} that are neither in the "
                          f"manifest nor the index target")
    cleaned, drop_log, imputed = data.clean_corpus(
        corpus, flat_run_max=cfg.flat_run_max, missing_ratio_max=cfg.missing_ratio_max)
    cleaned = indicators.augment_corpus(cleaned, pipeline.indicator_sources,
                                        pipeline.indicator_windows)
    return cleaned, drop_log, imputed, index_rows


def _cell_train(cfg: RunConfig, args: argparse.Namespace) -> tuple[Scenario, data.Dataset]:
    """The cell that --period and --window name, and its train block."""
    scenario = Scenario(_checked("--period", date.fromisoformat, args.period), args.window)
    corpus, _, _, _ = _prepare_corpus(cfg)
    train, _ = experiments.cell_blocks(corpus, scenario, cfg.pipeline)
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
    snapshots = index.load_mcap_csv(args.mcaps)
    if args.calibrate:
        reference = _load_single_series_csv(Path(args.reference))
        sums = {snap.date: index.top_n_cap(snap, params.top_n) for snap in snapshots}
        candidates = {} if args.candidates is None else {"candidate_powers": _checked(
            "--candidates", lambda: tuple(int(c) for c in args.candidates.split(",")))}
        result = index.calibrate_power(sums, reference, **candidates)
        params = replace(params, power=result.power)
        if args.fit_out:
            reports.atomic_write_text(args.fit_out, index.render_calibration_csv(result))
        print(f"calibrated power: {result.power}")
    rows = index.index_series(snapshots, params)
    reports.atomic_write_text(args.out, index.render_index_csv(rows, params.power))
    print(f"wrote {len(rows)} index rows to {args.out}")
    return 0


def _load_single_series_csv(path: Path) -> dict[date, float]:
    """Read a `date,<value>` CSV of finite values, one per date, into a date -> value map."""
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
                day, value = date.fromisoformat(cells[0]), float(cells[1])
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{lineno}: bad row {line!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {cells[1]!r}")
            if day in out:
                raise ValueError(f"{path}:{lineno}: repeated date {day}")
            out[day] = value
    return out


# What `run` owns in its output directory, as globs under it. A run deletes
# each owned file that it does not write, and a subdirectory that this
# leaves empty, so nothing of an earlier run is mixed with its own, and it
# leaves every other file alone.
_RUN_OWNED = ("scenarios/*.json", "tables/*.csv", "drop_log.csv", "imputation_log.csv",
              "index.csv")


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

    files = {f"scenarios/{result.label}.json": experiments.result_to_json(result)
             for result in results}
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


def cmd_fra(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    scenario, train = _cell_train(cfg, args)
    result = experiments.cell_fra(train, scenario, cfg.pipeline)
    # --out names the directory itself
    out_dir = cfg.output_dir if args.output_dir is not None else cfg.output_dir / "fra"
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
    scenario, train = _cell_train(cfg, args)
    report = experiments.cell_importance(train, scenario, cfg.pipeline, args.method, cfg.jobs)
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
    for path in sorted(scenario_dir.glob("*.json")):
        try:
            results.append(experiments.result_from_json(path.read_text()))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # a KeyError's text is the bare key
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            print(f"error: {path}: not a stored scenario result: {detail}", file=sys.stderr)
            return 1
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
        p.add_argument("--periods")
        p.add_argument("--windows")
        p.add_argument("--target-features", type=int, dest="target_count")
        p.add_argument("--corr-start", type=float)
        p.add_argument("--corr-step", type=float)
        p.add_argument("--top-k", type=int, dest="top_k_union")
        p.add_argument("--power", type=int)
        p.add_argument("--holdout", type=float, dest="holdout_fraction")

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
    except (ConfigError, data.ManifestError, index.IndexDomainError, WorkerDied,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
