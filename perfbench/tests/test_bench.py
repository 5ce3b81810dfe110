"""Self-checks of the benchmark: tracer coverage, trace neutrality, output checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q

The traced tests run each workload once untraced and once traced, on the
same generator with a much smaller corpus and ensemble.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_RF = {"n_estimators": 4, "max_depth": 4, "features_per_split": 1 / 3}

# The workload each traced function exists to measure (README, "Per-layer metrics").
EXERCISED = {
    "wide_ingest": ["index.load_mcap_csv", "index.index_series", "data.load_corpus",
                    "data.clean_corpus", "data.dedupe", "data.forward_fill",
                    "data.align_calendar", "data.drop_degenerate", "data.longest_flat_run",
                    "data.interpolate_fill"],
    "study": ["indicators.augment_corpus", "experiments.prepare_dataset", "data.slice_period",
              "data.make_target", "fra.fra_reduce", "fra.evaluate_methods", "models.fit_forest",
              "models.fit_gbt", "models.fit_tree", "importance.mdi", "importance.pfi",
              "importance.shapley_sampled", "experiments.improvement", "experiments.run_scenario",
              "reports.atomic_write_text"],
    "explain": ["importance.shapley_sampled", "importance.pfi", "models.fit_forest",
                "models.TreeEnsemble.predict", "models.TreeEnsemble.per_tree_predictions",
                "models.TreeEnsemble.predict_tree"],
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    shape = dataclasses.replace(w.shape, n_days=1000, columns=24, late_usdc=2,
                                mcap_assets=min(w.shape.mcap_assets, 30))
    return dataclasses.replace(w, shape=shape, periods=("2018-06-01",), windows=(7,),
                               fra={**w.fra, "rf": TINY_RF})


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """workload -> (bench, [untraced rep, traced rep])"""
    runs = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        workload = tiny(name)
        config = workloads.write_inputs(work / "inputs", workload, seed=3)
        bench = run.Bench(ROOT, work, workload, config)
        bench.setup(0)
        runs[name] = bench, [bench.rep(0, 1, traced=False), bench.rep(1, 1, traced=True)]
    return runs


def calls(rep: run.Rep, function: str) -> int:
    return sum(s["functions"][function]["calls"] for s in rep.summaries)


def test_every_per_layer_function_is_assigned_a_workload():
    named = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]
             if m["name"].split(".")[0] not in ("layer", "trace")}
    assert named <= {f for functions in EXERCISED.values() for f in functions}


def test_traced_artifacts_equal_untraced(traced_runs):
    for name, (bench, (plain, traced)) in traced_runs.items():
        assert bench.problems == [] and bench.failed == 0, name
        assert traced.summaries, name
        assert plain.tree_sha256 == traced.tree_sha256 == bench.reference, name


def test_each_workload_calls_the_functions_it_measures(traced_runs):
    for name, functions in EXERCISED.items():
        _, (_, traced) = traced_runs[name]
        missing = [f for f in functions if calls(traced, f) < 1]
        assert missing == [], name


def test_self_times_are_non_negative_and_metrics_complete(traced_runs):
    for name, (_, reps) in traced_runs.items():
        for summary in reps[1].summaries:
            assert all(s["self_s"] >= 0 for s in summary["functions"].values()), name
        metrics = run.per_layer(reps)
        assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics), name
        assert all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s")), name


def test_wrappers_replace_every_from_import_and_are_removed_after():
    import cryptodiv
    from cryptodiv import experiments, fra, models

    original = models.fit_forest
    with tracer.Tracer().installed() as t:
        assert models.fit_forest is not original
        assert experiments.fit_forest is fra.fit_forest is cryptodiv.fit_forest is models.fit_forest
        assert models.TreeEnsemble.predict.__wrapped__ is t.wrapped["models.TreeEnsemble.predict"]
        originals = {id(fn) for fn in t.wrapped.values()}
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cryptodiv":
                left = [a for a, v in vars(module).items() if id(v) in originals]
                assert left == [], module_name
    assert models.fit_forest is original and experiments.fit_forest is original


def test_report_check_flags_bad_ranks_and_scores(tmp_path):
    good = "feature,score,rank,method\nb,2.0,1,x\na,1.0,2,x\n"
    (tmp_path / "good.csv").write_text(good)
    assert run.check_report_csv(tmp_path / "good.csv", ["a", "b"]) == []
    (tmp_path / "bad.csv").write_text("feature,score,rank,method\nb,nan,1,x\na,1.0,3,x\n")
    assert len(run.check_report_csv(tmp_path / "bad.csv", ["a", "b"])) == 2
    assert run.check_report_csv(tmp_path / "good.csv", ["a", "b", "c"]) != []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
