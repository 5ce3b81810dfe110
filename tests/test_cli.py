import json
import math
import os
import shutil
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from cryptodiv import experiments, fra, indicators, models
from cryptodiv.cli import ConfigError, load_run_config, main
from cryptodiv.experiments import StageError

from synthetic import write_corpus, write_run_config

SMALL_COUNTS = {"macro": 4, "technical": 3, "sentiment": 3, "trad_index": 3,
                "onchain_btc": 4, "onchain_usdc": 4}


def small_setup(tmp_path, seed=0):
    corpus_dir = tmp_path / "corpus"
    manifest = write_corpus(corpus_dir, seed=seed, n_days=420, start=date(2018, 1, 1),
                            counts=SMALL_COUNTS, late_start_count=2,
                            late_start=date(2018, 9, 1))
    out_dir = tmp_path / "out"
    config = write_run_config(
        tmp_path / "config.json", manifest, out_dir, seed=seed,
        periods=("2018-02-01", "2019-01-01"), windows=(1, 7),
        target_count=15, top_k=10,
        shapley={"n_permutations": 5, "background_rows": 10, "explain_rows": 4})
    return config, out_dir, corpus_dir


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# index command
# ---------------------------------------------------------------------------

def write_mcaps(path, days=40, assets=("BTC", "ETH", "XRP")):
    lines = ["date,asset,market_cap_usd"]
    start = date(2020, 1, 1)
    for i in range(days):
        d = (start + timedelta(days=i)).isoformat()
        for j, a in enumerate(assets):
            cap = (1 + j) * 1e9 + i * 1e7
            lines.append(f"{d},{a},{cap}")
    path.write_text("\n".join(lines) + "\n")


def test_index_command_matches_op_oracle(tmp_path, capsys):
    from cryptodiv.index import IndexParams, McapSnapshot, crypto100

    mcaps = tmp_path / "mcaps.csv"
    write_mcaps(mcaps, days=3)
    out = tmp_path / "index.csv"
    assert main(["index", "--mcaps", str(mcaps), "--power", "7", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "date,sum_mcap,index_value,power"
    assert len(rows) == 4
    start = date(2020, 1, 1)
    for i, line in enumerate(rows[1:]):
        day, total, value, power = line.split(",")
        assert day == (start + timedelta(days=i)).isoformat()
        assert power == "7"
        caps = {a: (1 + j) * 1e9 + i * 1e7 for j, a in enumerate(("BTC", "ETH", "XRP"))}
        oracle = crypto100(McapSnapshot(start + timedelta(days=i), caps), IndexParams(100, 7))
        assert float(value) == pytest.approx(oracle, rel=1e-12)
        assert float(total) == pytest.approx(sum(caps.values()), rel=1e-12)


def test_index_command_calibrates_planted_power(tmp_path, capsys):
    mcaps = tmp_path / "mcaps.csv"
    write_mcaps(mcaps, days=40)
    # reference generated at power 8 from the daily cap sums; the default power is 7
    start = date(2020, 1, 1)
    ref_lines = ["date,btc_price"]
    for i in range(40):
        total = sum((1 + j) * 1e9 + i * 1e7 for j in range(3))
        ref_lines.append(f"{(start + timedelta(days=i)).isoformat()},"
                         f"{total / math.log10(total) ** 8}")
    reference = tmp_path / "btc.csv"
    reference.write_text("\n".join(ref_lines) + "\n")

    out = tmp_path / "index.csv"
    fitms = tmp_path / "fit.csv"
    code = main(["index", "--mcaps", str(mcaps), "--out", str(out),
                 "--calibrate", "--reference", str(reference), "--fit-out", str(fitms)])
    assert code == 0
    assert "calibrated power: 8" in capsys.readouterr().out
    fit_rows = fitms.read_text().strip().splitlines()
    assert fit_rows[0] == "power,objective,chosen"
    chosen = [r for r in fit_rows[1:] if r.endswith(",1")]
    assert len(chosen) == 1 and chosen[0].startswith("8,")
    # index output re-uses the calibrated power
    assert out.read_text().splitlines()[1].endswith(",8")


def test_index_command_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["index", "--mcaps", str(missing), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("row, problem", [
    ("2020-01-05,nan", "non-finite value 'nan'"),
    ("2020-01-05,-inf", "non-finite value '-inf'"),
    ("2020-01-03,1000.0", "repeated date 2020-01-03"),
], ids=["nan", "inf", "repeated-date"])
def test_index_calibrate_rejects_bad_reference_row(tmp_path, capsys, row, problem):
    mcaps = tmp_path / "mcaps.csv"
    write_mcaps(mcaps, days=40)
    lines = ["date,btc_price"]
    lines += [f"{(date(2020, 1, 1) + timedelta(days=i)).isoformat()},{1000.0 + i}"
              for i in range(40)]
    lines.insert(6, row)   # file line 7
    reference = tmp_path / "btc.csv"
    reference.write_text("\n".join(lines) + "\n")
    out = tmp_path / "index.csv"
    assert main(["index", "--mcaps", str(mcaps), "--out", str(out), "--calibrate",
                 "--reference", str(reference)]) == 1
    assert capsys.readouterr().err == f"error: {reference}:7: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--top-n", "0"], "--top-n, --power: top_n must be >= 1, got 0"),
    (["--power", "0"], "--top-n, --power: power must be >= 1, got 0"),
    (["--calibrate", "--candidates", "5,x"], "--candidates: invalid literal for int()"),
], ids=["top-n", "power", "candidates"])
def test_index_bad_flag_value_names_the_flag(tmp_path, capsys, flags, named):
    mcaps = tmp_path / "mcaps.csv"
    write_mcaps(mcaps, days=40)
    reference = tmp_path / "btc.csv"
    reference.write_text("date,btc_price\n2020-01-01,1000.0\n")
    out = tmp_path / "index.csv"
    assert main(["index", "--mcaps", str(mcaps), "--out", str(out),
                 "--reference", str(reference), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad value for {named}")
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--reference", "missing.csv"], "--reference given without --calibrate"),
    (["--fit-out", "fit.csv"], "--fit-out given without --calibrate"),
    (["--candidates", "5,6"], "--candidates given without --calibrate"),
    (["--reference", "missing.csv", "--candidates", "5,6", "--fit-out", "fit.csv"],
     "--reference, --candidates, --fit-out given without --calibrate"),
    (["--calibrate", "--reference", "btc.csv", "--power", "5"],
     "--power given with --calibrate, which chooses the power"),
], ids=["reference", "fit-out", "candidates", "all-three", "calibrate-power"])
def test_index_flag_that_cannot_apply_is_rejected(tmp_path, monkeypatch, capsys, flags, named):
    monkeypatch.chdir(tmp_path)
    write_mcaps(tmp_path / "mcaps.csv", days=40)
    (tmp_path / "btc.csv").write_text("date,btc_price\n2020-01-01,1000.0\n")
    assert main(["index", "--mcaps", "mcaps.csv", "--out", "index.csv", *flags]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["btc.csv", "mcaps.csv"]


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------

def test_run_twice_byte_identical(tmp_path):
    config, out_dir, _ = small_setup(tmp_path)
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    a = tree_bytes(out_a)
    b = tree_bytes(out_b)
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)
    assert any(k.startswith("scenarios/") for k in a)
    assert "tables/feature_vectors.csv" in a
    assert "drop_log.csv" in a


def test_run_jobs_2_matches_jobs_1(tmp_path):
    config, _, _ = small_setup(tmp_path)
    serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
    assert main(["run", "--config", str(config), "--out", str(serial), "--jobs", "1"]) == 0
    assert main(["run", "--config", str(config), "--out", str(parallel), "--jobs", "2"]) == 0
    a, b = tree_bytes(serial), tree_bytes(parallel)
    assert len([k for k in a if k.startswith("scenarios/")]) == 4
    assert a == b


def test_run_augments_corpus_once(tmp_path, monkeypatch):
    calls = []
    original = indicators.augment_corpus

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # every cryptodiv module that bound the function by name calls the counter
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "cryptodiv"]:
        if getattr(module, "augment_corpus", None) is original:
            monkeypatch.setattr(module, "augment_corpus", counting)
    config, out_dir, _ = small_setup(tmp_path)
    assert main(["run", "--config", str(config), "--jobs", "2"]) == 0
    assert len(list((out_dir / "scenarios").glob("*.json"))) == 4
    assert len(calls) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_cells_run_in_worker_processes(tmp_path, monkeypatch, jobs):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    original = experiments.run_scenario

    def recording(corpus, scenario, config):
        (pid_dir / scenario.label).write_text(str(os.getpid()))
        return original(corpus, scenario, config)

    # the workers are forked after the patch, so they run it too
    monkeypatch.setattr(experiments, "run_scenario", recording)
    config, _, _ = small_setup(tmp_path)
    assert main(["run", "--config", str(config), "--jobs", str(jobs)]) == 0
    pids = {p.name: int(p.read_text()) for p in pid_dir.iterdir()}
    assert sorted(pids) == ["2018_1", "2018_7", "2019_1", "2019_7"]
    if jobs == 1:
        assert set(pids.values()) == {os.getpid()}
    else:
        assert os.getpid() not in pids.values() and len(set(pids.values())) <= 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_failed_cell_keeps_finished_cells(tmp_path, monkeypatch, capsys, jobs):
    config, _, _ = small_setup(tmp_path)
    complete, partial = tmp_path / "complete", tmp_path / "partial"
    assert main(["run", "--config", str(config), "--out", str(complete)]) == 0
    original = experiments.run_scenario

    def failing(corpus, scenario, config):
        if scenario.label == "2018_7":
            raise StageError(scenario.label, "fra", ValueError("planted failure"))
        return original(corpus, scenario, config)

    monkeypatch.setattr(experiments, "run_scenario", failing)
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(partial), "--jobs", jobs]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario 2018_7, stage fra: planted failure"]
    expected = {k: v for k, v in tree_bytes(complete).items()
                if k != "scenarios/2018_7.json" and not k.startswith("tables/")}
    # the corpus logs are written, the finished cells are kept byte for byte, and
    # tables/ is left for `cryptodiv report` to render from the stored cells
    assert {"drop_log.csv", "imputation_log.csv"} <= expected.keys()
    assert tree_bytes(partial) == expected


def test_failed_run_removes_an_earlier_runs_cells_and_tables(tmp_path, monkeypatch):
    config, _, _ = small_setup(tmp_path)
    shared, reference = tmp_path / "shared", tmp_path / "reference"
    assert main(["run", "--config", str(config), "--out", str(shared)]) == 0
    assert main(["run", "--config", str(config), "--out", str(reference), "--seed", "5"]) == 0
    original = experiments.run_scenario

    def failing(corpus, scenario, config):
        if scenario.label == "2018_7":
            raise StageError(scenario.label, "fra", ValueError("planted failure"))
        return original(corpus, scenario, config)

    monkeypatch.setattr(experiments, "run_scenario", failing)
    assert main(["run", "--config", str(config), "--out", str(shared), "--seed", "5"]) == 1
    # what a seed-5 run with the same failure leaves in an empty directory
    (reference / "scenarios" / "2018_7.json").unlink()
    shutil.rmtree(reference / "tables")
    assert tree_bytes(shared) == tree_bytes(reference)
    assert main(["report", "--results", str(shared)]) == 0
    assert main(["report", "--results", str(reference)]) == 0
    assert tree_bytes(shared) == tree_bytes(reference)


@pytest.mark.parametrize("failing, left", [({"2018_7"}, ["scenarios"]),
                                           ({"2018_1", "2018_7", "2019_1", "2019_7"}, [])],
                         ids=["one-cell", "every-cell"])
def test_failed_run_leaves_no_empty_owned_directory(tmp_path, monkeypatch, failing, left):
    config, out_dir, _ = small_setup(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == ["scenarios", "tables"]
    original = experiments.run_scenario

    def failing_cells(corpus, scenario, config):
        if scenario.label in failing:
            raise StageError(scenario.label, "fra", ValueError("planted failure"))
        return original(corpus, scenario, config)

    monkeypatch.setattr(experiments, "run_scenario", failing_cells)
    assert main(["run", "--config", str(config), "--seed", "5"]) == 1
    assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == left


def test_run_removes_an_earlier_runs_index_and_imputation_log(tmp_path):
    config, _, corpus_dir = small_setup(tmp_path)
    # the first run computes its target from market caps and forward-fills
    # the weekday-only traditional indices
    mcaps = tmp_path / "mcaps.csv"
    lines = ["date,asset,market_cap_usd"]
    for i in range(420):
        day = (date(2018, 1, 1) + timedelta(days=i)).isoformat()
        lines += [f"{day},{asset},{(1 + j) * 1e9 + i * (j + 1) * 1e7 + (i % 9) * 1e6}"
                  for j, asset in enumerate(("BTC", "ETH", "XRP"))]
    mcaps.write_text("\n".join(lines) + "\n")
    doc = json.loads(config.read_text())
    indexed = tmp_path / "indexed.json"
    indexed.write_text(json.dumps({**doc, "index": {"mcaps": str(mcaps)},
                                   "target_metric": "computed-index"}))
    # the second has no index section, and tags those indices as macro
    # series, which are not forward-filled
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    manifest["files"]["trad_index.csv"] = {m: "macro" for m in manifest["files"]["trad_index.csv"]}
    (corpus_dir / "untagged.json").write_text(json.dumps(manifest))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({**doc, "manifest": str(corpus_dir / "untagged.json")}))

    shared, reference = tmp_path / "shared", tmp_path / "reference"
    assert main(["run", "--config", str(indexed), "--out", str(shared)]) == 0
    assert (shared / "index.csv").is_file() and (shared / "imputation_log.csv").is_file()
    assert main(["run", "--config", str(plain), "--out", str(shared)]) == 0
    assert main(["run", "--config", str(plain), "--out", str(reference)]) == 0
    assert tree_bytes(shared) == tree_bytes(reference)


def test_run_worker_death_is_one_error_line(tmp_path, monkeypatch, capsys):
    original = experiments.run_scenario

    def dying(corpus, scenario, config):
        if scenario.label == "2018_7":
            os._exit(3)
        return original(corpus, scenario, config)

    monkeypatch.setattr(experiments, "run_scenario", dying)
    config, _, _ = small_setup(tmp_path)
    assert main(["run", "--config", str(config), "--jobs", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "worker" in err[0]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_jobs_below_one_rejected(tmp_path, capsys, jobs):
    config, out_dir, _ = small_setup(tmp_path)
    assert main(["run", "--config", str(config), "--jobs", jobs]) == 1
    assert f"bad value for --jobs: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_emits_expected_artifacts(tmp_path):
    config, out_dir, _ = small_setup(tmp_path, seed=1)
    assert main(["run", "--config", str(config)]) == 0
    scenario_files = sorted((out_dir / "scenarios").glob("*.json"))
    assert [p.name for p in scenario_files] == [
        "2018_1.json", "2018_7.json", "2019_1.json", "2019_7.json"]
    doc = json.loads(scenario_files[0].read_text())
    assert doc["feature_count"] == len(doc["final_features"])
    drop = (out_dir / "drop_log.csv").read_text().splitlines()
    assert drop[0] == "metric,reason,detail"
    reasons = {line.split(",")[0]: line.split(",")[1] for line in drop[1:]}
    assert reasons.get("sentiment_flat") == "flat_run"
    assert reasons.get("sentiment_gappy") == "missing_ratio"
    assert (out_dir / "imputation_log.csv").exists()  # weekday-only indices
    table = (out_dir / "tables" / "improvement_by_window.csv").read_text().splitlines()
    assert table[0] == "window,2018,2019"


def test_report_recomputes_without_corpus(tmp_path):
    config, out_dir, corpus_dir = small_setup(tmp_path, seed=2)
    assert main(["run", "--config", str(config)]) == 0
    tables_before = tree_bytes(out_dir / "tables")
    shutil.rmtree(corpus_dir)  # corpus gone; report must not need it
    shutil.rmtree(out_dir / "tables")
    assert main(["report", "--results", str(out_dir)]) == 0
    tables_after = tree_bytes(out_dir / "tables")
    assert tables_before == tables_after


def test_report_missing_results_dir(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path / "void")]) == 1
    assert "scenarios" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"scenario": {}}\n', "not json\n"],
                         ids=["missing-key", "invalid-json"])
def test_report_names_a_malformed_scenario_file(tmp_path, capsys, text):
    scenario_dir = tmp_path / "results" / "scenarios"
    scenario_dir.mkdir(parents=True)
    (scenario_dir / "2019_7.json").write_text(text)
    assert main(["report", "--results", str(tmp_path / "results")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(scenario_dir / "2019_7.json") in err[0]
    assert not (tmp_path / "results" / "tables").exists()


# ---------------------------------------------------------------------------
# fra / importance subcommands
# ---------------------------------------------------------------------------

def test_fra_command_audit_monotone(tmp_path, capsys):
    config, out_dir, _ = small_setup(tmp_path, seed=3)
    assert main(["fra", "--config", str(config), "--period", "2019-01-01",
                 "--window", "7", "--target-features", "8", "--top-k", "8"]) == 0
    audit = json.loads((out_dir / "fra" / "2019_7_audit.json").read_text())
    count = len(audit["original_features"])
    assert count > 8
    for rec in audit["iterations"]:
        next_count = count - len(rec["removed"])
        assert next_count <= count
        count = next_count
    assert count == len(audit["survivors"])
    survivors_csv = (out_dir / "fra" / "2019_7_survivors.csv").read_text().splitlines()
    assert survivors_csv[0] == "feature,rank"
    assert len(survivors_csv) - 1 == len(audit["survivors"])


def test_fra_command_rejects_jobs(tmp_path, capsys):
    config, _, _ = small_setup(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["fra", "--config", str(config), "--period", "2019-01-01", "--window", "7",
              "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


TINY_RF = {"n_estimators": 4, "max_depth": 3, "features_per_split": 1 / 3}


def tiny_importance_setup(tmp_path):
    """small_setup with a 4-tree forest and 4 Shapley permutations."""
    config, _, _ = small_setup(tmp_path, seed=4)
    doc = json.loads(config.read_text())
    doc["fra"]["rf"] = TINY_RF
    doc["shapley"] = {"n_permutations": 4, "background_rows": 5, "explain_rows": 2}
    config.write_text(json.dumps(doc))
    return config


def importance_args(config, method, out, jobs):
    return ["importance", "--config", str(config), "--period", "2019-01-01", "--window", "7",
            "--method", method, "--out", str(out), "--jobs", str(jobs)]


@pytest.mark.parametrize("method", ["mdi", "pfi", "shapley"])
def test_importance_jobs_2_writes_the_bytes_of_jobs_1(tmp_path, method):
    config = tiny_importance_setup(tmp_path)
    serial, parallel = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
    assert main(importance_args(config, method, serial, 1)) == 0
    assert main(importance_args(config, method, parallel, 2)) == 0
    assert parallel.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("method, inner", [("pfi", "path_reads"), ("shapley", "coalition_leaves")])
def test_importance_jobs_2_works_in_worker_processes(tmp_path, monkeypatch, method, inner):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def recording(name, fn):
        def record(*args, **kwargs):
            with open(pid_dir / str(os.getpid()), "a") as fh:
                fh.write(name + "\n")
            return fn(*args, **kwargs)
        return record

    # the workers are forked after the patches, so they run them too
    monkeypatch.setattr(models, "fit_tree", recording("fit_tree", models.fit_tree))
    # the node-table helper that re-routes the rows a permutation changes
    monkeypatch.setattr(models._NodeTable, inner,
                        recording(inner, getattr(models._NodeTable, inner)))
    config = tiny_importance_setup(tmp_path)
    assert main(importance_args(config, method, tmp_path / "report.csv", 2)) == 0
    calls = {int(p.name): set(p.read_text().split()) for p in pid_dir.iterdir()}
    tree_pids = {pid for pid, names in calls.items() if "fit_tree" in names}
    inner_pids = {pid for pid, names in calls.items() if inner in names} - {os.getpid()}
    # the forest's pool fits every tree; a second pool of workers does the
    # permutations, while the parent computes only the baseline or base value
    assert tree_pids and os.getpid() not in tree_pids and len(tree_pids) <= 2
    assert inner_pids and not inner_pids & tree_pids and len(inner_pids) <= 2


def test_importance_worker_death_is_one_error_line(tmp_path, monkeypatch, capsys):
    parent, original = os.getpid(), models.fit_tree

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return original(*args, **kwargs)

    monkeypatch.setattr(models, "fit_tree", dying)
    config = tiny_importance_setup(tmp_path)
    capsys.readouterr()
    assert main(importance_args(config, "mdi", tmp_path / "report.csv", 2)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a worker process died")
    assert not (tmp_path / "report.csv").exists()


def test_importance_command_writes_report(tmp_path):
    config, out_dir, _ = small_setup(tmp_path, seed=4)
    for method in ("pearson", "mdi", "pfi", "shapley"):
        assert main(["importance", "--config", str(config), "--period", "2019-01-01",
                     "--window", "7", "--method", method]) == 0
        path = out_dir / "importance" / f"2019_7_{method}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "feature,score,rank,method"
        assert len(lines) > 10
        assert all(line.endswith(f",{method}") for line in lines[1:])


def test_fra_command_writes_the_fra_result_of_run(tmp_path, monkeypatch):
    config, out_dir, _ = small_setup(tmp_path, seed=3)
    by_cell = {}
    original = experiments.fra_reduce

    def capturing(train, fra_config):
        result = original(train, fra_config)
        by_cell.setdefault((train.dates[0], train.window), result)
        return result

    monkeypatch.setattr(experiments, "fra_reduce", capturing)
    assert main(["run", "--config", str(config), "--jobs", "1"]) == 0
    assert len(by_cell) == 4
    assert main(["fra", "--config", str(config), "--period", "2019-01-01", "--window", "7"]) == 0
    audit = (out_dir / "fra" / "2019_7_audit.json").read_text()
    assert audit == fra.audit_json(by_cell[(date(2019, 1, 1), 7)])


def test_importance_shapley_writes_the_shapley_report_of_run(tmp_path, monkeypatch):
    config = tiny_importance_setup(tmp_path)
    reports = []
    original = experiments.shapley_sampled

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        reports.append(result.report)
        return result

    monkeypatch.setattr(experiments, "shapley_sampled", capturing)
    cell = ["--periods", "2019-01-01", "--windows", "7", "--jobs", "1"]
    assert main(["run", "--config", str(config), *cell]) == 0
    assert len(reports) == 1
    out = tmp_path / "shapley.csv"
    assert main(importance_args(config, "shapley", out, 1)) == 0
    assert out.read_text() == reports[0].to_csv()


def test_importance_shapley_writes_the_shapley_report_of_a_run_without_fra_rounds(
        tmp_path, monkeypatch):
    config = tiny_importance_setup(tmp_path)
    reports = []
    original = experiments.shapley_sampled

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        reports.append(result.report)
        return result

    monkeypatch.setattr(experiments, "shapley_sampled", capturing)
    # at least as many target features as candidates: FRA runs no round
    no_round = ["--target-features", "1000"]
    cell = ["--periods", "2019-01-01", "--windows", "7", "--jobs", "1"]
    assert main(["run", "--config", str(config), *cell, *no_round]) == 0
    stored = json.loads((tmp_path / "out" / "scenarios" / "2019_7.json").read_text())
    assert stored["fra"]["iterations"] == 0
    assert len(reports) == 1
    out = tmp_path / "shapley.csv"
    assert main([*importance_args(config, "shapley", out, 1), *no_round]) == 0
    assert out.read_text() == reports[0].to_csv()


def test_importance_mdi_writes_the_round_one_rf_mdi_of_run(tmp_path, monkeypatch):
    config = tiny_importance_setup(tmp_path)
    rounds = []
    original = fra.evaluate_methods

    def capturing(*args, **kwargs):
        reports, rf = original(*args, **kwargs)
        rounds.append(reports)
        return reports, rf

    monkeypatch.setattr(fra, "evaluate_methods", capturing)
    cell = ["--periods", "2019-01-01", "--windows", "7", "--jobs", "1"]
    assert main(["run", "--config", str(config), *cell]) == 0
    assert len(rounds) >= 1
    out = tmp_path / "mdi.csv"
    assert main(importance_args(config, "mdi", out, 1)) == 0
    assert out.read_text() == rounds[0]["rf_mdi"].to_csv()


def test_rerun_keeps_files_it_does_not_own(tmp_path):
    config, out_dir, _ = small_setup(tmp_path)
    cell = ["--periods", "2019-01-01", "--windows", "7", "--jobs", "1"]
    reference = tmp_path / "reference"
    assert main(["run", "--config", str(config), *cell, "--out", str(reference)]) == 0
    assert main(["fra", "--config", str(config), "--period", "2019-01-01", "--window", "7"]) == 0
    kept = tree_bytes(out_dir)
    assert sorted(kept) == ["fra/2019_7_audit.json", "fra/2019_7_survivors.csv"]
    (out_dir / "notes.txt").write_text("mine\n")
    kept["notes.txt"] = b"mine\n"
    # files of the kinds a run owns, left by an earlier run
    (out_dir / "scenarios").mkdir()
    (out_dir / "scenarios" / "2018_7.json").write_text("{}\n")
    (out_dir / "index.csv").write_text("date,sum_mcap,index_value,power\n")
    assert main(["run", "--config", str(config), *cell]) == 0
    assert tree_bytes(out_dir) == {**kept, **tree_bytes(reference)}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_invalid_config_key_rejected(tmp_path, capsys):
    config, _, _ = small_setup(tmp_path, seed=5)
    doc = json.loads(config.read_text())
    doc["fra"]["target_cnt"] = 5
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "target_cnt" in err and "fra" in err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    config, _, _ = small_setup(tmp_path, seed=6)
    doc = json.loads(config.read_text())
    doc["surprise"] = 1
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 1
    assert "surprise" in capsys.readouterr().err


def test_colliding_period_years_rejected(tmp_path, capsys):
    config, out_dir, _ = small_setup(tmp_path, seed=8)
    doc = json.loads(config.read_text())
    doc["periods"] = ["2018-02-01", "2019-01-01", "2018-06-01"]
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "2018-02-01" in err and "2018-06-01" in err and "periods" in err
    assert not out_dir.exists()


def test_periods_override_colliding_years_rejected(tmp_path, capsys):
    config, out_dir, _ = small_setup(tmp_path, seed=8)
    assert main(["run", "--config", str(config), "--periods", "2018-02-01,2018-06-01"]) == 1
    err = capsys.readouterr().err
    assert "2018-02-01" in err and "2018-06-01" in err and "--periods" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("windows", ["0", "abc", "7,1.5"])
def test_windows_override_checked_like_config(tmp_path, capsys, windows):
    config, out_dir, _ = small_setup(tmp_path)
    assert main(["run", "--config", str(config), "--windows", windows]) == 1
    err = capsys.readouterr().err
    assert "bad value for --windows: expected a list of integers >= 1" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flag, value, named", [
    ("run", "--windows", "", "bad value for --windows: expected a list of integers >= 1"),
    ("run", "--periods", "", "bad value for --periods: Invalid isoformat string"),
    ("run", "--periods", "2018-13-01", "bad value for --periods: month must be in 1..12"),
    ("run", "--target-features", "0",
     "bad value for --target-features: target_count must be >= 1, got 0"),
    ("run", "--holdout", "1.5",
     "bad value for --holdout: holdout_fraction must be in (0, 1), got 1.5"),
    ("run", "--power", "0", "bad value for --power: power must be >= 1, got 0"),
    ("run", "--out", "", "bad value for --out: expected a path, got ''"),
    ("fra", "--top-k", "99", "bad value for --top-k: top_k_union must be in [1, target_count]"),
    ("importance", "--out", "", "bad value for --out: expected a path, got ''"),
    ("run", "--power", "3", "--power given, but the config has no 'index' section"),
    ("fra", "--power", "3", "--power given, but the config has no 'index' section"),
    ("importance", "--power", "3", "--power given, but the config has no 'index' section"),
], ids=["windows-empty", "periods-empty", "periods-month", "target-features", "holdout",
        "power", "out-empty", "fra-top-k", "importance-out-empty", "run-power-without-index",
        "fra-power-without-index", "importance-power-without-index"])
def test_bad_flag_value_names_the_flag(tmp_path, monkeypatch, capsys, command, flag, value,
                                       named):
    config, out_dir, _ = small_setup(tmp_path)
    monkeypatch.chdir(tmp_path)   # an empty --out would mean this directory
    cell = {"run": [], "fra": ["--period", "2019-01-01", "--window", "7"],
            "importance": ["--period", "2019-01-01", "--window", "7", "--method", "pearson"]}
    assert main([command, "--config", str(config), *cell[command], flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus"]


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_run_stage_failure_nonzero_exit(tmp_path, capsys):
    config, _, _ = small_setup(tmp_path, seed=7)
    doc = json.loads(config.read_text())
    doc["target_metric"] = "no-such-series"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "stage prepare" in err and "no-such-series" in err


@pytest.mark.parametrize("path, value, named", [
    (("fra", "target_count"), "100", "'target_count' at fra"),
    (("fra",), [], "fra must be an object"),
    (("fra", "rf"), 3, "fra.rf must be an object"),
    (("seed",), "abc", "'seed' at config root"),
    (("seed",), True, "'seed' at config root"),
    (("holdout_fraction",), 1.5, "holdout_fraction must be in"),
    (("shapley", "n_permutations"), 0, "n_permutations must be >= 1"),
    (("shapley", "background_rows"), 0, "background_rows must be >= 1"),
    (("shapley", "explain_rows"), 0, "explain_rows must be >= 1"),
    (("flat_run_max",), 0, "flat_run_max must be >= 2"),
    (("missing_ratio_max",), -0.1, "missing_ratio_max must be in"),
    (("missing_ratio_max",), 1.5, "missing_ratio_max must be in"),
    (("index",), {"mcaps": 5}, "needs an 'mcaps' path"),
    (("indicator_windows",), 5, "'indicator_windows' at config root"),
    (("indicator_windows",), [0], "'indicator_windows' at config root"),
    (("indicator_windows",), [5, "20"], "'indicator_windows' at config root"),
    (("indicator_windows",), [True], "'indicator_windows' at config root"),
    (("indicator_sources",), "close-price", "'indicator_sources' at config root"),
    (("indicator_sources",), ["close-price", 3], "'indicator_sources' at config root"),
    (("windows",), [7.9], "'windows' at config root"),
    (("windows",), ["7"], "'windows' at config root"),
    (("windows",), [True], "'windows' at config root"),
    (("windows",), [1, 0], "'windows' at config root"),
    (("windows",), 7, "'windows' at config root"),
    (("windows",), [], "'windows' at config root"),
    (("fra", "rf", "kind"), 5, "'kind'] at fra.rf"),
    (("fra", "gbt", "kind"), "rf", "'kind'] at fra.gbt"),
    (("fra", "pfi_repeats"), 0, "pfi_repeats must be >= 1, got 0"),
    (("fra", "cv_folds"), 1, "cv_folds must be >= 2, got 1"),
    (("fra", "rf", "features_per_split"), 1.5,
     "at fra.rf: features_per_split fraction must be in"),
    (("fra", "gbt", "features_per_split"), 0, "at fra.gbt: features_per_split count must be >= 1"),
], ids=["fra-count-string", "fra-list", "rf-number", "seed-string", "seed-bool", "holdout",
        "permutations", "background", "explain", "flat-run", "missing-negative",
        "missing-above-one", "mcaps-number", "windows-number", "windows-zero",
        "windows-string-item", "windows-bool-item", "sources-string", "sources-number-item",
        "cell-windows-float-item", "cell-windows-string-item", "cell-windows-bool-item",
        "cell-windows-zero", "cell-windows-number", "cell-windows-empty", "rf-kind", "gbt-kind",
        "pfi-repeats", "cv-folds", "rf-fraction", "gbt-count"])
def test_bad_config_value_rejected_at_load(tmp_path, capsys, path, value, named):
    out_dir = tmp_path / "out"
    config = write_run_config(tmp_path / "config.json", tmp_path / "manifest.json", out_dir)
    doc = json.loads(config.read_text())
    *parents, key = path
    section = doc
    for parent in parents:
        section = section[parent]
    section[key] = value
    config.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=named):
        load_run_config(config)
    assert main(["run", "--config", str(config)]) == 1
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


def test_empty_indicator_windows_means_no_indicators(tmp_path):
    config = write_run_config(tmp_path / "config.json", tmp_path / "manifest.json", tmp_path / "out")
    doc = json.loads(config.read_text())
    doc["indicator_windows"] = []
    config.write_text(json.dumps(doc))
    assert load_run_config(config).pipeline.indicator_windows == ()


def test_unknown_indicator_source_rejected(tmp_path, capsys):
    config, out_dir, _ = small_setup(tmp_path, seed=9)
    doc = json.loads(config.read_text())
    doc["indicator_sources"] = ["close-price", "close-prize"]
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "indicator_sources" in err and "'close-prize'" in err
    assert not out_dir.exists()


def test_indicator_source_dropped_by_cleaning_is_skipped(tmp_path, capsys):
    config, out_dir, _ = small_setup(tmp_path, seed=9)
    doc = json.loads(config.read_text())
    doc["indicator_sources"] = ["close-price", "sentiment_flat"]   # a flat run drops it
    config.write_text(json.dumps(doc))
    report = tmp_path / "pearson.csv"
    assert main(["importance", "--config", str(config), "--period", "2019-01-01",
                 "--window", "7", "--method", "pearson", "--out", str(report)]) == 0
    features = {line.split(",")[0] for line in report.read_text().splitlines()[1:]}
    assert "SMA5_close-price" in features
    assert not any(f.endswith("_sentiment_flat") for f in features)
