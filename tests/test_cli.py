import json
import math
import shutil
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from cryptodiv import indicators
from cryptodiv.cli import ConfigError, load_run_config, main

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
    # reference generated at power 7 from the daily cap sums
    start = date(2020, 1, 1)
    ref_lines = ["date,btc_price"]
    for i in range(40):
        total = sum((1 + j) * 1e9 + i * 1e7 for j in range(3))
        ref_lines.append(f"{(start + timedelta(days=i)).isoformat()},"
                         f"{total / math.log10(total) ** 7}")
    reference = tmp_path / "btc.csv"
    reference.write_text("\n".join(ref_lines) + "\n")

    out = tmp_path / "index.csv"
    fitms = tmp_path / "fit.csv"
    code = main(["index", "--mcaps", str(mcaps), "--power", "5", "--out", str(out),
                 "--calibrate", "--reference", str(reference), "--fit-out", str(fitms)])
    assert code == 0
    assert "calibrated power: 7" in capsys.readouterr().out
    fit_rows = fitms.read_text().strip().splitlines()
    assert fit_rows[0] == "power,objective,chosen"
    chosen = [r for r in fit_rows[1:] if r.endswith(",1")]
    assert len(chosen) == 1 and chosen[0].startswith("7,")
    # index output re-uses the calibrated power
    assert out.read_text().splitlines()[1].endswith(",7")


def test_index_command_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["index", "--mcaps", str(missing), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


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
], ids=["fra-count-string", "fra-list", "rf-number", "seed-string", "seed-bool", "holdout",
        "permutations", "background", "explain", "flat-run", "missing-negative",
        "missing-above-one", "mcaps-number"])
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
