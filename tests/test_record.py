"""The criterion-8 runner of bench/record.py on a small corpus."""

import sys
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import record  # noqa: E402
from synthetic import write_corpus, write_run_config  # noqa: E402

COUNTS = {"macro": 4, "technical": 3, "sentiment": 3, "trad_index": 3,
          "onchain_btc": 4, "onchain_usdc": 4}


def test_criterion_8_run_writes_one_tree_at_jobs_1_and_2(tmp_path):
    manifest = write_corpus(tmp_path / "corpus", seed=0, n_days=420, start=date(2018, 1, 1),
                            counts=COUNTS, late_start_count=2, late_start=date(2018, 9, 1))
    config = write_run_config(
        tmp_path / "config.json", manifest, tmp_path / "unused", seed=7,
        periods=("2018-02-01", "2019-01-01"), windows=(1, 7), target_count=15, top_k=10,
        shapley={"n_permutations": 5, "background_rows": 10, "explain_rows": 4})
    bench_files = sorted(ROOT.glob("BENCH_*.json"))
    runs = {jobs: record.criterion_8_run(config, tmp_path / f"out_jobs{jobs}", jobs)
            for jobs in (1, 2)}
    assert runs[1]["artifact_sha256"] == runs[2]["artifact_sha256"]
    for jobs, run in runs.items():
        assert run["jobs"] == jobs and run["cpu_s"] >= 0 and run["wall_s"] > 0
        audits = sorted(p.name for p in (tmp_path / f"out_jobs{jobs}" / "fra").iterdir())
        assert audits == [f"{label}_audit.json"
                          for label in ("2018_1", "2018_7", "2019_1", "2019_7")]
    assert sorted(ROOT.glob("BENCH_*.json")) == bench_files
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus", "out_jobs1",
                                                          "out_jobs2"]
