"""The summary statistics of bench/compare.py on fixed samples."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from compare import summarize  # noqa: E402


def test_summary_of_a_lower_is_better_metric():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.3, 3.0, 2.5]
    s = summarize(base, change, "lower")
    assert s["base_median"] == 3.0 and s["change_median"] == 2.5
    # inclusive quartiles of 1..5 are 2 and 4
    assert s["base_iqr_share"] == pytest.approx(2.0 / 3.0)
    # per-pair ratios 0.5, 1.0, 1.1, 0.75, 0.5
    assert s["median_ratio"] == pytest.approx(0.75)
    # pair 1 is a tie and counts for neither side; pair 2 is lost
    assert s["won"] == 3 and s["pairs"] == 5


def test_summary_of_a_higher_is_better_metric_counts_the_other_way():
    s = summarize([2.0, 2.0, 2.0, 2.0], [3.0, 1.0, 2.0, 4.0], "higher")
    assert s["won"] == 2 and s["base_iqr_share"] == 0.0
    # per-pair ratios 1.5, 0.5, 1.0, 2.0
    assert s["median_ratio"] == pytest.approx(1.25)


def failed_run(workload, seed, seconds, trace, root):
    # perfbench reports the metrics of a run with a failed operation as 0
    return {"correct": False, "attempted": 3, "failed": 1,
            "detail": {"artifact_sha256": "0" * 64, "problems": ["run exited 1"]},
            "metrics": {"wall_s": {"value": 0.0, "unit": "s"}}}


def test_a_run_that_is_not_correct_stops_the_comparison_with_exit_1(monkeypatch, capsys):
    import compare

    def export(rev, tree):
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text((compare.ROOT / "BENCHMARK.json").read_text())
        return tree

    monkeypatch.setattr(compare, "export", export)
    monkeypatch.setattr(compare, "perfbench_run", failed_run)
    assert compare.main(["--base", "A", "--change", "B", "--pairs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""   # no table from metrics that are not measurements
    assert "error: study on base (A) was not correct: 1 of 3 operations failed" in captured.err
