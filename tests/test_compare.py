"""The summary statistics of bench/compare.py on fixed samples."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from compare import regression, sign_test_rank, summarize  # noqa: E402


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


def test_sign_test_interval_of_ten_pairs_is_the_2nd_and_9th_ratio():
    assert sign_test_rank(10) == (2, pytest.approx(1 - 22 / 1024))   # 97.9%
    base = [1.0] * 10
    change = [0.80, 0.95, 0.90, 0.85, 1.02, 0.88, 0.70, 0.93, 0.91, 0.87]
    s = summarize(base, change, "lower")
    # sorted ratios: 0.70 0.80 0.85 0.87 0.88 0.90 0.91 0.93 0.95 1.02
    assert s["ratio_interval"] == (0.80, 0.95)
    assert s["interval_level"] == pytest.approx(0.9785, abs=1e-4)
    assert s["median_ratio"] == pytest.approx(0.89)
    # 9 of 10 pairs won, and with a base IQR of 0 any median difference counts
    assert s["won"] == 9 and s["claim"]


@pytest.mark.parametrize("better, base, change, claim", [
    # 10/10 won, and the medians differ by 0.3, more than the base IQR of 0.15
    ("lower", [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0],
     [0.7, 0.8, 0.6, 0.7, 0.9, 0.5, 0.7, 0.8, 0.6, 0.7], True),
    # 10/10 won, but the medians differ by 0.1, less than the base IQR of 0.15
    ("lower", [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0],
     [0.9, 1.0, 0.8, 0.9, 1.1, 0.7, 0.9, 1.0, 0.8, 0.9], False),
    # 8/10 won: the medians differ by enough, the pairs do not
    ("lower", [1.0] * 10, [0.5] * 8 + [1.5] * 2, False),
    # the same numbers on a higher-is-better metric are a loss
    ("higher", [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0],
     [0.7, 0.8, 0.6, 0.7, 0.9, 0.5, 0.7, 0.8, 0.6, 0.7], False),
    ("higher", [0.7, 0.8, 0.6, 0.7, 0.9, 0.5, 0.7, 0.8, 0.6, 0.7],
     [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0], True),
], ids=["clear-gain", "inside-the-spread", "eight-of-ten", "higher-loss", "higher-gain"])
def test_claim_rule_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_base_iqr(
        better, base, change, claim):
    assert summarize(base, change, better)["claim"] is claim


@pytest.mark.parametrize("better, base, change, verdict", [
    # base median 1.0, IQR share 0.1: a change median of 1.2 is within a bound of 0.25
    ("lower", [0.9, 0.95, 1.0, 1.05, 1.1], [1.1, 1.15, 1.2, 1.25, 1.3], "ok"),
    # ... and 1.3 is not
    ("lower", [0.9, 0.95, 1.0, 1.05, 1.1], [1.2, 1.25, 1.3, 1.35, 1.4], "WORSE"),
    # higher is better: from a base median of 1.3, 0.9 is more than 25% lower ...
    ("higher", [1.2, 1.25, 1.3, 1.35, 1.4], [0.8, 0.85, 0.9, 0.95, 1.0], "WORSE"),
    # ... and from 1.2, 1.1 is not
    ("higher", [1.1, 1.15, 1.2, 1.25, 1.3], [1.0, 1.05, 1.1, 1.15, 1.2], "ok"),
    # a base IQR share of 0.5 exceeds the bound, so not even an equal median resolves
    ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.5, 0.75, 1.0, 1.25, 1.5], "unresolved"),
    # ... unless every change run beats every base run
    ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.1, 0.2, 0.3, 0.4, 0.45], "ok"),
    ("higher", [0.5, 0.75, 1.0, 1.25, 1.5], [1.6, 1.7, 1.8, 1.9, 2.0], "ok"),
], ids=["lower-within", "lower-worse", "higher-worse", "higher-within", "spread-unresolved",
        "spread-lower-beats-all", "spread-higher-beats-all"])
def test_regression_verdict_against_the_bound_as_a_share_of_the_base_median(
        better, base, change, verdict):
    assert regression(base, change, better, 0.25) == verdict


def test_five_pairs_give_no_sign_test_interval():
    # P(Binomial(5, 1/2) < 1) = 1/32 > 0.025, so not even the extremes bound the median
    assert sign_test_rank(5) == (0, 1.0)
    assert sign_test_rank(6)[0] == 1
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4, 0.5], "lower")
    assert s["ratio_interval"] is None
    # every pair won, by more than the base IQR of 2, but a claim needs ten pairs
    assert s["won"] == 5 and s["base_median"] - s["change_median"] > 2 and not s["claim"]


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
