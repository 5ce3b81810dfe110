"""Paired benchmark comparison of two revisions, on the end-to-end metrics of BENCHMARK.json.

    python3 bench/compare.py --base REV [--change REV] [--pairs 10] [--seconds 8]

Run it from inside the git checkout. It exports each revision with
`git archive` into a temporary directory and byte-compiles its `src/`, so
that neither side's times depend on bytecode left in a checkout. Then it
makes `--pairs` pairs of runs of `perfbench/run.py --trace 0` per workload,
each run in its revision's tree. Every run reads perfbench seed 7, the
seed of the recorded artifact hashes, and the side that runs first
alternates from pair to pair, so that a drift in the machine's speed falls
on both sides alike.

Each run's metrics go to stderr as it finishes. At the end, one table per
workload gives for each end-to-end metric both medians, the base's
interquartile range as a share of its median, the median of the per-pair
ratios change/base with its sign-test interval, the pairs that the change
won (ties count for neither side), and whether the claim rule holds: at
least ten pairs, of which the change wins at least nine tenths, and medians
that differ by more than the base's interquartile range, in the metric's
better direction. Beside the claim, each row gives the metric's
`BENCHMARK.json` bound, a share of the base median, and the no-regression
verdict: `ok` when the change's median is no worse than the base median by
more than the bound, `WORSE` when it is, and `unresolved` when the base's
interquartile range exceeds the bound, unless every change run beats every
base run. A run that is
not `correct` stops the comparison with exit 1, before any table: its
metrics are not measurements.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from record import ROOT, perfbench_run

SEED = 7


def sign_test_rank(n: int) -> tuple[int, float]:
    """(k, level): k is the largest rank with P(Binomial(n, 1/2) < k) <= 0.025, 0 when none is.

    The k-th smallest and k-th largest of n paired ratios bound their median
    with probability `level`, whatever their distribution.
    """
    k = below = 0   # below = 2^n P(Binomial(n, 1/2) < k)
    while (below + math.comb(n, k)) / 2 ** n <= 0.025:
        below += math.comb(n, k)
        k += 1
    return k, 1 - 2 * below / 2 ** n


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """The paired summary of one metric; base[i] and change[i] come from pair i.

    ratio_interval is None when there are too few pairs for a sign-test interval.
    """
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    base_median, change_median = statistics.median(base), statistics.median(change)
    won = sum(c < b if better == "lower" else c > b for b, c in zip(base, change))
    ratios = sorted(c / b for b, c in zip(base, change))
    k, level = sign_test_rank(len(ratios))
    gain = base_median - change_median if better == "lower" else change_median - base_median
    return {"base_median": base_median, "change_median": change_median,
            "base_iqr_share": (q3 - q1) / base_median,
            "median_ratio": statistics.median(ratios),
            "ratio_interval": (ratios[k - 1], ratios[-k]) if k else None,
            "interval_level": level,
            "won": won, "pairs": len(base),
            "claim": len(base) >= 10 and 10 * won >= 9 * len(base) and gain > q3 - q1}


def regression(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression verdict of one metric, with `bound` a share of the base median.

    'ok' when the change's median is no worse than the base median by more
    than bound times it, else 'WORSE'; 'unresolved' when the base's IQR share
    exceeds the bound, unless every change run beats every base run.
    """
    s = summarize(base, change, better)
    if better == "lower":
        beats_all, excess = max(change) < min(base), s["change_median"] - s["base_median"]
    else:
        beats_all, excess = min(change) > max(base), s["base_median"] - s["change_median"]
    if beats_all:
        return "ok"
    if s["base_iqr_share"] > bound:
        return "unresolved"
    return "ok" if excess <= bound * s["base_median"] else "WORSE"


def export(rev: str, tree: Path) -> Path:
    """`git archive` of rev, unpacked into the new directory tree and byte-compiled."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    if not compileall.compile_dir(tree / "src", quiet=1):
        raise SystemExit(f"byte-compiling src/ of {rev} failed")
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision compared against")
    parser.add_argument("--change", default="HEAD", help="the revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0, help="seconds per perfbench run")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        sides = {side: export(rev, Path(tmp) / side)
                 for side, rev in (("base", args.base), ("change", args.change))}
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        values = {}     # (workload, side) -> metric -> one value per pair
        hashes = {}     # (workload, side) -> artifact tree SHA-256s seen
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in (w["name"] for w in spec["workloads"]):
                for side in order:
                    run = perfbench_run(workload, SEED, args.seconds, 0, root=sides[side])
                    metrics = {name: m["value"] for name, m in run["metrics"].items()}
                    print(json.dumps({"pair": i, "workload": workload, "side": side,
                                      "correct": run["correct"], **metrics}),
                          file=sys.stderr)
                    if not run["correct"]:
                        print(f"error: {workload} on {side} ({getattr(args, side)}) was not "
                              f"correct: {run['failed']} of {run['attempted']} operations "
                              f"failed; problems: {run['detail']['problems']}", file=sys.stderr)
                        return 1
                    for name, value in metrics.items():
                        values.setdefault((workload, side), {}).setdefault(name, []).append(value)
                    hashes.setdefault((workload, side), set()).add(run["detail"]["artifact_sha256"])

    k, level = sign_test_rank(args.pairs)
    print(f"base {args.base}, change {args.change}: {args.pairs} pairs, seed {SEED}, "
          f"{args.seconds:g} s per run; ratio interval: "
          + (f"ratios {k} and {args.pairs + 1 - k} of {args.pairs}, {level:.1%}" if k
             else "none at this many pairs"))
    for workload in (w["name"] for w in spec["workloads"]):
        same = hashes[(workload, "base")] == hashes[(workload, "change")]
        print(f"\n{workload}: artifacts {'identical' if same else 'DIFFER'} "
              f"({', '.join(sorted(h[:8] for h in hashes[(workload, 'change')]))})")
        print(f"  {'metric':<12} {'base':>9} {'change':>9} {'base IQR':>9} {'ratio':>7} "
              f"{'ratio interval':>15} {'won':>5} claim {'bound':>6} in bound")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sample = values[(workload, "base")][name], values[(workload, "change")][name]
            s = summarize(*sample, metric["better"])
            interval = s["ratio_interval"]
            shown = "-" if interval is None else f"{interval[0]:.3f}-{interval[1]:.3f}"
            print(f"  {name:<12} {s['base_median']:>9.3f} {s['change_median']:>9.3f} "
                  f"{s['base_iqr_share']:>8.1%} {s['median_ratio']:>7.3f} {shown:>15} "
                  f"{s['won']:>2}/{s['pairs']:<2} {'yes' if s['claim'] else 'no':<5} "
                  f"{metric['bound']:>6.0%} {regression(*sample, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
