"""Benchmark of the cryptodiv CLI on generated workloads.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package under test is the
checkout's `src/cryptodiv`, started as `python -m cryptodiv.cli` in a fresh
child process for every invocation. Inputs are generated from `--seed` into
`.bench_work/` (gitignored) before any clock starts.

One repetition is the workload's CLI invocations (`cryptodiv run`, or
`cryptodiv importance` per method for `explain`). Repetitions alternate
between `--jobs 1` and `--jobs <nproc>` until `--seconds` is used up. Every
invocation is checked: exit code, expected files, finite results, and an
artifact tree byte-identical to the first repetition's.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. With `--trace 1`, repetitions alternate between an untraced
and a traced child at `--jobs 1` (see tracer.py), and the line holds the
per-layer metrics instead. The line before it is a detail record: sample
counts, the artifact tree's SHA-256, the diverse-arm win rate and the
environment; it is also written under `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3          # fresh `importance --method pearson` runs timed as setup_s
MIN_REPS = 2            # repetitions made even when --seconds is already used up
CHILD_TIMEOUT_S = 150.0
TABLES = ("feature_vectors.csv", "top_features.csv", "unique_features.csv",
          "improvement_by_window.csv", "improvement_by_category.csv",
          "contribution_factors.csv")


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class Rep:
    jobs: int
    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    tree_sha256: str = ""
    summaries: list = field(default_factory=list)   # tracer summaries, one per child


def tree_sha256(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def check_report_csv(path: Path, candidates: list[str] | None) -> list[str]:
    """An importance CSV: one row per candidate, ranks 1..p, finite scores."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    features = sorted(r["feature"] for r in rows)
    if not rows or (candidates is not None and features != candidates):
        problems.append(f"{path.name}: {len(rows)} rows do not match the {len(candidates or [])} candidates")
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append(f"{path.name}: ranks are not 1..{len(rows)}")
    if not all(math.isfinite(float(r["score"])) for r in rows):
        problems.append(f"{path.name}: non-finite score")
    return problems


def check_run_tree(out: Path, workload: workloads.Workload) -> tuple[list[str], int, int]:
    """Expected artifacts of `cryptodiv run`; returns problems, diverse-arm wins, arms."""
    labels = [f"{p[:4]}_{w}" for p in workload.periods for w in workload.windows]
    expected = [f"scenarios/{label}.json" for label in labels]
    expected += [f"tables/{t}" for t in TABLES] + ["drop_log.csv"]
    if workload.shape.mcap_assets:
        expected.append("index.csv")
    problems = [f"{rel}: missing" for rel in expected if not (out / rel).is_file()]
    wins = arms = 0
    for label in labels:
        path = out / "scenarios" / f"{label}.json"
        if not path.is_file():
            continue
        improvement = json.loads(path.read_text())["improvement"]
        diverse = improvement["mse_diverse"]
        if not (math.isfinite(diverse) and diverse > 0):
            problems.append(f"{label}: mse_diverse {diverse!r} is not finite and > 0")
        for mse in improvement["mse_by_category"].values():
            arms += 1
            wins += diverse < mse
    return problems, wins, arms


class Bench:
    """Runs one workload's CLI invocations in child processes and checks every output."""

    def __init__(self, root: Path, work: Path, workload: workloads.Workload, config: Path):
        self.root, self.work, self.workload, self.config = root, work, workload, config
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.candidates: list[str] | None = None
        self.reference: str | None = None        # artifact tree SHA-256 of the first repetition
        self.wins = self.arms = 0

    def child(self, cli_args: list[str], log: Path, summary: Path | None = None) -> Child:
        """Run one CLI invocation in a fresh process; wall time and peak RSS from wait4."""
        if summary is None:
            cmd = [sys.executable, "-m", "cryptodiv.cli", *cli_args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(summary), "--", *cli_args]
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                    cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted or terminated: stop the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{cli_args[0]} exited {proc.returncode}: {tail}")
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def _cell_args(self, method: str, out: Path, jobs: int) -> list[str]:
        period, window = self.workload.first_cell
        return ["importance", "--config", str(self.config), "--period", period,
                "--window", str(window), "--method", method, "--out", str(out),
                "--jobs", str(jobs)]

    def setup(self, k: int) -> float:
        """One fresh `importance --method pearson` on the first cell: the set-up prefix."""
        out = self.work / "setup" / f"pearson{k}.csv"
        child = self.child(self._cell_args("pearson", out, 1), self.work / "logs" / f"setup{k}.log")
        problems = ["pearson: no report"] if child.returncode != 0 else []
        if not problems:
            if self.candidates is None and out.is_file():
                with open(out, newline="") as fh:
                    self.candidates = sorted(r["feature"] for r in csv.DictReader(fh))
            problems = check_report_csv(out, self.candidates)
        self.problems += problems
        self.failed += bool(problems)
        return child.wall_s

    def rep(self, k: int, jobs: int, traced: bool) -> Rep:
        """One repetition of the workload's invocations, each checked."""
        rep = Rep(jobs, traced)
        out = self.work / "out" / f"rep{k}"
        if self.workload.explain_methods:
            calls = [(m, self._cell_args(m, out / f"{m}.csv", jobs))
                     for m in self.workload.explain_methods]
        else:
            calls = [("run", ["run", "--config", str(self.config), "--out", str(out),
                              "--jobs", str(jobs)])]
        good = []
        for tag, args in calls:
            summary = self.work / f"rep{k}-{tag}-trace.json" if traced else None
            child = self.child(args, self.work / "logs" / f"rep{k}-{tag}.log", summary)
            rep.wall_s += child.wall_s
            rep.peak_rss_mb = max(rep.peak_rss_mb, child.peak_rss_mb)
            if child.returncode != 0:
                good.append(False)
                continue
            if self.workload.explain_methods:
                problems = check_report_csv(out / f"{tag}.csv", self.candidates)
            else:
                problems, self.wins, self.arms = check_run_tree(out, self.workload)
            if summary is not None:
                rep.summaries.append(json.loads(summary.read_text()))
            self.problems += problems
            good.append(not problems)
        rep.tree_sha256 = tree_sha256(out)
        if all(good):
            if self.reference is None:
                self.reference = rep.tree_sha256
            elif rep.tree_sha256 != self.reference:
                self.problems.append(f"rep {k} (jobs {jobs}, traced {traced}): "
                                     "artifact tree differs from the first repetition")
                good = [False] * len(good)
        self.failed += good.count(False)
        shutil.rmtree(out, ignore_errors=True)
        return rep


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setups: list[float], reps: list[Rep]) -> dict[str, float]:
    """Repetitions alternate --jobs 1 (even) and --jobs <nproc> (odd)."""
    return {
        "wall_s": statistics.median(r.wall_s for r in reps[0::2]),
        "wall_par_s": statistics.median(r.wall_s for r in reps[1::2]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.peak_rss_mb for r in reps),
    }


def per_layer(reps: list[Rep]) -> dict[str, float]:
    """Medians over traced repetitions of each function's stats, summed over its children."""
    untraced = [r.wall_s for r in reps if not r.traced]
    samples: list[dict[str, float]] = []
    for rep in (r for r in reps if r.traced):
        values: dict[str, float] = {}
        for summary in rep.summaries:
            for name, stats in summary["functions"].items():
                for stat, v in stats.items():
                    key = f"{name}.{stat}"
                    values[key] = max(values.get(key, 0.0), v) if stat == "max_s" else values.get(key, 0.0) + v
        for layer in tracer.LAYERS:
            values[f"layer.{layer}.self_s"] = sum(
                v for k, v in values.items() if k.startswith(f"{layer}.") and k.endswith(".self_s"))
        values["trace.wall_s"] = rep.wall_s
        values["trace.unattributed_s"] = rep.wall_s - sum(s["top_level_s"] for s in rep.summaries)
        samples.append(values)
    if not samples:
        return {}
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    return metrics


def environment(root: Path, nproc: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True)
            commit = result.stdout.strip() or None
        except FileNotFoundError:
            pass
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "platform": platform.platform(), "commit": commit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "cryptodiv" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} is not a cryptodiv checkout (no src/cryptodiv or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = root / ".bench_work" / f"{workload.name}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    config = workloads.write_inputs(work / "inputs", workload, args.seed)

    bench = Bench(root, work, workload, config)
    setups = [bench.setup(k) for k in range(1 if args.trace else SETUP_REPS)]
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + reps[-1].wall_s <= args.seconds:
        k = len(reps)
        if args.trace:
            reps.append(bench.rep(k, 1, traced=k % 2 == 1))
        else:
            reps.append(bench.rep(k, nproc if k % 2 else 1, traced=False))

    if args.trace:
        values, wanted = per_layer(reps), spec["per_layer"]
    else:
        values, wanted = end_to_end(setups, reps), spec["end_to_end"]
    # A name missing from a clean run is a mistake in BENCHMARK.json; after a
    # failed invocation the values it would have given are reported as 0.
    value = values.__getitem__ if not bench.problems else (lambda name: values.get(name, 0.0))
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "setup_s": setups, "rep_wall_s": [[r.jobs, r.traced, r.wall_s] for r in reps],
        "artifact_sha256": bench.reference,
        "diverse_win_rate": bench.wins / bench.arms if bench.arms else None,
        "problems": bench.problems[:20], "environment": environment(root, nproc),
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1))
    if not bench.problems:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps({"correct": bench.failed == 0 and not bench.problems,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
