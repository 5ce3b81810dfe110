"""Record one BENCH_<n>.json: the benchmark workloads plus a full criterion-8 run.

    python3 bench/record.py --out BENCH_7.json [--seed 7] [--seconds 30] [--jobs N]

Run it from the root of a source checkout. It first byte-compiles `src/`,
so that the times do not depend on whether the checkout already held
bytecode. It runs `perfbench/run.py` for each workload (`study`,
`wide_ingest`, `explain`) at `--trace 0` (end-to-end metrics) and at
`--trace 1` (per-layer metrics). Then it writes the acceptance criterion-8
corpus (300 columns x 2000 days, 10 cells, from `tests/synthetic.py`) and
times one `cryptodiv run` on it at `--jobs 1` and one at `--jobs N`, each in
a fresh process (wall time, and CPU time from `os.wait4`), and checks that
the two artifact trees are byte-identical.
The output file holds every result together with the environment (CPU,
Python and numpy versions, commit).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import tempfile
import time
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]

import run as perfbench  # noqa: E402  (perfbench/run.py: tree_sha256, environment)
from synthetic import write_corpus, write_run_config  # noqa: E402

WORKLOADS = ("study", "wide_ingest", "explain")


def perfbench_run(workload: str, seed: int, seconds: float, trace: int,
                  root: Path = ROOT) -> dict:
    """One perfbench run in the checkout root: its detail record and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    detail.pop("environment", None)     # recorded once for the whole file
    return {"detail": detail, **result}


def criterion_8_run(config: Path, out: Path, jobs: int) -> dict:
    """One `cryptodiv run` in a fresh process: wall and CPU time, peak RSS, artifact tree hash.

    CPU time is the child's user plus system time, its worker processes included.
    """
    cmd = [sys.executable, "-m", "cryptodiv.cli", "run", "--config", str(config),
           "--out", str(out), "--jobs", str(jobs)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"criterion-8 run at --jobs {jobs} exited {code}")
    return {"jobs": jobs, "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
            "artifact_sha256": perfbench.tree_sha256(out)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--seed", type=int, default=7, help="perfbench input seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds per perfbench run")
    parser.add_argument("--jobs", type=int, default=len(os.sched_getaffinity(0)),
                        help="worker processes for the parallel criterion-8 run")
    args = parser.parse_args(argv)

    record = {"environment": perfbench.environment(ROOT, len(os.sched_getaffinity(0))),
              "settings": {"seed": args.seed, "seconds": args.seconds, "jobs": args.jobs},
              "perfbench": {}}
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        raise SystemExit("byte-compiling src/ failed")
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"perfbench {workload} --trace {trace}", file=sys.stderr)
            record["perfbench"][f"{workload}/trace{trace}"] = perfbench_run(
                workload, args.seed, args.seconds, trace)

    with tempfile.TemporaryDirectory(prefix="criterion8-") as tmp:
        tmp = Path(tmp)
        # the corpus and config of tests/test_acceptance.py criterion 8
        manifest = write_corpus(tmp / "corpus", seed=0, n_days=2000, start=date(2016, 9, 1),
                                late_start_count=64)
        config = write_run_config(tmp / "config.json", manifest, tmp / "out", seed=7,
                                  windows=(1, 7, 30, 90, 180))
        runs = []
        for jobs in (1, args.jobs):
            print(f"criterion 8 --jobs {jobs}", file=sys.stderr)
            runs.append(criterion_8_run(config, tmp / f"out_jobs{jobs}", jobs))
    record["criterion_8"] = {"runs": runs,
                             "identical": runs[0]["artifact_sha256"] == runs[1]["artifact_sha256"]}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["criterion_8"]["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
