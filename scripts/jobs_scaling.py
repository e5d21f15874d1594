"""Measure how one search scales from `--jobs 1` to `--jobs <cores>`.

Usage (from the repository root):

    python3 scripts/jobs_scaling.py [--repeats 3]

Each run is a fresh interpreter running `python -m spikenas.cli search` on
a fixed synth scenario: 1C2O at 16 stem channels, batch 16, 5 timesteps,
rate coding, so every candidate is dominated by 3x3 convolutions large
enough for OpenBLAS to thread.  Runs alternate between the two job
counts.  `wall_s` is the whole process (start-up, import, dataset,
search, report); `cands_per_s` is candidates visited over the search
wall time the report records.  Prints one JSON object with every run,
the medians and the speed-up of the median `cands_per_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIO = ["search", "--scenario", "1C2O", "--dataset", "synth", "--seed", "7",
            "--stem-channels", "16", "--batch-size", "16", "--timesteps", "5",
            "--input-coding", "rate"]


def run_once(jobs: int, report: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "spikenas.cli", *SCENARIO, "--jobs", str(jobs),
            "--report-out", str(report)]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    wall_s = time.perf_counter() - start
    doc = json.loads(report.read_text())
    visited = doc["evaluations_total"] + doc["evaluations_skipped"]
    return {"wall_s": wall_s, "cands_per_s": visited / (doc["wall_time_ms"] / 1e3),
            "best_score": doc["best_score"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per job count (default 3)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    cores = os.cpu_count() or 1
    runs: dict[int, list[dict]] = {1: [], cores: []}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for _ in range(args.repeats):
            for jobs in runs:
                runs[jobs].append(run_once(jobs, report))

    median = {str(jobs): {key: statistics.median(r[key] for r in rs)
                          for key in ("wall_s", "cands_per_s")}
              for jobs, rs in runs.items()}
    print(json.dumps({
        "scenario": SCENARIO,
        "nproc": cores,
        "runs": {str(jobs): rs for jobs, rs in runs.items()},
        "median": median,
        "speedup": median[str(cores)]["cands_per_s"] / median["1"]["cands_per_s"],
        "same_best_score": len({r["best_score"] for rs in runs.values() for r in rs}) == 1,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
