"""Search benchmark for spikenas.

Usage (from the repository root):

    python3 perfbench/run.py --workload tiny_2c3o_m --seed 3 --seconds 35 --trace 0

Each run writes its workload's seeded input files, sets the engine up
several times in fresh processes to time set-up, then runs the workload's
search in fresh processes, one at a time, until the next round would end
after ``--seconds``.  Every round is checked against the pinned reference
in ``reference/``.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced rounds alternate and the per-layer
breakdown of a traced round is printed.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Full results,
with the environment, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

from tracer import read_spans  # noqa: E402
from workloads import WORKLOADS, input_id, write_inputs  # noqa: E402

# A candidate's score matches its reference when
# |score - ref| <= SCORE_ATOL + SCORE_RTOL * |ref|.  One flipped spike moves
# a log-determinant by far more; reordered float sums move it by less.
SCORE_ATOL = 1e-9
SCORE_RTOL = 1e-9

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_child(spec: dict, out_dir: Path) -> dict:
    """Run one worker round in a fresh interpreter and return its result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    spec = dict(spec, out_dir=str(out_dir))
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads((out_dir / "result.json").read_text())


def read_outputs(out_dir: Path) -> tuple[list[list], list[int], dict]:
    """Candidate records, best per-cell indices and the report document."""
    doc = json.loads((out_dir / "report.json").read_text())
    records = []
    with open(out_dir / "candidates.jsonl", encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            records.append([r["phase"], r["index"], r["n_param"], r["feasible"],
                            r["singular"], r["score"]])
    return records, doc["best_arch"]["cell_indices"], doc


def _same(rec: list, ref: list) -> bool:
    if rec[:5] != ref[:5]:
        return False
    if rec[5] is None or ref[5] is None:
        return rec[5] is None and ref[5] is None
    return abs(rec[5] - ref[5]) <= SCORE_ATOL + SCORE_RTOL * abs(ref[5])


def check_round(out_dir: Path, ref: dict) -> tuple[int, int, list[str]]:
    """(visited, mismatched, problems) of one round against its reference.

    Records are compared after sorting by (phase, index), so the check
    does not depend on visit order.  A round whose best per-cell indices
    differ counts as mismatched in full.
    """
    records, best, doc = read_outputs(out_dir)
    want = ref["records"]
    problems = []
    got = sorted(records, key=lambda r: (r[0], r[1]))
    matched = sum(_same(a, b) for a, b in zip(got, sorted(want, key=lambda r: (r[0], r[1]))))
    mismatched = max(len(got), len(want)) - matched
    visited = len(records)
    counted = doc["evaluations_total"] + doc["evaluations_skipped"]
    if counted != visited:
        problems.append(f"report counts {counted} candidates, log holds {visited}")
    if doc["evaluations_skipped"] != sum(not r[3] for r in records):
        problems.append("report skip count disagrees with the candidate log")
    if list(best) != ref["best"]:
        problems.append(f"best indices {best} != reference {ref['best']}")
        mismatched = max(len(got), len(want))
    if mismatched:
        problems.append(f"{mismatched} of {len(want)} candidates differ from the reference")
    return max(visited, len(want)), mismatched, problems


def environment() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "spikenas").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _rounds(spec: dict, work: Path, seconds: float, modes: tuple[str, ...],
            ref: dict, log: list[str]):
    """Run rounds cycling through `modes` until the next would overrun.

    At least one round of each mode runs.  Yields (mode, result, out_dir)
    after checking each round against the reference.
    """
    start = time.perf_counter()
    done = 0
    while True:
        mode = modes[done % len(modes)]
        out_dir = work / f"round{done}"
        t = time.perf_counter()
        result = run_child(dict(spec, mode=mode), out_dir)
        last = time.perf_counter() - t
        visited, mismatched, problems = check_round(out_dir, ref)
        result.update(mode=mode, visited=visited, mismatched=mismatched,
                      problems=problems)
        log.extend(f"round {done} ({mode}): {p}" for p in problems)
        yield mode, result, out_dir
        done += 1
        elapsed = time.perf_counter() - start
        if done >= len(modes) and elapsed + last > seconds:
            return


def end_to_end(spec: dict, work: Path, seconds: float, ref: dict,
               log: list[str]) -> tuple[dict, list[dict]]:
    """Set-up-only rounds, then search rounds; metrics are round medians.

    The set-up-only rounds run first and count toward setup_s together
    with the set-up of every search round.
    """
    setups = [dict(run_child(dict(spec, mode="setup"), work / f"setup{i}"),
                   mode="setup", visited=0, mismatched=0)
              for i in range(SETUP_REPEATS)]
    rounds = [r for _, r, _ in _rounds(spec, work, seconds, ("search",), ref, log)]
    med = lambda key: statistics.median(key(r) for r in rounds)  # noqa: E731
    metrics = {
        "cands_per_s": (med(lambda r: r["visited"] / r["e2e_s"]), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups + rounds), "s"),
        "cpu_s_per_cand": (med(lambda r: r["cpu_s"] / r["visited"]), "s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
        "match_frac": (min(1 - r["mismatched"] / r["visited"] for r in rounds), "frac"),
    }
    return metrics, setups + rounds


def _quantile(values: list[float], q: int) -> float:
    """q-th decile (q in 1..9); the single value when there is only one."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def layer_metrics(spans: list[tuple], jobs: int, records: list[list]) -> dict:
    """Per-layer metrics of one traced round.

    A span's self time is its duration minus its direct children's.  The
    search span spans `jobs` pool lanes, so its self time is
    jobs * wall minus the time of its direct children, on any thread;
    with jobs > 1 that includes pool idle time.  The listed self times
    plus search.self_ms therefore add up to jobs * search.wall_ms.
    """
    children = defaultdict(int)
    for sid, parent, _, _, start, end, _ in spans:
        children[parent] += end - start
    root = next(s for s in spans if s[3] == "search")
    wall_ns = root[5] - root[4]
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    durations = defaultdict(list)
    for sid, parent, _, name, start, end, amount in spans:
        if sid == root[0]:
            continue
        self_ns[name] += end - start - children[sid]
        calls[name] += 1
        work[name] += amount
        durations[name].append(end - start)

    ms = lambda ns: ns / 1e6  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for k in (1, 3):
        name = f"snn.conv2d_same.k{k}"
        gflop = work[name] / 1e9
        secs = self_ns[name] / 1e9
        m[f"{name}.self_ms"] = (ms(self_ns[name]), "ms")
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.gflop"] = (gflop, "GFLOP")
        m[f"{name}.gflops"] = (gflop / secs if secs else 0.0, "GFLOP/s")
    m["snn.avgpool3x3_same.self_ms"] = (ms(self_ns["snn.avgpool3x3_same"]), "ms")
    m["snn.avgpool3x3_same.calls"] = (calls["snn.avgpool3x3_same"], "count")
    m["snn.avgpool3x3_same.mb"] = (work["snn.avgpool3x3_same"] / 1e6, "MB")
    m["snn.lif_step.self_ms"] = (ms(self_ns["snn.lif_step"]), "ms")
    m["snn.lif_step.calls"] = (calls["snn.lif_step"], "count")
    for name in ("snn.avgpool2x2_down", "snn.forward_collect_codes",
                 "snn.init_weights", "arch.decode_cell", "arch.build_network",
                 "memmodel.count_network_params", "score.score_candidate",
                 "score.hamming_kernel", "score.log_abs_det"):
        m[f"{name}.self_ms"] = (ms(self_ns[name]), "ms")
    m["memmodel.count_network_params.calls"] = (calls["memmodel.count_network_params"], "count")

    search_self = jobs * wall_ns - children[root[0]]
    m["search.self_ms"] = (ms(search_self), "ms")
    m["search.wall_ms"] = (ms(wall_ns), "ms")
    latency = [ms(d) for d in durations["score.score_candidate"]]
    m["score.score_candidate.p50_ms"] = (_quantile(latency, 5), "ms")
    m["score.score_candidate.p90_ms"] = (_quantile(latency, 9), "ms")
    m["score.score_candidate.n"] = (len(latency), "count")
    feasible = [r for r in records if r[3]]
    m["score.singular_frac"] = (sum(r[4] for r in feasible) / max(len(feasible), 1), "frac")
    m["memmodel.skip_frac"] = ((len(records) - len(feasible)) / len(records), "frac")
    busy = sum(durations["score.score_candidate"])
    m["search.pool_busy_frac"] = (busy / (wall_ns * jobs), "frac")
    for name in ("data.load_dataset", "data.sample_batch",
                 "report.write_report", "report.write_candidate_log"):
        m[f"{name}.ms"] = (ms(sum(durations[name])), "ms")

    listed = sum(v for k, (v, _) in m.items() if k.endswith(".self_ms"))
    m["trace.covered_frac"] = (listed / (jobs * ms(wall_ns)), "frac")
    return m


def traced(spec: dict, work: Path, seconds: float, ref: dict,
           log: list[str]) -> tuple[dict, list[dict]]:
    rounds, spans_from = [], None
    for mode, result, out_dir in _rounds(spec, work, seconds, ("search", "traced"),
                                         ref, log):
        rounds.append(result)
        if mode == "traced" and spans_from is None:
            spans_from = (out_dir, result)
            if result.get("missing_targets"):
                print(f"not traced: {', '.join(result['missing_targets'])}",
                      file=sys.stderr)
    out_dir, result = spans_from
    records, _, _ = read_outputs(out_dir)
    metrics = layer_metrics(read_spans(out_dir / "spans.tsv"), result["jobs"], records)
    wall = lambda mode: statistics.median(  # noqa: E731
        r["search_s"] for r in rounds if r["mode"] == mode)
    metrics["trace.overhead_frac"] = (wall("traced") / wall("search") - 1, "frac")
    return metrics, rounds


def load_reference(workload: str, ident: int) -> dict:
    path = REFERENCE / f"{workload}.json"
    refs = json.loads(path.read_text())["inputs"]
    if str(ident) not in refs:
        raise BenchError(f"{path} has no reference for input {ident}")
    return refs[str(ident)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (SRC / "spikenas" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ident = input_id(args.seed)
    try:
        ref = load_reference(wl.name, ident)
        work = WORK / wl.name
        write_inputs(wl, ident, work / "data")
        spec = {"workload": wl.name, "input_id": ident, "src": str(SRC),
                "data_dir": str(work / "data"), "jobs": wl.jobs}
        log: list[str] = []
        measure = traced if args.trace else end_to_end
        metrics, rounds = measure(spec, work / "rounds", args.seconds, ref, log)
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment()
    attempted = sum(r["visited"] for r in rounds)
    failed = sum(r["mismatched"] for r in rounds)
    for line in log:
        print(f"check: {line}", file=sys.stderr)
    out = {"correct": not log and failed == 0, "attempted": attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": wl.name, "seed": args.seed, "input_id": ident,
                    "seconds": args.seconds, "environment": env,
                    "rounds": rounds, "checks": log, **out}, indent=1))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    searches = sum(r["mode"] != "setup" for r in rounds)
    print(f"{wl.name} seed={args.seed} input={ident} search rounds={searches}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
