"""One benchmark round in a fresh process: set up, search, write outputs.

Usage: worker.py <spec.json>.  The spec names the workload, the input id,
the data directory, the output directory and the mode:

- ``setup``: import the engine, read the dataset and draw the batch, then
  stop.  Reports the set-up time only.
- ``search``: set up as above, then run the search and write the report
  and candidate log through the engine's own writers.
- ``traced``: as ``search`` with the span tracer installed; spans go to
  ``spans.tsv`` in the output directory.

The result is written as JSON to ``result.json`` in the output directory.
Set-up time runs from just before the engine, and so numpy, is imported.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Own peak plus the largest reaped child's peak (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]]
    out = Path(spec["out_dir"])
    mode = spec["mode"]
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    from spikenas import arch, data, report, score, search, snn
    from spikenas.memmodel import MemoryBudget
    from spikenas.snn import LIFParams

    tracer = None
    load_dataset, sample_batch = data.load_dataset, data.sample_batch
    write_report, write_candidate_log = report.write_report, report.write_candidate_log
    run_search = search.search_random if wl.iterations else search.search_memory_aware
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"search": search, "score": score, "snn": snn})
        load_dataset = tracer.wrap(load_dataset, "data.load_dataset")
        sample_batch = tracer.wrap(sample_batch, "data.sample_batch")
        write_report = tracer.wrap(write_report, "report.write_report")
        write_candidate_log = tracer.wrap(write_candidate_log,
                                          "report.write_candidate_log")
        run_search = tracer.wrap(run_search, "search", root=True)

    seed = wl.run_seed(spec["input_id"])
    dataset = load_dataset("cifar10", spec["data_dir"])
    sample_batch(dataset, wl.batch_size, seed)
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - t0}
    if mode == "setup":
        Path(out, "result.json").write_text(json.dumps(result))
        return 0

    cpu0 = _cpu_s()
    cfg = search.SearchConfig(
        dataset=dataset,
        opset=arch.OPSETS[wl.opset],
        num_cells=wl.cells,
        macro=arch.MacroConfig(stem_channels=wl.stem_channels,
                               num_classes=wl.num_classes),
        budget=MemoryBudget(wl.budget) if wl.budget else None,
        seed=seed,
        batch_size=wl.batch_size,
        lif=LIFParams(v_threshold=wl.v_threshold, timesteps=wl.timesteps),
        jobs=spec["jobs"],
        strategy=wl.strategy,
        carryover=wl.carryover,
        input_coding=wl.input_coding,
        keep_candidate_log=True,
    )
    t_search = time.perf_counter()
    if wl.iterations:
        found = run_search(cfg, wl.iterations)
    else:
        found = run_search(cfg)
    search_s = time.perf_counter() - t_search
    doc = report.from_search_report(found, wl.scenario, "cifar10", 32)
    write_report(out / "report.json", doc)
    write_candidate_log(out / "candidates.jsonl", found.candidate_log)
    t_end = time.perf_counter()
    result.update(
        e2e_s=t_end - t_setup,
        search_s=search_s,
        cpu_s=_cpu_s() - cpu0,
        peak_rss_mb=_peak_rss_mb(),
        jobs=spec["jobs"],
    )
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.tsv")
        result["missing_targets"] = tracer.missing
    Path(out, "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
