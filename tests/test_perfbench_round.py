"""One benchmark round through the engine, checked against its pinned reference.

`tests/test_tracer_targets.py` checks the names and keywords
`perfbench/worker.py` passes to the engine; this runs the worker itself,
so an attribute it reads off the returned report, or a report field the
harness checks, fails here rather than as a failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
WORKLOAD = "tiny_2c3o_m"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds perfbench/ to it
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_round_matches_its_reference(bench, tmp_path):
    wl = bench.WORKLOADS[WORKLOAD]
    bench.write_inputs(wl, 0, tmp_path / "data")
    spec = {"workload": WORKLOAD, "input_id": 0, "src": str(bench.SRC),
            "data_dir": str(tmp_path / "data"), "jobs": wl.jobs, "mode": "search"}
    bench.run_child(spec, tmp_path / "round")
    visited, mismatched, problems = bench.check_round(tmp_path / "round",
                                                      bench.load_reference(WORKLOAD, 0))
    assert (mismatched, problems) == (0, [])
    assert visited > 0
