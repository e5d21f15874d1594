"""Byte-for-byte pin of the report, the CSV table row and the candidate log.

Five stub-scored library searches go through `report.from_search_report`,
`to_json`, `append_table_row` and `write_candidate_log`; the wall time is
fixed so that the written text is deterministic.  The expected bytes live
in `report_bytes.txt` next to this file (CSV rows end in CRLF, so the file
is marked binary in `.gitattributes`).
"""

import difflib
from dataclasses import replace
from pathlib import Path

import pytest

from spikenas import report as report_mod
from spikenas.arch import MacroConfig, Operation, THREE_OPS, TWO_OPS
from spikenas.data import synth_dataset
from spikenas.memmodel import MemoryBudget
from spikenas.score import NEG_INF, ScoreResult
from spikenas.search import (
    SearchConfig,
    ablate_operation,
    search_memory_aware,
    search_random,
)
from spikenas.snn import LIFParams

EXPECTED = Path(__file__).with_name("report_bytes.txt")


def stub_score(net, batch, lif, seed, alpha, **kwargs):
    return ScoreResult(value=(seed % 100003) / 100003.0)


def singular_score(net, batch, lif, seed, alpha, **kwargs):
    return ScoreResult(value=NEG_INF)


def _runs():
    """(name, search result, scenario, bit precision) for each covered case."""
    cfg = SearchConfig(dataset=synth_dataset(64, 4, seed=11), opset=TWO_OPS,
                       num_cells=1, macro=MacroConfig(stem_channels=4, num_classes=4),
                       seed=42, batch_size=4, lif=LIFParams(v_threshold=0.2, timesteps=2),
                       keep_candidate_log=True)
    return [
        ("finite", search_memory_aware(cfg, score_fn=stub_score), "1C2O", 16),
        ("singular", search_memory_aware(cfg, score_fn=singular_score), "1C2O", 16),
        ("budget", search_memory_aware(replace(cfg, budget=MemoryBudget(500, 8)),
                                       score_fn=stub_score), "1C2O_M", 8),
        ("ablate", ablate_operation(replace(cfg, opset=THREE_OPS),
                                    Operation.from_label("avgpool3x3"),
                                    score_fn=stub_score), None, 16),
        ("random", search_random(cfg, 5, score_fn=stub_score), "1C2O", 16),
    ]


def _render(tmp_path: Path) -> str:
    table = tmp_path / "runs.csv"
    parts = []
    for name, result, scenario, bits in _runs():
        result = replace(result, wall_time_s=0.25)
        doc = report_mod.from_search_report(result, scenario, "synth", bits)
        log = tmp_path / f"{name}.ndjson"
        report_mod.write_candidate_log(log, result.candidate_log)
        report_mod.append_table_row(table, doc)
        parts += [f"=== {name} report ===\n", report_mod.to_json(doc) + "\n",
                  f"=== {name} candidate log ===\n", log.read_bytes().decode("utf-8")]
    parts += ["=== table ===\n", table.read_bytes().decode("utf-8")]
    return "".join(parts)


def test_report_bytes_are_pinned(tmp_path):
    got = _render(tmp_path)
    want = EXPECTED.read_bytes().decode("utf-8")
    if got != want:
        diff = "".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                            "expected", "written", n=2))
        pytest.fail("report bytes changed:\n" + diff[:4000])
