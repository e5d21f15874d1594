"""Machine-readable run reports.

A report is a flat JSON document with a stable field set; the best
architecture is serialized as (operation-set name, per-cell candidate
indices, macro configuration).  A singular best score is stored as JSON
null with `singular` set, since strict JSON has no -inf.  Reports also
export as one-row-per-run CSV for plotting, and candidate logs stream
as line-delimited JSON records.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable

from .arch import MacroConfig
from .memmodel import MemoryBudget
from .search import CandidateRecord, SearchReport

ENGINE_VERSION = "0.1.0"

REPORT_FIELDS = (
    "scenario", "dataset", "opset", "cells", "budget", "best_arch",
    "best_score", "singular", "n_param", "mem_bits", "evaluations_total",
    "evaluations_skipped", "seed", "wall_time_ms", "engine_version",
    "strategy", "iterations", "removed_op",
)

TABLE_COLUMNS = (
    "scenario", "dataset", "opset", "cells", "budget_params", "best_score",
    "n_param", "mem_bits", "evaluations_total", "evaluations_skipped",
    "seed", "wall_time_ms",
)


@dataclass(frozen=True)
class ReportDoc:
    scenario: str | None
    dataset: str
    opset: str
    cells: int
    budget: MemoryBudget | None
    cell_indices: tuple[int, ...]
    macro: MacroConfig
    best_score: float
    singular: bool
    n_param: int
    mem_bits: int
    evaluations_total: int
    evaluations_skipped: int
    seed: int
    wall_time_ms: float
    engine_version: str = ENGINE_VERSION
    strategy: str = "memory_aware"
    iterations: int | None = None
    removed_op: str | None = None

    def without_wall_time(self) -> "ReportDoc":
        return replace(self, wall_time_ms=0.0)


def from_search_report(result: SearchReport, scenario: str | None,
                       dataset: str, bit_precision: int) -> ReportDoc:
    return ReportDoc(
        scenario=scenario,
        dataset=dataset,
        opset=result.opset_name,
        cells=result.num_cells,
        budget=result.budget,
        cell_indices=result.per_cell_best_indices,
        macro=result.best_arch.macro,
        best_score=result.best_score,
        singular=result.singular,
        n_param=result.n_param,
        mem_bits=result.n_param * bit_precision,
        evaluations_total=result.evaluations_total,
        evaluations_skipped=result.evaluations_skipped_by_budget,
        seed=result.seed,
        wall_time_ms=result.wall_time_s * 1000.0,
        strategy=result.strategy,
        iterations=result.iterations,
        removed_op=None if result.removed_op is None else result.removed_op.label,
    )


def to_dict(doc: ReportDoc) -> dict:
    """JSON form: cell indices and macro nest under best_arch; a singular score is null."""
    d = asdict(doc)
    d["best_arch"] = {"cell_indices": d.pop("cell_indices"), "opset": doc.opset,
                      "macro": d.pop("macro")}
    if doc.singular:
        d["best_score"] = None
    return d


def from_dict(d: dict) -> ReportDoc:
    kw = {f.name: d[f.name] for f in fields(ReportDoc)
          if f.name not in ("cell_indices", "macro")}
    if kw["budget"] is not None:
        kw["budget"] = MemoryBudget(**kw["budget"])
    if kw["singular"]:
        kw["best_score"] = -math.inf
    best = d["best_arch"]
    macro = dict(best["macro"], input_shape=tuple(best["macro"]["input_shape"]))
    return ReportDoc(**kw, cell_indices=tuple(best["cell_indices"]),
                     macro=MacroConfig(**macro))


def to_json(doc: ReportDoc) -> str:
    return json.dumps(to_dict(doc), indent=2, sort_keys=True, allow_nan=False)


def from_json(text: str) -> ReportDoc:
    return from_dict(json.loads(text))


def write_report(path, doc: ReportDoc) -> None:
    Path(path).write_text(to_json(doc) + "\n", encoding="utf-8")


def read_report(path) -> ReportDoc:
    return from_json(Path(path).read_text(encoding="utf-8"))


def append_table_row(path, doc: ReportDoc) -> None:
    """Append one flat CSV row per run, writing the header on first use."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    row = {
        "scenario": doc.scenario or "",
        "dataset": doc.dataset,
        "opset": doc.opset,
        "cells": doc.cells,
        "budget_params": doc.budget.max_params if doc.budget else "",
        "best_score": "" if doc.singular else repr(doc.best_score),
        "n_param": doc.n_param,
        "mem_bits": doc.mem_bits,
        "evaluations_total": doc.evaluations_total,
        "evaluations_skipped": doc.evaluations_skipped,
        "seed": doc.seed,
        "wall_time_ms": doc.wall_time_ms,
    }
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerow(row)


def write_candidate_log(path, records: Iterable[CandidateRecord]) -> None:
    """One JSON object per visited candidate, in visit order."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "phase": rec.phase,
                "index": rec.index,
                "n_param": rec.n_param,
                "feasible": rec.feasible,
                "score": None if rec.score in (None, -math.inf) else rec.score,
                "singular": rec.score == -math.inf,
            }, allow_nan=False))
            fh.write("\n")
