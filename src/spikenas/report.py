"""Machine-readable run reports.

`from_search_report` owns the report schema: it turns a search result
into the report's JSON object, a flat field set with the best
architecture nested under `best_arch` as (operation-set name, per-cell
candidate indices, macro configuration).  `score_fields` writes every
score, in reports, candidate logs and `score` output: a singular score
is JSON null with `singular` set, since strict JSON has no -inf.
Reports also export as one-row-per-run CSV for plotting, and candidate
logs stream as line-delimited JSON records.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from . import __version__
from .score import NEG_INF
from .search import CandidateRecord, SearchReport

TABLE_COLUMNS = (
    "scenario", "dataset", "opset", "cells", "budget_params", "best_score",
    "n_param", "mem_bits", "evaluations_total", "evaluations_skipped",
    "seed", "wall_time_ms",
)


def score_fields(score: float | None, key: str = "score") -> dict:
    """`key` and `singular` for a score; strict JSON has no -inf, so a
    singular score is written as null."""
    singular = score == NEG_INF
    return {key: None if singular else score, "singular": singular}


def from_search_report(result: SearchReport, scenario: str | None,
                       dataset: str, bit_precision: int) -> dict:
    """The report's JSON object for one search."""
    return {
        "scenario": scenario,
        "dataset": dataset,
        "opset": result.opset_name,
        "cells": result.num_cells,
        "budget": None if result.budget is None else asdict(result.budget),
        "best_arch": {"cell_indices": list(result.per_cell_best_indices),
                      "opset": result.opset_name,
                      "macro": asdict(result.best_arch.macro)},
        **score_fields(result.best_score, "best_score"),
        "n_param": result.n_param,
        "mem_bits": result.n_param * bit_precision,
        "evaluations_total": result.evaluations_total,
        "evaluations_skipped": result.evaluations_skipped_by_budget,
        "seed": result.seed,
        "wall_time_ms": result.wall_time_s * 1000.0,
        "engine_version": __version__,
        "strategy": result.strategy,
        "iterations": result.iterations,
        "removed_op": None if result.removed_op is None else result.removed_op.label,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def write_report(path, doc: dict) -> None:
    Path(path).write_text(to_json(doc) + "\n", encoding="utf-8")


def append_table_row(path, doc: dict) -> None:
    """Append one flat CSV row per run, writing the header on first use."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    row = {col: doc[col] for col in TABLE_COLUMNS if col in doc}
    row["scenario"] = doc["scenario"] or ""
    row["budget_params"] = doc["budget"]["max_params"] if doc["budget"] else ""
    row["best_score"] = "" if doc["best_score"] is None else repr(doc["best_score"])
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
                **score_fields(rec.score),
            }, allow_nan=False))
            fh.write("\n")
