"""Machine-readable run reports.

`from_search_report` owns the report schema: it reads the settings from
a search result's `config` and writes the report's JSON object, a flat
field set with the best architecture nested under `best_arch` as
(opset name, per-cell candidate indices, macro); the macro's `bias`
switch fills all four of the schema's bias keys.  `score_fields` writes
every score, in reports, candidate logs and `score` output: a singular
score is JSON null with `singular` set, since strict JSON has no -inf.
Reports also export as one-row-per-run CSV for plotting, and candidate
logs stream as line-delimited JSON records.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .data import opened
from .memmodel import footprint
from .score import NEG_INF
from .search import RANDOM, CandidateRecord, SearchReport

TABLE_COLUMNS = (
    "scenario", "dataset", "opset", "cells", "budget_params", "best_score",
    "n_param", "mem_bits", "evaluations_total", "evaluations_skipped",
    "seed", "wall_time_ms",
)
_BIAS_KEYS = ("stem_bias", "cell_bias", "down_bias", "fc_bias")


def score_fields(score: float | None, key: str = "score") -> dict:
    """`key` and `singular` for a score; strict JSON has no -inf, so a
    singular score is written as null."""
    singular = score == NEG_INF
    return {key: None if singular else score, "singular": singular}


def from_search_report(result: SearchReport, scenario: str | None,
                       dataset: str, bit_precision: int) -> dict:
    """The report's JSON object for one search."""
    cfg = result.config
    macro = asdict(result.best_arch.macro)
    macro.update(dict.fromkeys(_BIAS_KEYS, macro.pop("bias")))
    return _plain({
        "scenario": scenario,
        "dataset": dataset,
        "opset": cfg.opset.name,
        "cells": cfg.num_cells,
        "budget": None if cfg.budget is None else asdict(cfg.budget),
        "best_arch": {"cell_indices": list(result.per_cell_best_indices),
                      "opset": cfg.opset.name,
                      "macro": macro},
        **score_fields(result.best_score, "best_score"),
        "n_param": result.n_param,
        "mem_bits": footprint(result.n_param, bit_precision).bits,
        "evaluations_total": result.evaluations_total,
        "evaluations_skipped": result.evaluations_skipped_by_budget,
        "seed": cfg.seed,
        "wall_time_ms": result.wall_time_s * 1000.0,
        "engine_version": __version__,
        "strategy": cfg.strategy,
        "iterations": cfg.iterations if cfg.strategy == RANDOM else None,
        "removed_op": None if result.removed_op is None else result.removed_op.label,
    })


def _plain(value):
    """`value` with numpy scalars, which a library config may hold, as Python numbers."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    return value.item() if isinstance(value, np.generic) else value


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def write_report(path, doc: dict) -> None:
    with opened(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(doc) + "\n")


def append_table_row(path, doc: dict) -> None:
    """Append one flat CSV row per run, writing the header on first use."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    row = {col: doc[col] for col in TABLE_COLUMNS if col in doc}
    row["scenario"] = doc["scenario"] or ""
    row["budget_params"] = doc["budget"]["max_params"] if doc["budget"] else ""
    row["best_score"] = "" if doc["best_score"] is None else repr(doc["best_score"])
    with opened(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerow(row)


def write_candidate_log(path, records: Iterable[CandidateRecord]) -> None:
    """One JSON object per visited candidate, in visit order."""
    with opened(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "phase": rec.phase,
                "index": rec.index,
                "n_param": rec.n_param,
                "feasible": rec.feasible,
                **score_fields(rec.score),
            }, allow_nan=False))
            fh.write("\n")
