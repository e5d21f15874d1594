"""Memory-aware per-cell search, random baseline, and ablation runner.

The memory-aware search proceeds in one phase per cell.  Phase 1 tries
every candidate as the shared architecture of all cells and fixes the
best feasible one; each later phase re-searches a single cell over the
full per-cell space while the earlier cells keep the best configuration
found so far.  Candidates whose parameter count exceeds the budget are
skipped without scoring, so a run visits exactly
``num_cells * len(opset) ** 6`` candidates but may evaluate far fewer.

Scores are reproducible and schedule-independent: every candidate's
weights are seeded from (run seed, phase, candidate index) and the
best-candidate reduction breaks ties toward the lowest (phase, index),
so reports do not depend on the worker pool size.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import score as score_mod
from .arch import (
    CellArch,
    MacroConfig,
    NetworkArch,
    Operation,
    OpSet,
    build_network,
    decode_cell,
    encode_cell,
    search_space_size,
)
from .data import Dataset, sample_batch
from .errors import NoFeasibleArchitecture, OpSetTooSmall
from .memmodel import MemoryBudget, count_network_params, within_budget
from .snn import LIFParams

MEMORY_AWARE = "memory_aware"
RANDOM = "random"

# Carryover policies between phases: fix earlier cells to the best
# configuration found so far, or keep the last-tried candidate in place
# the way the in-place nested-loop formulation leaves them.
CARRY_BEST = "best"
CARRY_LITERAL = "literal"

ScoreFn = Callable[..., score_mod.ScoreResult]


@dataclass(frozen=True, eq=False)
class SearchConfig:
    dataset: Dataset
    opset: OpSet
    num_cells: int
    macro: MacroConfig = MacroConfig()
    budget: MemoryBudget | None = None
    seed: int = 0
    batch_size: int = 16
    lif: LIFParams = LIFParams()
    alpha: float = 1.0
    jobs: int = 1
    strategy: str = MEMORY_AWARE
    carryover: str = CARRY_BEST
    code_mode: str = "any"
    input_coding: str = "direct"
    keep_candidate_log: bool = False

    def __post_init__(self) -> None:
        if self.num_cells not in (1, 2, 3):
            raise ValueError(f"num_cells must be 1..3, got {self.num_cells}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.strategy not in (MEMORY_AWARE, RANDOM):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.carryover not in (CARRY_BEST, CARRY_LITERAL):
            raise ValueError(f"unknown carryover policy {self.carryover!r}")


@dataclass(frozen=True)
class CandidateRecord:
    """Outcome of visiting one candidate; score is None when skipped."""

    phase: int
    index: int
    n_param: int
    feasible: bool
    score: float | None


@dataclass(frozen=True)
class SearchReport:
    opset_name: str
    num_cells: int
    strategy: str
    best_arch: NetworkArch
    per_cell_best_indices: tuple[int, ...]
    best_score: float
    singular: bool
    n_param: int
    evaluations_total: int
    evaluations_skipped_by_budget: int
    wall_time_s: float
    seed: int
    budget: MemoryBudget | None
    iterations: int | None = None
    removed_op: Operation | None = None
    candidate_log: tuple[CandidateRecord, ...] | None = None

    @property
    def candidates_visited(self) -> int:
        return self.evaluations_total + self.evaluations_skipped_by_budget


def candidate_seed(run_seed: int, phase: int, index: int) -> int:
    """Weight seed for one candidate, stable across evaluation order."""
    seq = np.random.SeedSequence([run_seed, phase, index])
    return int(seq.generate_state(1)[0])


def _beats(rec: CandidateRecord, best: CandidateRecord | None) -> bool:
    if best is None:
        return True
    if rec.score != best.score:
        return rec.score > best.score
    return (rec.phase, rec.index) < (best.phase, best.index)


def _cells(cfg: SearchConfig, base: tuple[CellArch, ...] | None, phase: int,
           index: int) -> tuple[CellArch, ...]:
    """Candidate `index` as every cell in phase 1, else as cell `phase` of `base`."""
    cand = decode_cell(index, cfg.opset)
    if phase == 1:
        return (cand,) * cfg.num_cells
    cells = list(base)
    cells[phase - 1] = cand
    return tuple(cells)


def _visit(cfg: SearchConfig, pixels: np.ndarray, score_fn: ScoreFn,
           base: tuple[CellArch, ...] | None, phase: int,
           index: int) -> CandidateRecord:
    index = int(index)
    net = build_network(_cells(cfg, base, phase, index), cfg.macro)
    n_param = count_network_params(net)
    if not within_budget(n_param, cfg.budget):
        return CandidateRecord(phase, index, n_param, False, None)
    result = score_fn(net, pixels, cfg.lif,
                      candidate_seed(cfg.seed, phase, index), cfg.alpha,
                      code_mode=cfg.code_mode, input_coding=cfg.input_coding)
    return CandidateRecord(phase, index, n_param, True, result.value)


def _run_all(visit: Callable[[int], CandidateRecord], indices: Sequence[int],
             jobs: int) -> list[CandidateRecord]:
    workers = min(jobs, os.cpu_count() or 1, len(indices))
    if workers <= 1:
        return [visit(i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(visit, indices))


def _search(cfg: SearchConfig, score_fn: ScoreFn | None,
            draws: np.ndarray | None) -> SearchReport:
    """Visit, count, log and reduce to the best feasible candidate.

    With `draws` None this is the memory-aware search: one phase per cell
    over the whole space.  Otherwise it is one shared-cell phase over
    the drawn indices.
    """
    score_fn = score_fn or score_mod.score_candidate
    start = time.perf_counter()
    pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed).pixels
    space = search_space_size(cfg.opset)
    phases = cfg.num_cells if draws is None else 1

    best: CandidateRecord | None = None
    best_cells: tuple[CellArch, ...] | None = None
    total = skipped = 0
    log: list[CandidateRecord] | None = [] if cfg.keep_candidate_log else None

    for phase in range(1, phases + 1):
        if phase == 1:
            base = None
        elif cfg.carryover == CARRY_LITERAL:
            base = (decode_cell(space - 1, cfg.opset),) * cfg.num_cells
        else:
            base = best_cells
        visit = partial(_visit, cfg, pixels, score_fn, base, phase)
        indices = range(space) if draws is None else draws
        for rec in _run_all(visit, indices, cfg.jobs):
            if rec.feasible:
                total += 1
            else:
                skipped += 1
            if log is not None:
                log.append(rec)
            if rec.feasible and _beats(rec, best):
                best = rec
                best_cells = _cells(cfg, base, phase, rec.index)
        if best is None:
            what = (f"all {space} shared-cell candidates exceed" if draws is None
                    else f"none of the {len(draws)} drawn candidates fit")
            raise NoFeasibleArchitecture(
                f"{what} the budget of {cfg.budget.max_params} parameters"
            )

    return SearchReport(
        opset_name=cfg.opset.name,
        num_cells=cfg.num_cells,
        strategy=MEMORY_AWARE if draws is None else RANDOM,
        best_arch=build_network(best_cells, cfg.macro),
        per_cell_best_indices=tuple(encode_cell(c, cfg.opset) for c in best_cells),
        best_score=best.score,
        singular=best.score == score_mod.NEG_INF,
        n_param=best.n_param,
        evaluations_total=total,
        evaluations_skipped_by_budget=skipped,
        wall_time_s=time.perf_counter() - start,
        seed=cfg.seed,
        budget=cfg.budget,
        iterations=None if draws is None else len(draws),
        candidate_log=tuple(log) if log is not None else None,
    )


def search_memory_aware(cfg: SearchConfig, *,
                        score_fn: ScoreFn | None = None) -> SearchReport:
    """Per-cell consecutive search under the configured memory budget."""
    return _search(cfg, score_fn, None)


def search_random(cfg: SearchConfig, iterations: int, *,
                  score_fn: ScoreFn | None = None) -> SearchReport:
    """Baseline: seeded uniform draws of one shared cell architecture.

    Draws are with replacement; a repeated index reuses the same derived
    weight seed and therefore the same score.  The budget filter applies
    exactly as in the memory-aware search.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    draws = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 1])
    ).integers(0, search_space_size(cfg.opset), size=iterations)
    return _search(cfg, score_fn, draws)


def ablate_operation(cfg: SearchConfig, removed: Operation, *,
                     iterations: int = 5000,
                     score_fn: ScoreFn | None = None) -> SearchReport:
    """Re-run the configured search with one operation removed."""
    if removed not in cfg.opset:
        raise ValueError(
            f"{removed.label} is not in operation set {cfg.opset.name!r}"
        )
    if len(cfg.opset) - 1 < 2:
        raise OpSetTooSmall(
            f"removing {removed.label} leaves {len(cfg.opset) - 1} operation(s); "
            "need at least 2 to search"
        )
    sub = replace(cfg, opset=cfg.opset.without(removed))
    if cfg.strategy == RANDOM:
        report = search_random(sub, iterations, score_fn=score_fn)
    else:
        report = search_memory_aware(sub, score_fn=score_fn)
    return replace(report, removed_op=removed)
