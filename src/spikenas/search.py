"""Memory-aware per-cell search, random baseline, and ablation runner.

`SearchConfig.strategy` decides what a search visits; `search_memory_aware`
and `search_random` set it, and `ablate_operation` follows it.  The
memory-aware search runs one phase per cell: phase 1 fixes the best
feasible architecture shared by all cells, and each later phase
re-searches one cell over the full space while the earlier cells keep the
best so far, ``num_cells * len(opset) ** 6`` visits in all.  The random
baseline is one shared-cell phase over seeded draws with replacement.  A
phase scores each distinct index once and keeps one record per visit, in
visit order, so a repeated draw is counted and logged at every draw.
Over-budget candidates are skipped without scoring.

Every candidate's weights are seeded from (run seed, phase, index), and
ties go to the lowest (phase, index), so reports do not depend on the
worker pool size.  A `SearchReport` holds the `SearchConfig` that ran and
the winning `CandidateRecord`, whose phase and index replay its score.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from numbers import Real
from typing import Callable

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
    is_int,
    search_space_size,
)
from .blas import single_blas_thread, thread_map
from .data import Dataset, sample_batch
from .errors import SpikeNasError
from .memmodel import MemoryBudget, count_network_params, within_budget
from .snn import CODE_MODES, INPUT_CODINGS, LIFParams

MEMORY_AWARE = "memory_aware"
RANDOM = "random"

# Carryover policies between phases: fix earlier cells to the best
# configuration found so far, or keep the last-tried candidate in place
# the way the in-place nested-loop formulation leaves them.
CARRY_BEST = "best"
CARRY_LITERAL = "literal"

ScoreFn = Callable[..., score_mod.ScoreResult]

# A phase scored by one worker whose cell-1 conv3x3 edge (batch*H*W*9*C**2 multiply-adds)
# is at or above this maps each batch's sample tiles (`snn.TILE_MACS`) over one thread
# per core: at batch 16, 0.82x as fast at 4 channels, even at 6, 1.26x at 8 (BENCH_19.json).
SPLIT_MACS = 2**23


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
        for name, kind in (("dataset", Dataset), ("opset", OpSet), ("macro", MacroConfig),
                           ("budget", (MemoryBudget, type(None))), ("lif", LIFParams),
                           ("keep_candidate_log", bool), ("alpha", Real)):
            if not isinstance(value := getattr(self, name), kind):
                raise SpikeNasError(f"{name} has the wrong type {type(value).__name__}")
        if not is_int(self.num_cells) or self.num_cells not in (1, 2, 3):
            raise SpikeNasError(f"num_cells must be 1..3, got {self.num_cells}")
        if not is_int(self.jobs) or self.jobs < 1:
            raise SpikeNasError(f"jobs must be >= 1, got {self.jobs}")
        if not is_int(self.batch_size) or self.batch_size < 2:
            raise SpikeNasError(f"batch_size must be >= 2, got {self.batch_size}")
        if not is_int(self.seed) or self.seed < 0:
            raise SpikeNasError(f"seed must be non-negative, got {self.seed}")
        if self.strategy not in (MEMORY_AWARE, RANDOM):
            raise SpikeNasError(f"unknown strategy {self.strategy!r}")
        if self.carryover not in (CARRY_BEST, CARRY_LITERAL):
            raise SpikeNasError(f"unknown carryover policy {self.carryover!r}")
        if isinstance(self.alpha, bool) or not math.isfinite(self.alpha):
            raise SpikeNasError(f"alpha must be a finite number, got {self.alpha}")
        if self.code_mode not in CODE_MODES:
            raise SpikeNasError(f"unknown code_mode {self.code_mode!r}")
        if self.input_coding not in INPUT_CODINGS:
            raise SpikeNasError(f"unknown input_coding {self.input_coding!r}")


@dataclass(frozen=True)
class CandidateRecord:
    """Outcome of visiting one candidate; score is None when skipped."""

    phase: int
    index: int
    n_param: int
    score: float | None

    @property
    def feasible(self) -> bool:
        return self.score is not None


@dataclass(frozen=True)
class SearchReport:
    """One search's outcome: `config` is the SearchConfig that ran, `best` the winning record."""

    config: SearchConfig
    best_arch: NetworkArch
    best: CandidateRecord
    evaluations_total: int
    evaluations_skipped_by_budget: int
    wall_time_s: float
    removed_op: Operation | None = None
    candidate_log: tuple[CandidateRecord, ...] | None = None

    @property
    def best_score(self) -> float:
        return self.best.score

    @property
    def n_param(self) -> int:
        return self.best.n_param

    @property
    def per_cell_best_indices(self) -> tuple[int, ...]:
        return tuple(encode_cell(c, self.config.opset) for c in self.best_arch.cells)

    @property
    def singular(self) -> bool:
        return self.best_score == score_mod.NEG_INF

    @property
    def candidates_visited(self) -> int:
        return self.evaluations_total + self.evaluations_skipped_by_budget


def candidate_seed(run_seed: int, phase: int, index: int) -> int:
    """Weight seed for one candidate, stable across evaluation order."""
    seq = np.random.SeedSequence([run_seed, phase, index])
    return int(seq.generate_state(1)[0])


def _rank(rec: CandidateRecord) -> tuple[float, int, int]:
    """Order of preference: highest score, then the lowest (phase, index)."""
    return rec.score, -rec.phase, -rec.index


def _cells(cfg: SearchConfig, base: tuple[CellArch, ...] | None, phase: int,
           index: int) -> tuple[CellArch, ...]:
    """Candidate `index` as every cell in phase 1, else as cell `phase` of `base`."""
    cand = decode_cell(index, cfg.opset)
    if phase == 1:
        return (cand,) * cfg.num_cells
    cells = list(base)
    cells[phase - 1] = cand
    return tuple(cells)


def _visit(cfg: SearchConfig, pixels: np.ndarray, score_fn: ScoreFn, shards: int,
           base: tuple[CellArch, ...] | None, phase: int,
           index: int) -> CandidateRecord:
    net = build_network(_cells(cfg, base, phase, index), cfg.macro)
    n_param = count_network_params(net)
    if not within_budget(n_param, cfg.budget):
        return CandidateRecord(phase, index, n_param, None)
    result = score_fn(net, pixels, cfg.lif,
                      candidate_seed(cfg.seed, phase, index), cfg.alpha,
                      code_mode=cfg.code_mode, input_coding=cfg.input_coding,
                      shards=shards)
    return CandidateRecord(phase, index, n_param, result.value)


def _search(cfg: SearchConfig, score_fn: ScoreFn | None,
            iterations: int | None = None) -> SearchReport:
    """Run the phases `cfg.strategy` names; count, log and reduce to the best."""
    score_fn = score_fn or score_mod.score_candidate
    start = time.perf_counter()
    space = search_space_size(cfg.opset)
    if cfg.strategy == RANDOM:
        if not is_int(iterations) or iterations < 1:
            raise SpikeNasError(f"iterations must be >= 1, got {iterations}")
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        phases = [rng.integers(0, space, size=iterations).tolist()]
        none_fit = f"none of the {iterations} drawn candidates fit"
    else:
        phases = [range(space)] * cfg.num_cells
        none_fit = f"all {space} shared-cell candidates exceed"
    pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed).pixels
    _, h, w = cfg.macro.input_shape
    big = cfg.batch_size * h * w * 9 * cfg.macro.stem_channels ** 2 >= SPLIT_MACS
    affinity = getattr(os, "sched_getaffinity", None)  # the CPUs this process may use
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1

    best: CandidateRecord | None = None
    total = skipped = 0
    log: list[CandidateRecord] = []
    with single_blas_thread():
        for phase, indices in enumerate(phases, 1):
            if phase == 1:
                base = None
            elif cfg.carryover == CARRY_LITERAL:
                base = (decode_cell(space - 1, cfg.opset),) * cfg.num_cells
            else:
                base = best_cells
            distinct = list(dict.fromkeys(indices))
            workers = min(cfg.jobs, cores, len(distinct))
            shards = min(cores, cfg.batch_size) if workers == 1 and big else 1
            visit = partial(_visit, cfg, pixels, score_fn, shards, base, phase)
            by_index = dict(zip(distinct, thread_map(visit, distinct, workers)))
            records = [by_index[i] for i in indices]
            feasible = [rec for rec in records if rec.feasible]
            total += len(feasible)
            skipped += len(records) - len(feasible)
            if cfg.keep_candidate_log:
                log.extend(records)
            best = max(feasible + ([best] if best else []), key=_rank, default=None)
            if best is None:
                raise SpikeNasError(f"{none_fit} the budget of {cfg.budget.max_params} parameters")
            if best.phase == phase:  # decode the phase's winner once
                best_cells = _cells(cfg, base, phase, best.index)

    return SearchReport(
        config=cfg,
        best_arch=build_network(best_cells, cfg.macro),
        best=best,
        evaluations_total=total,
        evaluations_skipped_by_budget=skipped,
        wall_time_s=time.perf_counter() - start,
        candidate_log=tuple(log) if cfg.keep_candidate_log else None,
    )


def search_memory_aware(cfg: SearchConfig, *,
                        score_fn: ScoreFn | None = None) -> SearchReport:
    """Per-cell consecutive search under the configured memory budget."""
    return _search(replace(cfg, strategy=MEMORY_AWARE), score_fn)


def search_random(cfg: SearchConfig, iterations: int, *,
                  score_fn: ScoreFn | None = None) -> SearchReport:
    """Baseline: seeded uniform draws of one shared cell architecture.

    Draws are with replacement; a repeated index is scored once, since it
    would reuse the same weight seed, and logged at every draw.  The budget
    filter applies exactly as in the memory-aware search.
    """
    return _search(replace(cfg, strategy=RANDOM), score_fn, iterations)


def ablated_opset(opset: OpSet, removed: Operation) -> OpSet:
    """`opset` without `removed`, refused if fewer than 2 operations remain."""
    sub = opset.without(removed)
    if len(sub) < 2:
        raise SpikeNasError(
            f"removing {removed.label} leaves {len(sub)} operation(s); "
            "need at least 2 to search"
        )
    return sub


def ablate_operation(cfg: SearchConfig, removed: Operation, *,
                     iterations: int = 5000,
                     score_fn: ScoreFn | None = None) -> SearchReport:
    """Re-run the search `cfg.strategy` names with one operation removed."""
    sub = replace(cfg, opset=ablated_opset(cfg.opset, removed))
    return replace(_search(sub, score_fn, iterations), removed_op=removed)
