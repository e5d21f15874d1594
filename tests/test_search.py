from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    exhaustive_best_shared,
    min_shared_candidate_params,
    reference_literal_carryover,
    reference_memory_aware,
)
from spikenas.arch import FIVE_OPS, Operation, THREE_OPS, TWO_OPS, decode_cell, encode_cell
from spikenas.errors import NoFeasibleArchitecture, OpSetTooSmall
from spikenas.memmodel import MemoryBudget
from spikenas.score import NEG_INF, ScoreResult
from spikenas import search as search_mod
from spikenas.search import (
    CARRY_LITERAL,
    RANDOM,
    SearchConfig,
    candidate_seed,
    search_memory_aware,
    search_random,
    ablate_operation,
)


def stub_score(net, batch, lif, seed, alpha, **kwargs):
    """Cheap deterministic stand-in: value derived from the weight seed."""
    return ScoreResult(value=(seed % 100003) / 100003.0, singular=False)


def constant_score(net, batch, lif, seed, alpha, **kwargs):
    return ScoreResult(value=5.0, singular=False)


@pytest.fixture
def base_cfg(small_dataset, tiny_macro, tiny_lif):
    return SearchConfig(dataset=small_dataset, opset=TWO_OPS, num_cells=1,
                        macro=tiny_macro, seed=42, batch_size=4, lif=tiny_lif)


class TestConfigValidation:
    def test_bounds(self, small_dataset, tiny_macro, tiny_lif):
        def cfg(**kw):
            base = dict(dataset=small_dataset, opset=TWO_OPS, num_cells=1,
                        macro=tiny_macro, seed=0, batch_size=4, lif=tiny_lif)
            base.update(kw)
            return SearchConfig(**base)

        for bad in (dict(num_cells=0), dict(num_cells=4), dict(jobs=0),
                    dict(batch_size=1), dict(seed=-1),
                    dict(strategy="anneal"), dict(carryover="worst")):
            with pytest.raises(ValueError):
                cfg(**bad)


class TestCandidateSeed:
    def test_distinct_and_stable(self):
        seeds = {candidate_seed(42, p, i) for p in (1, 2) for i in range(100)}
        assert len(seeds) == 200
        assert candidate_seed(42, 1, 7) == candidate_seed(42, 1, 7)
        assert candidate_seed(42, 1, 7) != candidate_seed(43, 1, 7)


class TestMemoryAware:
    def test_candidate_count_law_two_cells(self, base_cfg):
        cfg = replace(base_cfg, num_cells=2)
        report = search_memory_aware(cfg, score_fn=stub_score)
        assert report.candidates_visited == 2 * 64 == 128
        assert report.evaluations_total == 128
        assert report.evaluations_skipped_by_budget == 0

    @pytest.mark.parametrize("num_cells", [1, 2, 3])
    def test_matches_sequential_reference(self, base_cfg, num_cells):
        cfg = replace(base_cfg, num_cells=num_cells)
        report = search_memory_aware(cfg, score_fn=stub_score)
        ref = reference_memory_aware(cfg, stub_score)
        assert report.best_arch.cells == ref["cells"]
        assert report.best_score == ref["score"]
        assert report.n_param == ref["n_param"]
        assert report.evaluations_total == ref["scored"]
        assert report.evaluations_skipped_by_budget == ref["skipped"]

    def test_matches_reference_with_budget(self, base_cfg):
        budget = MemoryBudget(
            min_shared_candidate_params(TWO_OPS, 2, base_cfg.macro) + 500
        )
        cfg = replace(base_cfg, num_cells=2, budget=budget)
        report = search_memory_aware(cfg, score_fn=stub_score)
        ref = reference_memory_aware(cfg, stub_score)
        assert report.best_arch.cells == ref["cells"]
        assert report.evaluations_skipped_by_budget == ref["skipped"] > 0
        assert report.candidates_visited == 128

    def test_matches_exhaustive_argmax_one_cell(self, base_cfg):
        report = search_memory_aware(base_cfg, score_fn=stub_score)
        idx, val, scored = exhaustive_best_shared(base_cfg, stub_score)
        assert report.per_cell_best_indices == (idx,)
        assert report.best_score == val
        assert report.evaluations_total == scored

    def test_real_scorer_matches_exhaustive(self, base_cfg):
        report = search_memory_aware(base_cfg)
        idx, val, _ = exhaustive_best_shared(
            base_cfg, __import__("spikenas.score", fromlist=["score_candidate"]).score_candidate
        )
        assert report.per_cell_best_indices == (idx,)
        assert report.best_score == val
        assert not report.singular

    def test_no_feasible_architecture(self, base_cfg):
        floor = min_shared_candidate_params(TWO_OPS, 1, base_cfg.macro)
        cfg = replace(base_cfg, budget=MemoryBudget(floor - 1))
        with pytest.raises(NoFeasibleArchitecture):
            search_memory_aware(cfg, score_fn=stub_score)

    def test_budget_floor_is_feasible(self, base_cfg):
        floor = min_shared_candidate_params(TWO_OPS, 1, base_cfg.macro)
        cfg = replace(base_cfg, budget=MemoryBudget(floor))
        report = search_memory_aware(cfg, score_fn=stub_score)
        assert report.n_param == floor

    def test_returned_architecture_respects_budget(self, base_cfg):
        rng = np.random.default_rng(0)
        floor = min_shared_candidate_params(TWO_OPS, 1, base_cfg.macro)
        for _ in range(8):
            budget = MemoryBudget(int(rng.integers(floor, 4 * floor)))
            cfg = replace(base_cfg, budget=budget)
            report = search_memory_aware(cfg, score_fn=stub_score)
            assert report.n_param <= budget.max_params

    def test_budget_relaxation_never_hurts(self, base_cfg):
        floor = min_shared_candidate_params(TWO_OPS, 1, base_cfg.macro)
        scores = []
        for budget in (floor, 2 * floor, 4 * floor, None):
            cfg = replace(base_cfg, budget=MemoryBudget(budget) if budget else None)
            scores.append(search_memory_aware(cfg, score_fn=stub_score).best_score)
        assert scores == sorted(scores)

    def test_deterministic_across_worker_counts(self, base_cfg):
        with_jobs = lambda j: search_memory_aware(replace(base_cfg, jobs=j),
                                                  score_fn=stub_score)
        r1, r4 = with_jobs(1), with_jobs(4)
        assert r1.best_score == r4.best_score
        assert r1.per_cell_best_indices == r4.per_cell_best_indices
        assert r1.n_param == r4.n_param

    def test_tie_break_prefers_lowest_index(self, base_cfg):
        cfg = replace(base_cfg, num_cells=2)
        report = search_memory_aware(cfg, score_fn=constant_score)
        assert report.per_cell_best_indices == (0, 0)
        assert report.best_score == 5.0

    def test_all_singular_still_returns_first_candidate(self, base_cfg):
        def sentinel_score(net, batch, lif, seed, alpha, **kwargs):
            return ScoreResult(value=NEG_INF, singular=True)

        report = search_memory_aware(base_cfg, score_fn=sentinel_score)
        assert report.singular
        assert report.best_score == NEG_INF
        assert report.per_cell_best_indices == (0,)

    def test_candidate_log_order_and_size(self, base_cfg):
        cfg = replace(base_cfg, num_cells=2, keep_candidate_log=True)
        report = search_memory_aware(cfg, score_fn=stub_score)
        log = report.candidate_log
        assert len(log) == 128
        assert [r.phase for r in log] == [1] * 64 + [2] * 64
        assert [r.index for r in log[:64]] == list(range(64))
        assert all(r.score is not None for r in log)

    def test_literal_carryover_matches_its_reference(self, base_cfg):
        for seed in (0, 1, 2, 3):
            cfg = replace(base_cfg, num_cells=2, seed=seed,
                          carryover=CARRY_LITERAL)
            report = search_memory_aware(cfg, score_fn=stub_score)
            ref = reference_literal_carryover(cfg, stub_score)
            assert report.best_arch.cells == ref["cells"]
            assert report.best_score == ref["score"]

    def test_carryover_modes_can_disagree_on_final_cells(self, base_cfg):
        # find a run seed whose winner comes from phase 2; then the
        # non-searched cell differs between the two policies
        for seed in range(20):
            cfg_best = replace(base_cfg, num_cells=2, seed=seed)
            cfg_lit = replace(cfg_best, carryover=CARRY_LITERAL)
            rb = search_memory_aware(cfg_best, score_fn=stub_score)
            rl = search_memory_aware(cfg_lit, score_fn=stub_score)
            if rb.best_arch.cells != rl.best_arch.cells:
                return
        pytest.fail("no seed showed a carryover difference")

    def test_wall_time_recorded(self, base_cfg):
        report = search_memory_aware(base_cfg, score_fn=stub_score)
        assert report.wall_time_s >= 0.0


class TestRandomSearch:
    def test_single_iteration_scores_one_candidate(self, base_cfg):
        report = search_random(base_cfg, 1, score_fn=stub_score)
        assert report.candidates_visited == 1
        assert report.evaluations_total == 1
        assert report.iterations == 1
        assert report.strategy == RANDOM

    def test_seeded_determinism(self, base_cfg):
        a = search_random(base_cfg, 50, score_fn=stub_score)
        b = search_random(base_cfg, 50, score_fn=stub_score)
        assert a.per_cell_best_indices == b.per_cell_best_indices
        assert a.best_score == b.best_score
        c = search_random(replace(base_cfg, seed=7), 50, score_fn=stub_score)
        assert (c.per_cell_best_indices != a.per_cell_best_indices
                or c.best_score != a.best_score)

    def test_draw_count_law_and_full_coverage_at_5000(self, base_cfg):
        cfg = replace(base_cfg, keep_candidate_log=True)
        report = search_random(cfg, 5000, score_fn=stub_score)
        assert report.candidates_visited == 5000
        seen = {rec.index for rec in report.candidate_log}
        assert seen == set(range(64))  # with-replacement draws cover the space

    def test_duplicate_draws_score_identically(self, base_cfg):
        cfg = replace(base_cfg, keep_candidate_log=True)
        report = search_random(cfg, 300, score_fn=stub_score)
        by_index = {}
        duplicates = 0
        for rec in report.candidate_log:
            if rec.index in by_index:
                duplicates += 1
                assert by_index[rec.index] == rec.score
            else:
                by_index[rec.index] = rec.score
        assert duplicates > 0

    def test_budget_filter_applies(self, base_cfg):
        floor = min_shared_candidate_params(TWO_OPS, 1, base_cfg.macro)
        cfg = replace(base_cfg, budget=MemoryBudget(floor),
                      keep_candidate_log=True)
        report = search_random(cfg, 200, score_fn=stub_score)
        assert report.evaluations_skipped_by_budget > 0
        assert report.candidates_visited == 200
        assert report.n_param <= floor

    def test_all_infeasible_raises(self, base_cfg):
        floor = min_shared_candidate_params(TWO_OPS, 1, base_cfg.macro)
        cfg = replace(base_cfg, budget=MemoryBudget(floor - 1))
        with pytest.raises(NoFeasibleArchitecture):
            search_random(cfg, 20, score_fn=stub_score)

    def test_same_architecture_for_all_cells(self, base_cfg):
        cfg = replace(base_cfg, num_cells=3)
        report = search_random(cfg, 25, score_fn=stub_score)
        a, b, c = report.best_arch.cells
        assert a == b == c

    def test_iterations_must_be_positive(self, base_cfg):
        with pytest.raises(ValueError):
            search_random(base_cfg, 0, score_fn=stub_score)


class TestAblate:
    def test_removing_zeroize_searches_four_op_space(self, base_cfg):
        cfg = replace(base_cfg, opset=FIVE_OPS)
        report = ablate_operation(cfg, Operation.ZEROIZE, score_fn=stub_score)
        assert report.candidates_visited == 4 ** 6 == 4096
        assert report.removed_op is Operation.ZEROIZE
        assert report.opset_name == "5O-zeroize"

    def test_random_strategy_respects_iterations(self, base_cfg):
        cfg = replace(base_cfg, opset=THREE_OPS, strategy=RANDOM)
        report = ablate_operation(cfg, Operation.AVGPOOL3X3, iterations=30,
                                  score_fn=stub_score)
        assert report.candidates_visited == 30
        assert report.removed_op is Operation.AVGPOOL3X3

    def test_two_op_set_cannot_shrink(self, base_cfg):
        with pytest.raises(OpSetTooSmall):
            ablate_operation(base_cfg, Operation.CONV3X3, score_fn=stub_score)

    def test_removed_op_must_be_in_set(self, base_cfg):
        with pytest.raises(ValueError):
            ablate_operation(base_cfg, Operation.CONV1X1, score_fn=stub_score)

    def test_ablated_indices_decode_in_reduced_set(self, base_cfg):
        cfg = replace(base_cfg, opset=THREE_OPS)
        report = ablate_operation(cfg, Operation.AVGPOOL3X3, score_fn=stub_score)
        sub = THREE_OPS.without(Operation.AVGPOOL3X3)
        idx = report.per_cell_best_indices[0]
        assert decode_cell(idx, sub) == report.best_arch.cells[0]
        assert encode_cell(report.best_arch.cells[0], sub) == idx


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerBound:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr(search_mod, "ThreadPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])

    @pytest.mark.parametrize("jobs,cpus,n,pool", [
        (10**6, 2, 15625, 2),   # huge --jobs: one worker per core
        (3, 8, 100, 3),         # fewer jobs than cores
        (8, 8, 2, 2),           # never more workers than candidates
        (4, None, 100, None),   # unknown core count runs serially
        (1, 8, 100, None),
    ])
    def test_run_all_bounds_workers(self, monkeypatch, jobs, cpus, n, pool):
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: cpus)
        out = search_mod._run_all(lambda i: 2 * i, range(n), jobs)
        assert out == [2 * i for i in range(n)]
        assert _RecordingPool.sizes == ([] if pool is None else [pool])

    def test_search_with_huge_jobs_uses_core_count(self, monkeypatch, base_cfg):
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 3)
        wide = search_memory_aware(replace(base_cfg, num_cells=2, jobs=10**6),
                                   score_fn=stub_score)
        assert _RecordingPool.sizes == [3, 3]
        narrow = search_memory_aware(replace(base_cfg, num_cells=2),
                                     score_fn=stub_score)
        assert wide.per_cell_best_indices == narrow.per_cell_best_indices
        assert wide.best_score == narrow.best_score
