import ast
import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    exhaustive_best_shared,
    min_shared_candidate_params,
    reference_literal_carryover,
    reference_memory_aware,
)
from spikenas import blas, snn
from spikenas.arch import (
    FIVE_OPS, MacroConfig, Operation, THREE_OPS, TWO_OPS, build_network, decode_cell,
    encode_cell,
)
from spikenas.data import sample_batch, synth_dataset
from spikenas.errors import SpikeNasError
from spikenas.memmodel import MemoryBudget, count_network_params
from spikenas.report import from_search_report, to_json
from spikenas.score import NEG_INF, ScoreResult, score_candidate
from spikenas import score as score_mod
from spikenas import search as search_mod
from spikenas.snn import LIFParams
from spikenas.search import (
    CARRY_LITERAL,
    MEMORY_AWARE,
    RANDOM,
    SearchConfig,
    candidate_seed,
    search_memory_aware,
    search_random,
    ablate_operation,
)


def stub_score(net, batch, lif, seed, alpha, **kwargs):
    """Cheap deterministic stand-in: value derived from the weight seed."""
    return ScoreResult(value=(seed % 100003) / 100003.0)


def constant_score(net, batch, lif, seed, alpha, **kwargs):
    return ScoreResult(value=5.0)


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
                    dict(num_cells=1.0), dict(num_cells=True), dict(jobs=2.5),
                    dict(jobs=True), dict(batch_size=4.5), dict(seed=1.5),
                    dict(seed=False),
                    dict(strategy="anneal"), dict(carryover="worst"),
                    dict(alpha=float("nan")), dict(alpha=float("inf")),
                    dict(alpha=-float("inf")), dict(code_mode="all"),
                    dict(input_coding="poisson"), dict(iterations=0),
                    dict(iterations=2.5), dict(iterations=True)):
            with pytest.raises(ValueError):
                cfg(**bad)
        cfg(num_cells=np.int64(2), jobs=np.int32(1), batch_size=np.uint8(4),
            seed=np.int64(3), alpha=np.float32(0.5), iterations=np.int64(7))

    @pytest.mark.parametrize("setting", [
        dict(dataset=None), dict(opset="2O"), dict(macro=None), dict(budget=500),
        dict(lif=None), dict(keep_candidate_log=1), dict(alpha="0.5"), dict(alpha=True),
    ])
    def test_mistyped_setting_is_refused_at_construction(self, base_cfg, setting):
        with pytest.raises(SpikeNasError, match=next(iter(setting))):
            replace(base_cfg, **setting)


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
        with pytest.raises(SpikeNasError, match="shared-cell candidates exceed the budget"):
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
            return ScoreResult(value=NEG_INF)

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
        assert report.config.strategy == RANDOM
        doc = json.loads(to_json(from_search_report(report, None, "synth", 32)))
        assert doc["iterations"] == 1

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_draw_is_scored_once_and_logged_at_every_draw(self, base_cfg, jobs):
        calls = []
        lock = threading.Lock()

        def counting_score(net, batch, lif, seed, alpha, **kwargs):
            with lock:
                calls.append(seed)
            return stub_score(net, batch, lif, seed, alpha, **kwargs)

        cfg = replace(base_cfg, jobs=jobs, keep_candidate_log=True)
        report = search_random(cfg, 300, score_fn=counting_score)
        draws = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).integers(
            0, 64, size=300)
        assert [rec.index for rec in report.candidate_log] == draws.tolist()
        assert sorted(calls) == sorted(candidate_seed(cfg.seed, 1, i) for i in set(draws.tolist()))
        assert len(calls) < 300
        assert report.config.strategy == RANDOM
        assert report == replace(search_random(cfg, 300, score_fn=stub_score),
                                 config=report.config, wall_time_s=report.wall_time_s)

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
        with pytest.raises(SpikeNasError, match="none of the 20 drawn candidates fit"):
            search_random(cfg, 20, score_fn=stub_score)

    def test_same_architecture_for_all_cells(self, base_cfg):
        cfg = replace(base_cfg, num_cells=3)
        report = search_random(cfg, 25, score_fn=stub_score)
        a, b, c = report.best_arch.cells
        assert a == b == c

    def test_iterations_must_be_positive(self, base_cfg):
        for iterations in (0, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="iterations must be >= 1"):
                search_random(base_cfg, iterations, score_fn=stub_score)

    def test_numpy_iterations_accepted(self, base_cfg):
        report = search_random(base_cfg, np.int64(3), score_fn=stub_score)
        assert report.candidates_visited == 3
        doc = json.loads(to_json(from_search_report(report, None, "synth", 32)))
        assert doc["iterations"] == 3

    def test_numpy_integer_settings_write_the_same_report(self, base_cfg):
        # numpy integers pass every setting check, so the report must
        # write them as the plain ints a Python config gives
        def doc(cfg):
            report = search_random(cfg, 3, score_fn=stub_score)
            out = json.loads(to_json(from_search_report(report, None, "synth", 16)))
            return {**out, "wall_time_ms": None}
        plain = replace(base_cfg, seed=3, num_cells=1, budget=MemoryBudget(10**6, 16),
                        macro=MacroConfig(stem_channels=4, num_classes=4))
        i64 = np.int64
        numpy = replace(base_cfg, seed=i64(3), num_cells=i64(1),
                        budget=MemoryBudget(i64(10**6), i64(16)),
                        macro=MacroConfig(stem_channels=i64(4), num_classes=i64(4)))
        assert doc(numpy) == doc(plain)


class TestAblate:
    def test_removing_zeroize_searches_four_op_space(self, base_cfg):
        cfg = replace(base_cfg, opset=FIVE_OPS)
        report = ablate_operation(cfg, Operation.ZEROIZE, score_fn=stub_score)
        assert report.candidates_visited == 4 ** 6 == 4096
        assert report.removed_op is Operation.ZEROIZE
        assert report.config.opset.name == "5O-zeroize"

    def test_random_strategy_respects_iterations(self, base_cfg):
        cfg = replace(base_cfg, opset=THREE_OPS, strategy=RANDOM)
        report = ablate_operation(replace(cfg, iterations=30), Operation.AVGPOOL3X3,
                                  score_fn=stub_score)
        assert report.candidates_visited == 30
        assert report.removed_op is Operation.AVGPOOL3X3

    def test_two_op_set_cannot_shrink(self, base_cfg):
        with pytest.raises(SpikeNasError, match=r"removing conv3x3 leaves 1 operation\(s\)"):
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


class TestReplay:
    """A report keeps the config that ran and the winning record, phase included."""

    @pytest.mark.parametrize("strategy, seed, phase", [
        (MEMORY_AWARE, 0, 2), (MEMORY_AWARE, 1, 1), (RANDOM, 0, 1),
    ])
    def test_best_candidate_replays_its_score(self, base_cfg, strategy, seed, phase):
        cfg = replace(base_cfg, num_cells=2, seed=seed)
        report = search_random(cfg, 30) if strategy == RANDOM else search_memory_aware(cfg)
        cfg, best = report.config, report.best
        assert (cfg.strategy, best.phase) == (strategy, phase)
        assert report.best_arch.cells[phase - 1] == decode_cell(best.index, cfg.opset)
        pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed)
        replayed = score_candidate(report.best_arch, pixels, cfg.lif,
                                   candidate_seed(cfg.seed, best.phase, best.index),
                                   cfg.alpha, code_mode=cfg.code_mode,
                                   input_coding=cfg.input_coding)
        assert replayed.value == report.best_score

    @pytest.mark.parametrize("strategy", [MEMORY_AWARE, RANDOM])
    @pytest.mark.parametrize("ablate", [False, True], ids=["search", "ablate"])
    def test_config_reruns_its_search(self, base_cfg, strategy, ablate):
        # the config holds every setting, `iterations` included, so it runs the same
        # search again: same best, counts and candidate log.  Both searches run over
        # skipcon and conv3x3, under a budget that half of the shared cells fit.
        sizes = sorted(count_network_params(build_network([decode_cell(i, TWO_OPS)] * 2,
                                                          base_cfg.macro))
                       for i in range(64))
        cfg = replace(base_cfg, opset=THREE_OPS if ablate else TWO_OPS, num_cells=2,
                      strategy=strategy, iterations=40, keep_candidate_log=True,
                      budget=MemoryBudget(sizes[32]))

        def run(cfg):
            if cfg.strategy == RANDOM:
                return search_random(cfg, cfg.iterations, score_fn=stub_score)
            return search_memory_aware(cfg, score_fn=stub_score)
        report = (ablate_operation(cfg, Operation.AVGPOOL3X3, score_fn=stub_score)
                  if ablate else run(cfg))
        again = run(report.config)
        for rerun in (report, again):
            assert (rerun.config.strategy, rerun.config.iterations) == (strategy, 40)
        assert report.evaluations_skipped_by_budget > 0
        assert (again.best, again.best_arch, again.candidate_log) == (
            report.best, report.best_arch, report.candidate_log)
        assert (again.evaluations_total, again.evaluations_skipped_by_budget) == (
            report.evaluations_total, report.evaluations_skipped_by_budget)


class TestForwardPlan:
    """The tiles and threads a search's forward passes run on, at the perfbench shapes
    and around `snn.SPLIT_MACS`."""

    @pytest.mark.parametrize("stem, samples, cores, jobs, coding, plan", [
        (4, 4, 2, 1, "direct", (1, 1)),     # tiny_2c3o_m
        (64, 16, 2, 1, "direct", (16, 2)),  # paper_5o_random
        (16, 16, 2, 2, "rate", (1, 1)),     # mid_2c2o_rate_jobs: a pooled phase
        (16, 16, 1, 1, "direct", (1, 1)),   # a one-worker phase on one core
        (8, 16, 2, 1, "direct", (2, 2)),    # the narrowest stem at or above SPLIT_MACS at batch 16
        (16, 16, 2, 1, "direct", (2, 2)),
    ])
    def test_plan(self, monkeypatch, stem, samples, cores, jobs, coding, plan):
        _set_cores(monkeypatch, cores)
        passes, tiles, threads, pools = [], [], [], []
        collect, simulate = score_mod.forward_collect_codes, snn._simulate
        pass_map, pool_map = snn.thread_map, search_mod.thread_map

        def count_pass(*args, **kwargs):
            passes.append(1)
            return collect(*args, **kwargs)

        def count_tile(*args, **kwargs):
            tiles.append(1)
            return simulate(*args, **kwargs)

        def record_threads(fn, items, workers):
            threads.append(min(workers, len(items)))
            return pass_map(fn, items, workers)

        def record_pool(fn, items, workers):
            pools.append(min(workers, len(items)))
            return pool_map(fn, items, workers)

        monkeypatch.setattr(score_mod, "forward_collect_codes", count_pass)
        monkeypatch.setattr(snn, "_simulate", count_tile)
        monkeypatch.setattr(snn, "thread_map", record_threads)
        monkeypatch.setattr(search_mod, "thread_map", record_pool)
        cfg = SearchConfig(dataset=synth_dataset(samples, 10, 0), opset=TWO_OPS,
                           num_cells=1, macro=MacroConfig(stem_channels=stem),
                           batch_size=samples, lif=LIFParams(timesteps=1),
                           jobs=jobs, input_coding=coding)
        search_random(cfg, 2)  # two distinct draws, so jobs=2 pools them
        assert pools == [jobs]
        assert len(passes) == 2
        assert (len(tiles) // len(passes), max(threads, default=1)) == plan
        assert len(tiles) == len(passes) * plan[0]


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _set_cores(monkeypatch, cores, machine=None):
    """Give the process an affinity mask of `cores` CPUs on a `machine`-CPU host.

    `cores=None` takes the mask away, as on a platform without one; the
    host's count defaults to the mask's.
    """
    if cores is None:
        monkeypatch.delattr(blas.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(blas.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(blas.os, "cpu_count", lambda: machine or cores)


class TestWorkerBound:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr(blas, "ThreadPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])

    @pytest.mark.parametrize("workers,n,cores,pool", [
        (2, 15625, 8, 2),
        (3, 100, 8, 3),
        (8, 2, 8, 2),           # never more workers than items
        (8, 100, 3, 3),         # nor than free cores
        (4, 1, 8, None),        # one item runs inline
        (1, 100, 8, None),      # so does one worker
        (4, 100, 1, None),      # and one core
    ])
    def test_thread_map_bounds_workers(self, monkeypatch, workers, n, cores, pool):
        _set_cores(monkeypatch, cores)
        out = blas.thread_map(lambda i: 2 * i, range(n), workers)
        assert out == [2 * i for i in range(n)]
        assert _RecordingPool.sizes == ([] if pool is None else [pool])

    @pytest.mark.parametrize("jobs,cores,machine,pools", [
        (10**6, 2, 2, [2, 2]),      # huge --jobs: one worker per core
        (3, 8, 8, [3, 3]),          # fewer jobs than cores
        (100, 100, 100, [64, 64]),  # never more workers than candidates
        (4, None, None, []),        # no mask and an unknown core count: serial
        (4, None, 3, [3, 3]),       # no mask: the machine's count
        (2, 1, 2, []),              # the mask, not the machine, bounds the pool
        (1, 8, 8, []),
    ])
    def test_search_bounds_workers(self, monkeypatch, base_cfg, jobs, cores, machine,
                                   pools):
        _set_cores(monkeypatch, cores, machine)
        report = search_memory_aware(replace(base_cfg, num_cells=2, jobs=jobs),
                                     score_fn=stub_score)
        assert _RecordingPool.sizes == pools
        narrow = search_memory_aware(replace(base_cfg, num_cells=2),
                                     score_fn=stub_score)
        assert report.per_cell_best_indices == narrow.per_cell_best_indices
        assert report.best_score == narrow.best_score


class TestNestedMap:
    def test_a_map_inside_a_pooled_worker_runs_inline(self, monkeypatch):
        _set_cores(monkeypatch, 4)
        pools, real_pool = [], blas.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(threading.get_ident())
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(blas, "ThreadPoolExecutor", counting_pool)

        def inner(j):
            return threading.get_ident(), blas.free_cores()

        def outer(i):
            return threading.get_ident(), blas.thread_map(inner, range(3), 4)

        results = blas.thread_map(outer, range(8), 2)
        assert pools == [threading.get_ident()]
        for worker, inner_runs in results:
            assert worker != threading.get_ident()
            assert inner_runs == [(worker, 1)] * 3
        assert blas.free_cores() == 4


def _numpy_uses_openblas() -> bool:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return "openblas" in str(deps.get("blas", {}).get("name", "")).lower()


class _FakeControls:
    """Records every set call instead of touching the real library."""

    def __init__(self, count=4):
        self.count, self.sets = count, []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


class TestBlasPin:
    @pytest.fixture
    def real(self, monkeypatch):
        """The real controls with the count at 2, restored afterwards."""
        controls = blas.openblas_controls()
        if controls is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS this build can control")
        get, set_ = controls
        before = get()
        set_(2)
        _set_cores(monkeypatch, 2)
        yield get
        set_(before)

    @pytest.fixture
    def fake(self, monkeypatch):
        controls = _FakeControls()
        monkeypatch.setattr(blas, "openblas_controls",
                            lambda: (controls.get, controls.set))
        _set_cores(monkeypatch, 2)
        return controls

    def test_lookup_finds_numpy_openblas(self):
        if not _numpy_uses_openblas():
            pytest.skip("numpy is not built against OpenBLAS")
        assert blas.openblas_controls() is not None

    def test_workers_see_one_thread_and_count_is_restored(self, real):
        before = real()
        seen = []

        def visit(i):
            seen.append((threading.get_ident(), real()))
            return 3 * i

        assert blas.thread_map(visit, range(40), 2) == [3 * i for i in range(40)]
        assert {count for _, count in seen} == {1}
        assert threading.get_ident() not in {tid for tid, _ in seen}
        assert real() == before

    def test_count_is_restored_when_a_worker_raises(self, real):
        before = real()

        def visit(i):
            if i == 5:
                raise RuntimeError("boom")
            return i

        with pytest.raises(RuntimeError, match="boom"):
            blas.thread_map(visit, range(20), 2)
        assert real() == before

    def test_one_thread_runs_inline_and_pins(self, fake):
        def visit(i):
            return threading.get_ident(), fake.count

        main = threading.get_ident()
        assert blas.thread_map(visit, range(10), 1) == [(main, 1)] * 10
        assert blas.thread_map(visit, range(1), 2) == [(main, 1)]
        assert fake.sets == [1, 4, 1, 4]
        blas.thread_map(lambda i: i, range(10), 2)
        assert fake.sets == [1, 4] * 3

    def test_small_serial_search_pins_once_per_phase(self, fake, base_cfg):
        seen = []

        def score(*args, **kwargs):
            seen.append(fake.count)
            return stub_score(*args, **kwargs)

        # tiny macro: a cell-1 conv3x3 edge is 4*32*32*9*4**2 multiply-adds
        report = search_memory_aware(replace(base_cfg, num_cells=2), score_fn=score)
        assert report.candidates_visited == 128
        assert set(seen) == {1}
        assert fake.sets == [1, 4, 1, 4]

    @staticmethod
    def _recording(fake, seen):
        def score(*args, **kwargs):
            seen.append((fake.count, blas.free_cores()))
            return stub_score(*args, **kwargs)
        return score

    @pytest.mark.parametrize("cores, jobs", [(1, 2), (2, 1), (3, 1), (32, 1)])
    def test_serial_search_at_the_paper_macro_pins_once_and_shards(self, fake, base_cfg,
                                                                   monkeypatch, cores, jobs):
        _set_cores(monkeypatch, cores)
        # 16*32*32*9*64**2 multiply-adds per cell-1 conv3x3 edge
        cfg = replace(base_cfg, macro=MacroConfig(), batch_size=16, jobs=jobs)
        assert 16 * 32 * 32 * 9 * 64 ** 2 >= snn.SPLIT_MACS
        seen = []
        search_random(cfg, 5, score_fn=self._recording(fake, seen))
        assert fake.sets == [1, 4]
        assert set(seen) == {(1, cores)}

    def test_serial_phases_offer_the_cores_and_pooled_phases_one(self, fake, base_cfg,
                                                                 monkeypatch):
        # the forward pass decides whether a small batch uses what it is offered
        _set_cores(monkeypatch, 2)
        seen = []
        search_random(base_cfg, 5, score_fn=self._recording(fake, seen))
        assert {cores for _, cores in seen} == {2}
        seen.clear()
        paper = replace(base_cfg, macro=MacroConfig(), batch_size=16, jobs=2)
        search_random(paper, 5, score_fn=self._recording(fake, seen))
        assert {cores for _, cores in seen} == {1}

    @pytest.mark.parametrize("cores", [2, 3, 32])
    def test_pooled_search_with_one_distinct_draw_pins_and_shards(self, fake, base_cfg,
                                                                  monkeypatch, cores):
        _set_cores(monkeypatch, cores)
        paper = replace(base_cfg, macro=MacroConfig(), batch_size=16, jobs=2)
        seen = []
        search_random(paper, 1, score_fn=self._recording(fake, seen))
        assert fake.sets == [1, 4]
        assert seen == [(1, cores)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mask_of_one_cpu_scores_unsharded(self, fake, base_cfg, monkeypatch, jobs):
        _set_cores(monkeypatch, 1, machine=2)
        paper = replace(base_cfg, macro=MacroConfig(), batch_size=16, jobs=jobs)
        seen = []
        search_random(paper, 5, score_fn=self._recording(fake, seen))
        assert set(seen) == {(1, 1)}

    def test_pooled_search_pins_once_per_phase(self, fake, base_cfg):
        search_memory_aware(replace(base_cfg, num_cells=2, jobs=2), score_fn=stub_score)
        assert fake.sets == [1, 4, 1, 4]

    def test_serial_pin_is_restored_when_a_visit_raises(self, fake, base_cfg):
        def score(*args, **kwargs):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            search_memory_aware(base_cfg, score_fn=score)
        assert fake.sets == [1, 4] and fake.count == 4

    def test_small_serial_search_runs_on_one_real_thread(self, real, base_cfg):
        before = real()
        seen = []

        def score(*args, **kwargs):
            seen.append(real())
            return stub_score(*args, **kwargs)

        search_memory_aware(base_cfg, score_fn=score)
        assert set(seen) == {1}
        assert real() == before

    def test_nested_pins_restore_once_at_the_outermost_exit(self, fake):
        with blas.single_blas_thread():
            with blas.single_blas_thread():
                assert fake.count == 1
            assert fake.count == 1
        assert fake.sets == [1, 4]

    def test_not_found_runs_unpinned(self, monkeypatch, base_cfg):
        monkeypatch.setattr(blas, "openblas_controls", lambda: None)
        _set_cores(monkeypatch, 2)
        assert blas.thread_map(lambda i: i * i, range(30), 2) == [i * i for i in range(30)]
        cfg = replace(base_cfg, num_cells=2, keep_candidate_log=True)
        pooled = search_memory_aware(replace(cfg, jobs=2), score_fn=stub_score)
        serial = search_memory_aware(cfg, score_fn=stub_score)
        assert pooled.candidate_log == serial.candidate_log
        assert pooled.per_cell_best_indices == serial.per_cell_best_indices

    @pytest.mark.parametrize("maps", [None, "", "7f00-7f01 r-xp 0 00:00 1 /no/libopenblas.so\n"])
    def test_lookup_without_a_loadable_openblas_is_none(self, monkeypatch, tmp_path,
                                                       maps):
        path = tmp_path / "maps"
        if maps is not None:
            path.write_text(maps)
        monkeypatch.setattr(blas, "MAPS", str(path))
        assert blas.openblas_controls.__wrapped__() is None

    def test_records_equal_at_a_gemm_threading_shape(self, monkeypatch, small_dataset,
                                                     tiny_lif):
        # stem 16 on 32x32 inputs: a stem conv3x3 GEMM of 4096x144x16;
        # SPLIT_MACS 0 makes jobs=1 split each batch into two shards, while
        # jobs=2 scores whole batches on two workers
        _set_cores(monkeypatch, 2)
        monkeypatch.setattr(snn, "SPLIT_MACS", 0)
        cfg = SearchConfig(dataset=small_dataset, opset=TWO_OPS, num_cells=1,
                           macro=MacroConfig(stem_channels=16, num_classes=4),
                           seed=3, batch_size=4, lif=tiny_lif,
                           keep_candidate_log=True)
        serial = search_memory_aware(cfg)
        pooled = search_memory_aware(replace(cfg, jobs=2))
        assert len(serial.candidate_log) == 64
        assert pooled.candidate_log == serial.candidate_log
        assert pooled.per_cell_best_indices == serial.per_cell_best_indices
        assert pooled.best_score == serial.best_score


SRC = Path(search_mod.__file__).resolve().parent


def _calls(tree: ast.AST, name: str, func: str | None = None):
    """The enclosing function of each call to `name` (bare or as an attribute)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == name:
                yield func
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _calls(node, name, inner)


def _names(tree: ast.AST) -> set[str]:
    """Every identifier `tree` names, imported, read or written."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name, node.asname)))
    return out


class TestOneWayOntoTheCores:
    """Only `blas.thread_map` starts threads and pins BLAS; only `blas` counts cores."""

    def _trees(self):
        return {path.stem: ast.parse(path.read_text(), filename=str(path))
                for path in sorted(SRC.glob("*.py"))}

    def test_only_blas_names_the_thread_pool(self):
        naming = [mod for mod, tree in self._trees().items()
                  if "ThreadPoolExecutor" in _names(tree)]
        assert naming == ["blas"]

    def test_only_thread_map_enters_the_pin(self):
        entries = sorted((mod, func) for mod, tree in self._trees().items()
                         for func in _calls(tree, "single_blas_thread"))
        assert entries == [("blas", "thread_map")]

    @pytest.mark.parametrize("name", ["sched_getaffinity", "cpu_count"])
    def test_only_blas_counts_cores(self, name):
        naming = [mod for mod, tree in self._trees().items() if name in _names(tree)]
        assert naming == ["blas"]

    def test_scan_sees_calls_by_function(self):
        tree = ast.parse("def f():\n    with g():\n        x.g()\n"
                         "    def h():\n        g()\ng()\n")
        assert list(_calls(tree, "g")) == ["f", "f", "h", None]
        names = _names(ast.parse("from a import P as Q\nimport b\nb.R\nS = 1\n"))
        assert {"P", "Q", "b", "R", "S"} <= names
