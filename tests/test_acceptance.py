"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria with runtime budgets assert the elapsed wall time as well.
"""

import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from oracles import (
    REPORT_FIELDS,
    cofactor_det,
    exhaustive_best_shared,
    min_shared_candidate_params,
    naive_hamming_kernel,
    walk_count_elements,
    write_cifar10,
)
from spikenas.arch import (
    FIVE_OPS,
    MacroConfig,
    OPSETS,
    THREE_OPS,
    TWO_OPS,
    build_network,
    decode_cell,
    search_space_size,
)
from spikenas.cli import main
from spikenas.data import DATA_DIR_ENV, synth_dataset
from spikenas.errors import SpikeNasError
from spikenas.memmodel import MemoryBudget, count_network_params
from spikenas.score import ScoreResult, hamming_kernel, network_score, score_candidate
from spikenas.search import SearchConfig, search_memory_aware, search_random
from spikenas.snn import LIFParams, init_weights, lif_step


class _Timer:
    def __init__(self, number, label, budget_s):
        self.number, self.label, self.budget_s = number, label, budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.1f}s)"
            )
            print(f"[acceptance] criterion {self.number:02d} {self.label}: "
                  f"PASS ({elapsed:.2f}s < {self.budget_s}s)")
        else:
            print(f"[acceptance] criterion {self.number:02d} {self.label}: FAIL")
        return False


def _stub_score(net, batch, lif, seed, alpha, **kwargs):
    return ScoreResult(value=(seed % 100003) / 100003.0)


TINY_MACRO = MacroConfig(stem_channels=4, num_classes=4)
TINY_LIF = LIFParams(v_threshold=0.2, timesteps=2)
TINY_FLAGS = ["--stem-channels", "4", "--classes", "4", "--batch-size", "4",
              "--timesteps", "2"]

REPORT_SCHEMA = {
    "type": "object",
    "required": list(REPORT_FIELDS),
    "additionalProperties": False,
    "properties": {
        "scenario": {"type": ["string", "null"]},
        "dataset": {"type": "string"},
        "opset": {"type": "string"},
        "cells": {"type": "integer", "minimum": 1, "maximum": 3},
        "budget": {
            "type": ["object", "null"],
            "required": ["max_params", "bit_precision"],
            "additionalProperties": False,
            "properties": {
                "max_params": {"type": "integer", "minimum": 1},
                "bit_precision": {"type": "integer", "minimum": 1, "maximum": 64},
            },
        },
        "best_arch": {
            "type": "object",
            "required": ["cell_indices", "opset", "macro"],
            "additionalProperties": False,
            "properties": {
                "cell_indices": {"type": "array",
                                 "items": {"type": "integer", "minimum": 0}},
                "opset": {"type": "string"},
                "macro": {"type": "object"},
            },
        },
        "best_score": {"type": ["number", "null"]},
        "singular": {"type": "boolean"},
        "n_param": {"type": "integer", "minimum": 0},
        "mem_bits": {"type": "integer", "minimum": 0},
        "evaluations_total": {"type": "integer", "minimum": 0},
        "evaluations_skipped": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "wall_time_ms": {"type": "number", "minimum": 0},
        "engine_version": {"type": "string"},
        "strategy": {"enum": ["memory_aware", "random"]},
        "iterations": {"type": ["integer", "null"]},
        "removed_op": {"type": ["string", "null"]},
    },
}


def test_criterion_01_search_space_arithmetic():
    with _Timer(1, "search-space arithmetic", 1.0):
        for opset, want in ((FIVE_OPS, 15625), (THREE_OPS, 729), (TWO_OPS, 64)):
            assert search_space_size(opset) == want
            distinct = {decode_cell(i, opset) for i in range(want)}
            assert len(distinct) == want
        for removed in FIVE_OPS.ops:
            four = FIVE_OPS.without(removed)
            assert search_space_size(four) == 4096
        distinct4 = {decode_cell(i, FIVE_OPS.without(FIVE_OPS.ops[0]))
                     for i in range(4096)}
        assert len(distinct4) == 4096


def test_criterion_02_memory_model_oracle():
    with _Timer(2, "memory-model element-walk oracle", 10.0):
        presets = [(cells, OPSETS[name])
                   for cells in (1, 2, 3) for name in ("2O", "3O")]
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            cells_n, opset = presets[checked % len(presets)]
            macro = MacroConfig(stem_channels=int(rng.choice([4, 8])),
                                num_classes=int(rng.choice([4, 10])))
            cells = [decode_cell(int(rng.integers(search_space_size(opset))), opset)
                     for _ in range(cells_n)]
            net = build_network(cells, macro)
            assert count_network_params(net) == walk_count_elements(
                init_weights(net, seed=checked), macro
            )
            checked += 1
        assert checked == 200


def test_criterion_03_budget_safety(small_dataset):
    with _Timer(3, "budget safety and exact infeasibility", 300.0):
        rng = np.random.default_rng(7)
        scenarios = [(1, TWO_OPS)] * 6 + [(2, TWO_OPS)] * 3 + [(1, THREE_OPS)]
        floors = {}
        ceilings = {}
        for cells_n, opset in set(scenarios):
            floors[(cells_n, opset.name)] = min_shared_candidate_params(
                opset, cells_n, TINY_MACRO)
            ceilings[(cells_n, opset.name)] = max(
                count_network_params(
                    build_network([decode_cell(i, opset)] * cells_n, TINY_MACRO))
                for i in range(search_space_size(opset))
            )
        raised = returned = 0
        for trial in range(100):
            cells_n, opset = scenarios[trial % len(scenarios)]
            floor = floors[(cells_n, opset.name)]
            ceiling = ceilings[(cells_n, opset.name)]
            if trial % 3 == 0:
                # draw around the feasibility floor so both sides occur
                budget = MemoryBudget(int(rng.integers(max(1, int(0.7 * floor)),
                                                       floor + 2)))
            else:
                budget = MemoryBudget(int(rng.integers(floor,
                                                       int(1.1 * ceiling))))
            cfg = SearchConfig(dataset=small_dataset, opset=opset,
                               num_cells=cells_n, macro=TINY_MACRO,
                               budget=budget, seed=trial, batch_size=4,
                               lif=TINY_LIF)
            if budget.max_params < floor:
                with pytest.raises(SpikeNasError,
                                   match="shared-cell candidates exceed the budget"):
                    search_memory_aware(cfg)
                raised += 1
            else:
                report = search_memory_aware(cfg)
                assert report.n_param <= budget.max_params
                returned += 1
        assert raised > 10 and returned > 10  # both sides exercised
        print(f"  budget trials: {returned} feasible, {raised} infeasible")


def test_criterion_04_score_oracles():
    with _Timer(4, "score vs cofactor oracle, popcount vs naive", 30.0):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mats = tuple(
                (rng.random((4, int(rng.integers(3, 48)))) < 0.5).astype(np.uint8)
                for _ in range(3)
            )
            got = network_score(dict(zip(("l0", "l1", "l2"), mats)), alpha=1.0)
            total = sum(naive_hamming_kernel(m, 1.0) for m in mats)
            det = cofactor_det(total)
            if got.singular:
                assert abs(det) <= 1e-6 * max(1.0, abs(total).max() ** 4)
            else:
                want = math.log(abs(det))
                assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want))
        for trial in range(1000):
            s = 2 + trial % 6
            f = 1 + (trial * 7) % 48
            codes = (np.random.default_rng(trial).random((s, f)) < 0.5).astype(np.uint8)
            alpha = (0.5, 1.0, 2.0)[trial % 3]
            np.testing.assert_array_equal(
                hamming_kernel(codes, alpha),
                naive_hamming_kernel(codes, alpha),
            )


def test_criterion_05_kernel_invariants():
    with _Timer(5, "kernel symmetry, diagonal, permutation, sentinel", 30.0):
        # exhaustive over every 2x3 and 3x2 bit matrix
        for s, f in ((2, 3), (3, 2)):
            for bits in range(2 ** (s * f)):
                codes = np.array(
                    [(bits >> (i * f + j)) & 1 for i in range(s) for j in range(f)],
                    dtype=np.uint8,
                ).reshape(s, f)
                k = hamming_kernel(codes)
                assert (k == k.T).all()
                assert (np.diag(k) == f).all()
        rng = np.random.default_rng(23)
        for _ in range(25):
            mats = tuple((rng.random((5, 31)) < 0.5).astype(np.uint8)
                         for _ in range(3))
            base = network_score(dict(zip("abc", mats)))
            perm = rng.permutation(5)
            permuted = network_score(dict(zip("abc", (m[perm] for m in mats))))
            assert base.singular == permuted.singular
            if not base.singular:
                assert abs(base.value - permuted.value) <= 1e-9 * max(
                    1.0, abs(base.value))
        identical = tuple(np.tile((np.arange(f) % 2).astype(np.uint8), (4, 1))
                          for f in (6, 11))
        assert network_score(dict(zip("xy", identical))).singular


def test_criterion_06_search_equivalence(small_dataset):
    with _Timer(6, "search equals exhaustive argmax; count law", 120.0):
        cfg = SearchConfig(dataset=small_dataset, opset=TWO_OPS, num_cells=1,
                           macro=TINY_MACRO, budget=None, seed=42,
                           batch_size=4, lif=TINY_LIF)
        report = search_memory_aware(cfg)
        idx, val, scored = exhaustive_best_shared(cfg, score_candidate)
        assert report.per_cell_best_indices == (idx,)
        assert report.best_score == val
        assert report.candidates_visited == 64 == scored
        for cells_n, opset in ((2, TWO_OPS), (3, TWO_OPS), (1, THREE_OPS)):
            cfg_n = replace(cfg, num_cells=cells_n, opset=opset)
            rep = search_memory_aware(cfg_n, score_fn=_stub_score)
            assert rep.candidates_visited == cells_n * search_space_size(opset)


def test_criterion_07_lif_dynamics():
    with _Timer(7, "neuron dynamics examples and binary spikes", 5.0):
        p = LIFParams(tau_leak=2.0, v_threshold=1.0, v_reset=0.0)
        v, s = lif_step(np.array(0.0), np.array(0.0), p)
        assert abs(float(v)) <= 1e-12 and float(s) == 0.0
        v, s = lif_step(np.array(0.0), np.array(2.0), p)
        assert float(s) == 1.0 and abs(float(v)) <= 1e-12
        v = np.array(0.0)
        for want in (0.5, 0.75, 0.875):
            v, s = lif_step(v, np.array(1.0), p)
            assert float(s) == 0.0
            assert abs(float(v) - want) <= 1e-12
        rng = np.random.default_rng(31)
        for _ in range(200):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 4))))
            v_prev = rng.normal(scale=10.0, size=shape)
            x = rng.normal(scale=10.0, size=shape)
            _, spikes = lif_step(v_prev, x, p)
            assert set(np.unique(spikes)) <= {0.0, 1.0}


def test_criterion_08_parallel_determinism(tmp_path, capsys):
    with _Timer(8, "identical reports for --jobs 1 vs --jobs 8", 300.0):
        cfg_file = tmp_path / "lif.json"
        cfg_file.write_text(json.dumps({"v_threshold": 0.2}))
        docs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"report_j{jobs}.json"
            rc = main(["search", "--scenario", "1C2O", "--dataset", "synth",
                       "--seed", "42", "--jobs", jobs, "--config", str(cfg_file),
                       "--report-out", str(out)] + TINY_FLAGS)
            assert rc == 0
            docs.append(json.loads(out.read_text()))
        capsys.readouterr()
        for doc in docs:
            doc.pop("wall_time_ms")
        assert docs[0] == docs[1]
        assert not docs[0]["singular"]


def test_criterion_09_evaluation_count_advantage(small_dataset):
    with _Timer(9, "memory-aware visits 128 vs 5000 random scores", 1.0):
        cfg = SearchConfig(dataset=small_dataset, opset=TWO_OPS, num_cells=2,
                           macro=TINY_MACRO, seed=0, batch_size=4, lif=TINY_LIF)
        aware = search_memory_aware(cfg, score_fn=_stub_score)
        baseline = search_random(cfg, 5000, score_fn=_stub_score)
        assert aware.candidates_visited == 128
        assert baseline.evaluations_total + baseline.evaluations_skipped_by_budget == 5000
        ratio = 5000 / aware.candidates_visited
        assert ratio >= 39.0
        print(f"  evaluation reduction: 5000 / 128 = {ratio:.2f}x")


def _run_cifar_smoke(data_dir: Path, tmp_path: Path, seed: str):
    out = tmp_path / "smoke_report.json"
    cfg_file = tmp_path / "smoke_lif.json"
    cfg_file.write_text(json.dumps({"v_threshold": 0.2}))
    rc = main(["search", "--scenario", "2C3O_M", "--dataset", "cifar10",
               "--data-dir", str(data_dir), "--seed", seed,
               "--config", str(cfg_file), "--report-out", str(out)] + TINY_FLAGS)
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["budget"]["max_params"] == 1_200_000
    assert doc["n_param"] <= 1_200_000
    assert doc["evaluations_total"] + doc["evaluations_skipped"] == 2 * 729
    return doc


def test_criterion_10_end_to_end_smoke(tmp_path, capsys):
    with _Timer(10, "end-to-end scenario 2C3O_M on binary files", 1800.0):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_cifar10(data_dir / "data_batch_1.bin", synth_dataset(64, 10, 99))
        doc = _run_cifar_smoke(data_dir, tmp_path, seed="7")
        capsys.readouterr()
        assert doc["scenario"] == "2C3O_M"
        assert doc["cells"] == 2 and doc["opset"] == "3O"


def test_criterion_10_real_cifar_smoke(tmp_path, capsys):
    root = os.environ.get(DATA_DIR_ENV)
    candidates = []
    if root:
        candidates = [Path(root), Path(root) / "cifar-10-batches-bin"]
    present = any((c / "data_batch_1.bin").is_file() for c in candidates)
    if not present:
        pytest.skip(f"real CIFAR-10 binaries not found under ${DATA_DIR_ENV}")
    with _Timer(10, "end-to-end scenario 2C3O_M on real CIFAR-10", 1800.0):
        doc = _run_cifar_smoke(Path(root), tmp_path, seed="11")
        capsys.readouterr()
        assert doc["dataset"] == "cifar10"
