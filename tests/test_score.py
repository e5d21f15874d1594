import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cofactor_det, naive_hamming_kernel
from spikenas.arch import build_network, decode_cell, TWO_OPS
from spikenas.errors import SpikeNasError
from spikenas.score import (
    NEG_INF,
    ScoreResult,
    hamming_kernel,
    log_abs_det,
    network_score,
    score_candidate,
    write_kernel_dump,
)
from spikenas.snn import BinaryCodes, LIFParams


def _codes(*rows):
    return np.array(rows, dtype=np.uint8)


class TestHammingKernel:
    def test_two_sample_example(self):
        k = hamming_kernel(_codes([0, 1, 0, 1], [0, 1, 1, 0]), alpha=1.0)
        np.testing.assert_array_equal(k, [[4.0, 2.0], [2.0, 4.0]])

    def test_identical_rows_give_constant_matrix(self):
        k = hamming_kernel(_codes([1, 0, 1], [1, 0, 1], [1, 0, 1]))
        np.testing.assert_array_equal(k, np.full((3, 3), 3.0))

    def test_complementary_rows_hit_zero(self):
        k = hamming_kernel(_codes([0, 1, 0, 1], [1, 0, 1, 0]))
        assert k[0, 1] == 0.0
        assert k[0, 0] == 4.0

    def test_degenerate_batch(self):
        with pytest.raises(SpikeNasError, match="need >= 2 samples for pairwise distances"):
            hamming_kernel(_codes([0, 1]))

    def test_empty_feature_axis_rejected(self):
        with pytest.raises(ValueError):
            hamming_kernel(np.zeros((3, 0), dtype=np.uint8))

    @pytest.mark.parametrize("seed", range(12))
    def test_popcount_matches_naive_loops(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 9))
        f = int(rng.integers(1, 70))  # exercises partial trailing bytes
        codes = (rng.random((s, f)) < 0.4).astype(np.uint8)
        alpha = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        np.testing.assert_array_equal(hamming_kernel(codes, alpha),
                                      naive_hamming_kernel(codes, alpha))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 24), st.integers(0, 2**31 - 1))
    def test_symmetry_and_diagonal(self, s, f, seed):
        codes = (np.random.default_rng(seed).random((s, f)) < 0.5).astype(np.uint8)
        k = hamming_kernel(codes)
        np.testing.assert_array_equal(k, k.T)
        np.testing.assert_array_equal(np.diag(k), np.full(s, float(f)))

    def test_alpha_doubling_relation_exact(self):
        codes = (np.random.default_rng(9).random((5, 33)) < 0.5).astype(np.uint8)
        base = hamming_kernel(codes, alpha=0.75)
        doubled = hamming_kernel(codes, alpha=1.5)
        f = float(codes.shape[1])
        np.testing.assert_array_equal(doubled, f - 2.0 * (f - base))


class TestLogAbsDet:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_numpy_slogdet(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n))
        m = m @ m.T + n * np.eye(n)
        value = log_abs_det(m)
        sign, want = np.linalg.slogdet(m)
        assert abs(value - want) < 1e-9 * max(1.0, abs(want))

    def test_rank_one_is_singular(self):
        ones = np.full((4, 4), 7.0)
        assert log_abs_det(ones) == NEG_INF

    def test_zero_matrix_is_singular(self):
        assert log_abs_det(np.zeros((3, 3))) == NEG_INF

    def test_negative_determinant_uses_absolute_value(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])  # det = -1
        assert abs(log_abs_det(m) - 0.0) < 1e-12


class TestNetworkScore:
    def test_single_layer_two_sample_example(self):
        codes = BinaryCodes(("l",), (_codes([0, 1, 0, 1], [0, 1, 1, 0]),))
        result = network_score(codes, alpha=1.0)
        # sum matrix [[4,2],[2,4]], determinant 12
        assert abs(result.value - math.log(12.0)) <= 1e-12
        assert not result.singular

    def test_indistinguishable_samples_collapse_to_sentinel(self):
        mats = tuple(np.tile((np.arange(f) % 2).astype(np.uint8), (3, 1))
                     for f in (5, 9))
        result = network_score(BinaryCodes(("a", "b"), mats))
        assert result.singular
        assert result.value == NEG_INF

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_cofactor_expansion_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mats = tuple((rng.random((4, int(rng.integers(4, 40)))) < 0.5).astype(np.uint8)
                     for _ in range(3))
        names = tuple(f"l{i}" for i in range(3))
        result = network_score(BinaryCodes(names, mats), alpha=1.0)
        total = sum(naive_hamming_kernel(m, 1.0) for m in mats)
        det = cofactor_det(total)
        if result.singular:
            assert abs(det) < 1e-6
        else:
            want = math.log(abs(det))
            assert abs(result.value - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        mats = tuple((rng.random((6, 25)) < 0.5).astype(np.uint8) for _ in range(2))
        perm = rng.permutation(6)
        base = network_score(BinaryCodes(("a", "b"), mats))
        shuffled = network_score(BinaryCodes(("a", "b"),
                                             tuple(m[perm] for m in mats)))
        assert base.singular == shuffled.singular
        if not base.singular:
            assert abs(base.value - shuffled.value) <= 1e-9 * max(1.0, abs(base.value))

    def test_result_keeps_stage_codes(self):
        mats = ((np.eye(3, 4, dtype=np.uint8)), (np.eye(3, 2, dtype=np.uint8)))
        codes = BinaryCodes(("a", "b"), mats)
        assert network_score(codes).codes is codes

    def test_sentinel_flag_consistency_enforced(self):
        assert not ScoreResult(value=1.0).singular
        assert ScoreResult(value=NEG_INF).singular


class TestScoreCandidate:
    def test_deterministic(self, tiny_macro, tiny_lif, small_dataset):
        from spikenas.data import sample_batch
        net = build_network([decode_cell(40, TWO_OPS)], tiny_macro)
        batch = sample_batch(small_dataset, 4, 0).pixels
        a = score_candidate(net, batch, tiny_lif, seed=3)
        b = score_candidate(net, batch, tiny_lif, seed=3)
        assert a.value == b.value
        c = score_candidate(net, batch, tiny_lif, seed=4)
        assert c.value != a.value  # different weights, different codes

    def test_unreachable_threshold_yields_sentinel(self, tiny_macro, small_dataset):
        from spikenas.data import sample_batch
        net = build_network([decode_cell(40, TWO_OPS)], tiny_macro)
        batch = sample_batch(small_dataset, 4, 0).pixels
        lif = LIFParams(v_threshold=1e9, timesteps=2)
        result = score_candidate(net, batch, lif, seed=0)
        assert result.singular

    def test_sentinel_orders_below_any_finite_score(self):
        assert NEG_INF < -1e300
        assert not NEG_INF > NEG_INF


class TestKernelDump:
    def test_round_trips_matrices(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = tuple((rng.random((3, 7)) < 0.5).astype(np.uint8) for _ in range(2))
        path = tmp_path / "kernels.txt"
        write_kernel_dump(path, BinaryCodes(("a", "b"), mats), 1.0)
        blocks = []
        current = []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                if current:
                    blocks.append(np.array(current))
                current = []
            else:
                current.append([float(tok) for tok in line.split()])
        blocks.append(np.array(current))
        assert len(blocks) == 3  # two layers + sum
        np.testing.assert_array_equal(blocks[0], hamming_kernel(mats[0]))
        np.testing.assert_array_equal(
            blocks[2], hamming_kernel(mats[0]) + hamming_kernel(mats[1])
        )
