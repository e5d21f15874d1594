import contextlib
import hashlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    naive_forward_codes,
    reference_lif_step,
    reshape_mean_avgpool2x2,
    row_major_conv2d_same,
    straight_cell_preactivation,
    windowed_mean_avgpool3x3,
)

from spikenas.arch import (
    CONV_OPS,
    CellArch,
    FIVE_OPS,
    MacroConfig,
    Operation,
    THREE_OPS,
    TWO_OPS,
    build_network,
    decode_cell,
    network_layers,
    search_space_size,
)
from spikenas import blas, snn
from spikenas.errors import SpikeNasError
from spikenas.snn import (
    LIFParams,
    avgpool2x2_down,
    avgpool3x3_same,
    conv2d_same,
    forward_collect_codes,
    init_weights,
    lif_step,
)


def _benchmark_conv_shapes():
    """(input, weights) shapes of every conv the perfbench workloads run.

    tiny_2c3o_m (S=4, stem 4), mid_2c2o_rate_jobs (S=16, stem 16) and
    paper_5o_random (S=16, stem 64, conv1x1 too): the stem, cell fan-outs
    of one to three edges at both cell widths, and the 1x1 downsample.
    The sample counts a tiled or sharded pass runs them at are covered too:
    one-sample tiles at 64 channels, the rule's tile at 32, and half a batch
    of 16 on each of two threads.
    """
    tile32 = snn.TILE_MACS // (32 * 32 * 9 * 32**2)
    for s, stem, kernels in ((4, 4, (3,)), (16, 16, (3,)), (8, 16, (3,)), (16, 64, (3, 1)),
                             (8, 64, (3, 1)), (1, 64, (3, 1)), (tile32, 32, (3, 1))):
        yield (s, 3, 32, 32), (stem, 3, 3, 3)
        yield (s, stem, 16, 16), (2 * stem, stem, 1, 1)
        for k in kernels:
            for m in (1, 2, 3):
                yield (s, stem, 32, 32), (m * stem, stem, k, k)
                yield (s, 2 * stem, 16, 16), (2 * m * stem, 2 * stem, k, k)


@st.composite
def _lif_cases(draw):
    """LIF constants and float32 (potential, input) vectors for one step.

    Besides plain values, each vector draws signed zeros, subnormals, the
    reset, and the threshold and the inputs that lift a potential at reset
    onto it, each with its neighbours one ulp away.
    """
    p = LIFParams(tau_leak=draw(st.sampled_from([1.0, 2.0, 3.7])),
                  v_threshold=draw(st.sampled_from([1.0, 0.7])),
                  v_reset=draw(st.sampled_from([0.0, -0.5, 0.25])))
    thr, reset = np.float32(p.v_threshold), np.float32(p.v_reset)
    special = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, -1.1754942e-38, float(reset)]
    for a in (thr, np.float32(p.tau_leak) * (thr - reset), thr - reset):
        special += [float(np.nextafter(a, np.float32(d))) for d in (-np.inf, np.inf)]
        special.append(float(a))
    value = st.one_of(st.sampled_from(special), st.floats(-1e4, 1e4, width=32))
    n = draw(st.integers(1, 24))
    vectors = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(2)]
    return p, *(np.array(v, dtype=np.float32) for v in vectors)


class TestLIFParams:
    def test_defaults(self):
        p = LIFParams()
        assert (p.tau_leak, p.v_threshold, p.v_reset, p.timesteps) == (2.0, 1.0, 0.0, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LIFParams(tau_leak=0.5)
        with pytest.raises(ValueError):
            LIFParams(v_threshold=0.0, v_reset=0.0)
        for timesteps in (0, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="timesteps must be >= 1"):
                LIFParams(timesteps=timesteps)
        assert LIFParams(timesteps=np.int16(3)).timesteps == 3

    @pytest.mark.parametrize("field, value", [
        ("tau_leak", float("nan")), ("tau_leak", float("inf")),
        ("v_threshold", float("nan")), ("v_threshold", float("inf")),
        ("v_reset", float("nan")), ("v_reset", float("-inf")),
    ])
    def test_non_finite_constants_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LIFParams(**{field: value})


class TestLifStep:
    def test_rest_is_a_fixed_point(self):
        p = LIFParams()
        v, s = lif_step(np.array(0.0), np.array(0.0), p)
        assert abs(float(v)) <= 1e-12
        assert float(s) == 0.0

    def test_single_step_spike_and_reset(self):
        p = LIFParams(tau_leak=2.0, v_threshold=1.0, v_reset=0.0)
        v, s = lif_step(np.array(0.0), np.array(2.0), p)
        # candidate = 0 + (2 - 0)/2 = 1.0 >= threshold
        assert float(s) == 1.0
        assert abs(float(v) - p.v_reset) <= 1e-12

    def test_subthreshold_convergence_never_fires(self):
        # v_k = 1 - 2^-k approaches the threshold from below; float64
        # rounds onto 1.0 only near step 54, past the 1e-12 resolution
        # of the derivation, so the no-spike window is checked to there.
        p = LIFParams(tau_leak=2.0, v_threshold=1.0, v_reset=0.0)
        v = np.array(0.0, dtype=np.float64)
        expected = [0.5, 0.75, 0.875]
        for step, want in enumerate(expected):
            v, s = lif_step(v, np.array(1.0), p)
            assert float(s) == 0.0, f"fired at step {step}"
            assert abs(float(v) - want) <= 1e-12
        for _ in range(37):
            v, s = lif_step(v, np.array(1.0), p)
            assert float(s) == 0.0
            assert float(v) < 1.0

    def test_shape_mismatch(self):
        with pytest.raises(SpikeNasError, match=r"potential \(3,\) vs input \(4,\)"):
            lif_step(np.zeros(3), np.zeros(4), LIFParams())

    def test_leak_decays_toward_reset(self):
        p = LIFParams(tau_leak=4.0, v_threshold=5.0, v_reset=0.0)
        v = np.array(0.9)
        for _ in range(50):
            v_next, _ = lif_step(v, np.array(0.0), p)
            assert abs(float(v_next)) < abs(float(v))
            v = v_next
        assert float(v) < 1e-5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=16),
           st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=16))
    def test_spikes_are_binary_and_potential_bounded(self, vs, xs):
        n = min(len(vs), len(xs))
        p = LIFParams(tau_leak=2.0, v_threshold=1.0, v_reset=0.0)
        v, s = lif_step(np.array(vs[:n]), np.array(xs[:n]), p)
        assert set(np.unique(s)) <= {0.0, 1.0}
        # after a step the potential is either reset or below threshold
        assert np.all((v == p.v_reset) | (v < p.v_threshold))

    @settings(max_examples=300, deadline=None)
    @given(_lif_cases())
    def test_fused_step_equals_the_formula(self, case):
        p, v_prev, x = case
        kept = v_prev.copy()
        v, fired = lif_step(v_prev, x, p)
        want_v, want_spikes = reference_lif_step(v_prev, x, p)
        assert v.dtype == want_v.dtype == np.float32 and fired.dtype == bool
        assert v.tobytes() == want_v.tobytes()
        assert fired.tolist() == want_spikes.astype(bool).tolist()
        assert v_prev.tobytes() == kept.tobytes()  # a new buffer: the input is left alone
        v0, fired0 = lif_step(v_prev[0], x[0], p)  # 0-d inputs
        assert v0.tobytes() == v[:1].tobytes() and bool(fired0) == fired[0]


def _naive_avgpool3x3(x):
    s, c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for n in range(s):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            ii, jj = i + di, j + dj
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += x[n, ch, ii, jj]
                    out[n, ch, i, j] = acc / 9.0
    return out


class TestFeatureOps:
    def test_conv_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 1, 6, 6), dtype=np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = conv2d_same(x, w)
        np.testing.assert_array_equal(out, x)

    def test_conv_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float64)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float64)
        out = conv2d_same(x, w)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in (0, 1):
            for o in range(4):
                for i in range(5):
                    for j in range(5):
                        want = (xp[n, :, i:i + 3, j:j + 3] * w[o]).sum()
                        assert abs(out[n, o, i, j] - want) < 1e-9

    @pytest.mark.parametrize("one_thread", [False, True], ids=["default", "one_thread"])
    @pytest.mark.parametrize("x_shape,w_shape", [
        pytest.param(x, w, id="x".join(map(str, x)) + "-" + "x".join(map(str, w)))
        for x, w in _benchmark_conv_shapes()])
    def test_conv_equals_row_major_operand_at_benchmark_shapes(self, x_shape, w_shape,
                                                               one_thread):
        rng = np.random.default_rng([*x_shape, *w_shape])
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(0.0, 0.3, size=w_shape).astype(np.float32)
        with blas.single_blas_thread() if one_thread else contextlib.nullcontext():
            got, want = conv2d_same(x, w), row_major_conv2d_same(x, w)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_conv_shape_checks(self):
        with pytest.raises(SpikeNasError, match="incompatible with weights"):
            conv2d_same(np.zeros((1, 2, 4, 4)), np.zeros((3, 5, 3, 3)))
        with pytest.raises(SpikeNasError, match="conv weights must be 4-D"):
            conv2d_same(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 3)))

    def test_avgpool3x3_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.random((2, 2, 6, 6))
        np.testing.assert_allclose(avgpool3x3_same(x), _naive_avgpool3x3(x),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 64, 16, 16), (4, 4, 32, 32), (2, 3, 7, 9),
                                       (3, 2, 1, 5), (1, 1, 1, 1), (1, 1, 2, 2), (1, 1, 3, 5),
                                       (3, 2, 5, 7), (1, 64, 32, 32)])
    def test_avgpool3x3_box_sum_equals_windowed_mean(self, shape):
        # the box sum runs over the flattened padded map; a spike mask sums as uint8
        rng = np.random.default_rng(shape)
        for x in (rng.random(shape, dtype=np.float32),
                  rng.normal(0.0, 10.0, size=shape).astype(np.float32),
                  rng.random(shape) < 0.5):
            got = avgpool3x3_same(x)
            want = windowed_mean_avgpool3x3(x.astype(np.float32))
            assert got.dtype == want.dtype == np.float32 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, bool])
    def test_flat_box_sum_ends_at_the_last_cell(self, dtype):
        # the last output cell reads the last input cell, whose sums end the
        # flat buffers: a view reading past their end gives other numbers
        shape = (2, 3, 4, 5)
        x = np.random.default_rng(5).random(shape, dtype=np.float32)
        x = x < 0.5 if dtype is bool else x * 1e-3
        x[-1, -1, -1, -1] = 1
        got = avgpool3x3_same(x)
        want = windowed_mean_avgpool3x3(x.astype(np.float32))
        assert got.tobytes() == want.tobytes() and got[-1, -1, -1, -1] >= np.float32(1 / 9)

    @pytest.mark.parametrize("shape", [(16, 64, 32, 32), (2, 3, 6, 10), (3, 1, 2, 4)])
    def test_downsample_pool_equals_reshaped_mean(self, shape):
        rng = np.random.default_rng(shape)
        for x in (rng.random(shape, dtype=np.float32),
                  rng.normal(0.0, 10.0, size=shape).astype(np.float32)):
            got = avgpool2x2_down(x)
            want = reshape_mean_avgpool2x2(x)
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.05, 0.9])
    @pytest.mark.parametrize("shape", [(16, 64, 32, 32), (3, 5, 6, 10), (2, 1, 2, 2)])
    @pytest.mark.parametrize("kernel", ["avgpool3x3", "avgpool2x2", "conv3x3", "conv1x1"])
    def test_bool_map_equals_its_float_copy(self, kernel, shape, rate):
        # spike maps are bool masks: each kernel reads one as its float32 0/1 copy,
        # never summing bools (a logical OR) or averaging them in float64
        rng = np.random.default_rng(shape)
        mask = rng.random(shape) < rate
        k = int(kernel[-1])
        w = rng.normal(0.0, 0.3, size=(2 * shape[1], shape[1], k, k)).astype(np.float32)
        run = {"avgpool3x3": avgpool3x3_same, "avgpool2x2": avgpool2x2_down,
               "conv3x3": lambda x: conv2d_same(x, w), "conv1x1": lambda x: conv2d_same(x, w)}
        got, want = run[kernel](mask), run[kernel](mask.astype(np.float32))
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_downsample_pool_means(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = avgpool2x2_down(x)
        np.testing.assert_array_equal(
            out[0, 0], np.array([[2.5, 4.5], [10.5, 12.5]])
        )
        with pytest.raises(SpikeNasError, match="cannot halve odd spatial size 5x4"):
            avgpool2x2_down(np.zeros((1, 1, 5, 4)))


class TestInitWeights:
    def test_deterministic_given_seed(self, tiny_macro):
        net = build_network([decode_cell(40, TWO_OPS)], tiny_macro)
        a = init_weights(net, 7)
        b = init_weights(net, 7)
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self, tiny_macro):
        net = build_network([decode_cell(40, TWO_OPS)], tiny_macro)
        a = init_weights(net, 7)
        b = init_weights(net, 8)
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_one_float32_array_per_layer(self, tiny_macro):
        # no bias vectors, and the bias flags do not change the draw
        drawn = []
        for macro in (tiny_macro, tiny_macro.without_bias()):
            net = build_network([decode_cell(63, TWO_OPS)] * 2, macro)
            weights = init_weights(net, 0)
            assert list(weights) == [layer.name for layer in network_layers(net)]
            for layer in network_layers(net):
                w = weights[layer.name]
                assert type(w) is np.ndarray and w.dtype == np.float32
                assert w.shape == layer.weight_shape
            drawn.append(weights)
        for name, w in drawn[0].items():
            np.testing.assert_array_equal(w, drawn[1][name])

    def test_variance_tracks_fan_in(self):
        # conv at 64 channels: 9*64*64 = 36864 elements, comfortably large
        macro = MacroConfig(stem_channels=64)
        net = build_network([CellArch.uniform(Operation.CONV3X3)], macro)
        weights = init_weights(net, 1)
        w = weights["cell1.con01"]
        fan_in = 9 * 64
        var = float(w.var())
        assert abs(var - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)

    def test_only_parameterized_layers_present(self, tiny_macro):
        net = build_network([CellArch.uniform(Operation.SKIPCON)], tiny_macro)
        names = set(init_weights(net, 0))
        assert names == {"stem.conv", "classifier.fc"}


class TestForwardCollectCodes:
    def _net(self, macro, index=40, opset=TWO_OPS, cells=1):
        return build_network([decode_cell(index, opset)] * cells, macro)

    def _batch(self, n=3, macro=None, seed=0):
        shape = (n, 3, 32, 32)
        return np.random.default_rng(seed).random(shape, dtype=np.float32)

    def test_unreachable_threshold_silences_everything(self, tiny_macro):
        net = self._net(tiny_macro)
        p = LIFParams(v_threshold=1e9, timesteps=3)
        codes = forward_collect_codes(net, init_weights(net, 0), self._batch(), p)
        for mat in codes.values():
            assert not mat.any()

    def test_dominant_input_fires_whole_stem(self, tiny_macro):
        net = self._net(tiny_macro)
        weights = init_weights(net, 0)
        weights["stem.conv"] = np.full_like(weights["stem.conv"], 10.0)
        p = LIFParams(v_threshold=1e-6, timesteps=2)
        batch = np.ones((2, 3, 32, 32), dtype=np.float32)
        codes = forward_collect_codes(net, weights, batch, p)
        assert codes["stem"].all()

    def test_duplicated_samples_get_identical_rows(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        one = self._batch(1)
        batch = np.concatenate([one, one, one])
        codes = forward_collect_codes(net, init_weights(net, 1), batch, tiny_lif)
        for mat in codes.values():
            np.testing.assert_array_equal(mat[0], mat[1])
            np.testing.assert_array_equal(mat[0], mat[2])

    def test_deterministic_and_permutation_equivariant(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro, index=21)
        weights = init_weights(net, 2)
        batch = self._batch(4)
        a = forward_collect_codes(net, weights, batch, tiny_lif)
        b = forward_collect_codes(net, weights, batch, tiny_lif)
        perm = [2, 0, 3, 1]
        c = forward_collect_codes(net, weights, batch[perm], tiny_lif)
        for m1, m2, m3 in zip(a.values(), b.values(), c.values()):
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(m1[perm], m3)

    def test_zeroize_only_cell_emits_no_spikes(self, tiny_macro, tiny_lif):
        net = build_network([CellArch.uniform(Operation.ZEROIZE)] * 2, tiny_macro)
        codes = forward_collect_codes(net, init_weights(net, 0),
                                      self._batch(2), tiny_lif)
        assert not codes["cell1"].any()
        assert not codes["cell2"].any()

    def test_layer_names_and_neuron_counts(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro, index=100, opset=THREE_OPS, cells=2)
        codes = forward_collect_codes(net, init_weights(net, 0),
                                      self._batch(2), tiny_lif)
        assert list(codes) == ["stem", "cell1", "down1", "cell2", "classifier"]
        # stem width 4 at 32x32, doubled and halved at the downsample; 4 classes
        neurons = (4 * 32 * 32, 4 * 32 * 32, 8 * 16 * 16, 8 * 16 * 16, 4)
        for n, mat in zip(neurons, codes.values()):
            assert mat.shape == (2, n)
            assert mat.dtype == np.uint8
            assert set(np.unique(mat)) <= {0, 1}

    @pytest.mark.parametrize("cells, stages", [
        (1, ["stem", "cell1", "classifier"]),
        (2, ["stem", "cell1", "down1", "cell2", "classifier"]),
        (3, ["stem", "cell1", "down1", "cell2", "down2", "cell3", "classifier"]),
    ])
    def test_stages_in_stage_order(self, tiny_macro, tiny_lif, cells, stages):
        net = self._net(tiny_macro, cells=cells)
        codes = forward_collect_codes(net, init_weights(net, 0), self._batch(2), tiny_lif)
        assert list(codes) == stages

    def test_concat_mode_multiplies_columns_by_timesteps(self, tiny_macro):
        net = self._net(tiny_macro)
        p = LIFParams(timesteps=3)
        weights = init_weights(net, 0)
        batch = self._batch(2)
        any_codes = forward_collect_codes(net, weights, batch, p, code_mode="any")
        cat_codes = forward_collect_codes(net, weights, batch, p, code_mode="concat")
        for a, c in zip(any_codes.values(), cat_codes.values()):
            assert c.shape == (a.shape[0], a.shape[1] * p.timesteps)

    def test_rate_coding_is_seeded(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        weights = init_weights(net, 0)
        batch = self._batch(2)
        a = forward_collect_codes(net, weights, batch, tiny_lif,
                                  input_coding="rate", coding_seed=5)
        b = forward_collect_codes(net, weights, batch, tiny_lif,
                                  input_coding="rate", coding_seed=5)
        c = forward_collect_codes(net, weights, batch, tiny_lif,
                                  input_coding="rate", coding_seed=6)
        same = all(np.array_equal(x, y) for x, y in zip(a.values(), b.values()))
        assert same
        assert any(not np.array_equal(x, y) for x, y in zip(a.values(), c.values()))

    def test_batch_shape_validated(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        with pytest.raises(SpikeNasError, match=r"batch shape \(2, 3, 16, 16\) does not match"):
            forward_collect_codes(net, init_weights(net, 0),
                                  np.zeros((2, 3, 16, 16), dtype=np.float32),
                                  tiny_lif)

    def test_missing_weights_detected(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        weights = init_weights(net, 0)
        weights.pop("classifier.fc")
        with pytest.raises(SpikeNasError, match="no weights for layer 'classifier.fc'"):
            forward_collect_codes(net, weights, self._batch(2), tiny_lif)

    def test_bad_modes_rejected(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        weights = init_weights(net, 0)
        with pytest.raises(SpikeNasError, match="^unknown code_mode 'final'$"):
            forward_collect_codes(net, weights, self._batch(2), tiny_lif,
                                  code_mode="final")
        with pytest.raises(SpikeNasError, match="^unknown input_coding 'ttfs'$"):
            forward_collect_codes(net, weights, self._batch(2), tiny_lif,
                                  input_coding="ttfs")

    def test_stage_silent_at_reset_stores_nothing(self):
        shape = (16, 64, 32, 32)  # a paper-macro stem map: 4 MiB as float32
        stage = snn._LifStage(LIFParams())
        zero = np.broadcast_to(False, shape)
        tracemalloc.start()
        try:
            for _ in range(5):
                spikes, silent = stage.step(None, zero)
                assert silent and spikes.shape == shape and not spikes.any()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        for mode, width in (("any", 65536), ("concat", 5 * 65536)):
            codes = stage.codes(mode)
            assert codes.dtype == np.uint8 and codes.shape == (16, width)
            assert not codes.any()

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("pattern", ["0000", "0100", "1000", "0110", "1011", "1111"])
    def test_codes_over_silent_and_firing_steps(self, pattern, code_mode):
        # "1": the step gets a random input and stores a mask; "0": the step
        # gets no input, and a stage still at reset stores a zero-stride mask
        shape = (3, 2, 4, 4)
        rng = np.random.default_rng(int(pattern, 2))
        p = LIFParams(v_threshold=0.4, timesteps=len(pattern))
        stage = snn._LifStage(p)
        dense = []
        for step in pattern:
            pre = rng.random(shape, dtype=np.float32) if step == "1" else None
            stage.step(pre, np.broadcast_to(False, shape))
            dense.append(np.array(stage.masks[-1]))
        at_reset = len(pattern) - len(pattern.lstrip("0"))
        assert [not any(m.strides) for m in stage.masks] == [i < at_reset for i in range(4)]
        want = (np.any(dense, axis=0) if code_mode == "any"
                else np.stack(dense, axis=1)).reshape(3, -1).astype(np.uint8)
        got = stage.codes(code_mode)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.any() == ("1" in pattern)
        assert all(np.array_equal(m, d) for m, d in zip(stage.masks, dense))


O = Operation
# Each op appears on at least one edge reading node 0 and one reading a
# computed node, so every op sees spikes and real-valued maps.
ORACLE_CELLS = [
    CellArch(O.CONV3X3, O.CONV1X1, O.SKIPCON, O.AVGPOOL3X3, O.ZEROIZE, O.CONV3X3),
    CellArch(O.AVGPOOL3X3, O.SKIPCON, O.CONV1X1, O.CONV3X3, O.CONV1X1, O.ZEROIZE),
    CellArch(O.SKIPCON, O.ZEROIZE, O.CONV3X3, O.CONV1X1, O.AVGPOOL3X3, O.SKIPCON),
    decode_cell(9876, FIVE_OPS),
]


class TestForwardOracle:
    """forward_collect_codes against per-pixel loops on a 2-channel net."""

    MACRO = MacroConfig(stem_channels=2, num_classes=3, input_shape=(3, 6, 6))
    LIF = LIFParams(v_threshold=0.3, timesteps=3)

    def _compare(self, cells, seed, **modes):
        net = build_network(cells, self.MACRO)
        weights = init_weights(net, seed)
        batch = np.random.default_rng(seed).random((3, 3, 6, 6), dtype=np.float32)
        got = forward_collect_codes(net, weights, batch, self.LIF, **modes)
        names, want = naive_forward_codes(net, weights, batch, self.LIF, **modes)
        assert tuple(got) == names
        for name, g, w in zip(names, got.values(), want):
            assert g.dtype == np.uint8
            np.testing.assert_array_equal(g, w, err_msg=name)
        return want

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("cell", range(len(ORACLE_CELLS)))
    def test_one_cell_codes_equal(self, cell, code_mode):
        want = self._compare([ORACLE_CELLS[cell]], seed=cell, code_mode=code_mode)
        # the comparison means something only if some stage both fires and rests
        assert any(0 < m.mean() < 1 for m in want)

    def test_rate_coding_codes_equal(self):
        self._compare([ORACLE_CELLS[0]], seed=5, input_coding="rate", coding_seed=9)

    def test_two_cell_codes_equal(self):
        self._compare(ORACLE_CELLS[:2], seed=3)

    def test_every_stage_integrates_float32(self, monkeypatch):
        # spike maps are bool masks, and a bool mean is float64: the classifier
        # must average in float32, as it did over float 0/1 maps
        seen, real = [], snn.lif_step
        monkeypatch.setattr(snn, "lif_step", lambda v, x, p: (
            seen.append((v.dtype, x.dtype, x.shape)) or real(v, x, p)))
        self._compare(ORACLE_CELLS[:2], seed=3)
        assert {v for v, _, _ in seen} == {np.dtype(np.float32)}
        logits = {x for _, x, shape in seen if shape == (3, self.MACRO.num_classes)}
        assert logits == {np.dtype(np.float32)}

    # Settings whose deeper stages go silent.  Each pattern gives, per
    # stage, whether it fired at each of the four steps.
    SILENT_CASES = {
        # cell1 is silent at steps 1 and 3, so down1 first stays at reset
        # and then decays between the steps it integrates; down1 never
        # fires, so cell2 and the classifier never leave reset
        "deep": ((1, 0), 1, 0.5, "direct", {
            "stem": "0111", "cell1": "0101", "down1": "0000", "cell2": "0000",
            "classifier": "0000"}),
        # down1 fires at steps 2 and 4 only: cell2 decays at step 3
        "down_pauses": ((1, 0), 3, 0.3, "direct", {
            "stem": "1111", "cell1": "1111", "down1": "0101", "cell2": "0101",
            "classifier": "0000"}),
        # the stem is silent at step 2 after firing: cell1 decays there
        "rate": ((2, 0), 8, 0.7, "rate", {
            "stem": "1011", "cell1": "0000", "down1": "0000", "cell2": "0000",
            "classifier": "0000"}),
        # cell1 is silent at every step: nothing after it runs
        "cell1_silent": ((0, 1), 1, 0.7, "direct", {
            "stem": "0101", "cell1": "0000", "down1": "0000", "cell2": "0000",
            "classifier": "0000"}),
    }

    def _compare_steps(self, case, code_mode):
        """Codes against the oracle; returns each stage's per-step firing."""
        cells, seed, threshold, coding, _ = self.SILENT_CASES[case]
        lif = LIFParams(v_threshold=threshold, timesteps=4)
        net = build_network([ORACLE_CELLS[c] for c in cells], self.MACRO)
        weights = init_weights(net, seed)
        batch = np.random.default_rng(seed).random((3, 3, 6, 6), dtype=np.float32)
        got = forward_collect_codes(net, weights, batch, lif, code_mode=code_mode,
                                    input_coding=coding)
        names, steps = naive_forward_codes(net, weights, batch, lif, code_mode="concat",
                                           input_coding=coding)
        fired = {}
        for name, g, cat in zip(names, got.values(), steps):
            per_step = cat.reshape(cat.shape[0], lif.timesteps, -1)
            want = cat if code_mode == "concat" else per_step.max(axis=1)
            np.testing.assert_array_equal(g, want, err_msg=name)
            fired[name] = "".join("01"[int(per_step[:, t].any())]
                                  for t in range(lif.timesteps))
        return fired

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("case", sorted(SILENT_CASES))
    def test_silent_stage_codes_equal(self, case, code_mode):
        assert self._compare_steps(case, code_mode) == self.SILENT_CASES[case][-1]

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("layer, fires", [
        # con01 reads cell2's silent input; its bias reaches cell2 through
        # con12 and con23
        ("cell2.con01", "cell2"),
        ("down1.conv", "down1"),
        ("classifier.fc", "classifier"),
    ])
    def test_biased_layer_on_silent_input_still_runs(self, layer, fires, code_mode):
        # a bias makes a layer fire on silent input, so skipping silent
        # stages would give wrong codes: that is why a weight set holds no
        # biases and the engine has no bias slot
        cells, seed, threshold, coding, _ = self.SILENT_CASES["deep"]
        lif = LIFParams(v_threshold=threshold, timesteps=4)
        net = build_network([ORACLE_CELLS[c] for c in cells], self.MACRO)
        weights = init_weights(net, seed)
        bias = np.linspace(-1.5, 1.5, len(weights[layer]), dtype=np.float32)[::-1]
        batch = np.random.default_rng(seed).random((3, 3, 6, 6), dtype=np.float32)
        names, steps = naive_forward_codes(net, weights, batch, lif, code_mode="concat",
                                           input_coding=coding, biases={layer: bias})
        fired = {name: cat.reshape(cat.shape[0], lif.timesteps, -1).any(axis=(0, 2))
                 for name, cat in zip(names, steps)}
        assert fired[fires].any()
        if layer != "down1.conv":
            assert not fired["down1"].any()
        got = forward_collect_codes(net, weights, batch, lif, code_mode=code_mode,
                                    input_coding=coding)
        _, want = naive_forward_codes(net, weights, batch, lif, code_mode=code_mode,
                                      input_coding=coding)
        for name, g, w in zip(names, got.values(), want):
            np.testing.assert_array_equal(g, w, err_msg=name)
        assert not got[fires].any()

    # layer: (shape of the array put in its place, or None for a
    # (weights, bias) pair, which has no shape; the message's tail)
    MISSHAPED = {
        "stem.conv": ((4, 3, 1, 1), "(4, 3, 3, 3), got (4, 3, 1, 1)"),
        # one filter of the cell's fused 3x3 fan-out from node 0
        "cell1.con01": ((4, 4, 1, 1), "(4, 4, 3, 3), got (4, 4, 1, 1)"),
        "classifier.fc": ((3, 8), "(4, 8), got (3, 8)"),
        "down1.conv": (None, "(8, 4, 1, 1), got None"),
    }

    @pytest.mark.parametrize("layer", sorted(MISSHAPED))
    def test_misshaped_weights_refused(self, layer):
        shape, message = self.MISSHAPED[layer]
        macro = MacroConfig(stem_channels=4, num_classes=4, input_shape=(3, 6, 6))
        net = build_network([CellArch.uniform(O.CONV3X3)] * 2, macro)
        weights = init_weights(net, 0)
        w = weights[layer]
        weights[layer] = (w, np.zeros(len(w), np.float32)) if shape is None else (
            np.ones(shape, np.float32))
        with pytest.raises(SpikeNasError, match=re.escape(
                f"layer {layer!r} takes weights of shape {message}")):
            forward_collect_codes(net, weights, np.ones((2, 3, 6, 6), np.float32), self.LIF)

    def test_zero_and_absent_biases_accepted(self):
        # the bias flags count toward n_param only, not toward the codes
        batch = np.random.default_rng(0).random((3, 3, 6, 6), dtype=np.float32)
        codes = []
        for macro in (self.MACRO, self.MACRO.without_bias()):
            net = build_network(ORACLE_CELLS[:2], macro)
            codes.append(forward_collect_codes(net, init_weights(net, 0), batch,
                                               self.LIF).values())
        for zero, absent in zip(*codes):
            np.testing.assert_array_equal(zero, absent)

    def test_silent_stages_at_reset_run_no_kernel(self, monkeypatch):
        # the stem and cell1 work on 6x6 maps; down1, cell2 and the
        # classifier (3x3 maps and logits) only ever see silent input
        shapes = []
        for kernel in ("conv2d_same", "avgpool3x3_same", "avgpool2x2_down"):
            real = getattr(snn, kernel)
            monkeypatch.setattr(snn, kernel, lambda x, *a, real=real, kernel=kernel: (
                shapes.append((kernel, x.shape)) or real(x, *a)))
        real_lif = snn.lif_step
        monkeypatch.setattr(snn, "lif_step", lambda v, x, p: (
            shapes.append(("lif_step", x.shape)) or real_lif(v, x, p)))
        assert self._compare_steps("cell1_silent", "any") == self.SILENT_CASES[
            "cell1_silent"][-1]
        assert {k for k, _ in shapes} == {"conv2d_same", "avgpool3x3_same", "lif_step"}
        assert all(shape[2:] == (6, 6) for _, shape in shapes), shapes


def _assert_same_codes(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype == np.uint8, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


def _set_cores(monkeypatch, cores):
    """Give the process an affinity mask of `cores` CPUs."""
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


class TestShards:
    """Sharded forward passes against one run over the whole batch."""

    MACRO = MacroConfig(stem_channels=4, num_classes=4, input_shape=(3, 8, 8))
    LIF = LIFParams(v_threshold=0.3, timesteps=3)

    @pytest.fixture(autouse=True)
    def split_every_batch(self, monkeypatch):
        # 8x8 batches are far below SPLIT_MACS, which would keep them on one thread
        monkeypatch.setattr(snn, "SPLIT_MACS", 0)

    def _both(self, monkeypatch, net, weights, batch, lif, cores, **modes):
        """Codes on one core, checked against those on `cores` threads."""
        _set_cores(monkeypatch, 1)
        whole = forward_collect_codes(net, weights, batch, lif, **modes)
        _set_cores(monkeypatch, cores)
        threads, real_map = [], snn.thread_map

        def record(fn, items, workers):
            threads.append(workers)
            return real_map(fn, items, workers)

        monkeypatch.setattr(snn, "thread_map", record)
        split = forward_collect_codes(net, weights, batch, lif, **modes)
        assert threads == [min(cores, len(batch))]
        _assert_same_codes(split, whole)
        return whole

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("input_coding", ["direct", "rate"])
    @pytest.mark.parametrize("samples, cores", [(5, 2), (4, 2), (6, 3), (3, 8)])
    def test_sharded_codes_equal(self, monkeypatch, samples, cores, input_coding,
                                 code_mode):
        net = build_network(ORACLE_CELLS[:2], self.MACRO)
        batch = np.random.default_rng(samples).random((samples, 3, 8, 8), dtype=np.float32)
        whole = self._both(monkeypatch, net, init_weights(net, 4), batch, self.LIF, cores,
                           code_mode=code_mode, input_coding=input_coding, coding_seed=3)
        assert any(0 < m.mean() < 1 for m in whole.values())

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    def test_one_shard_silent_while_the_other_fires(self, monkeypatch, code_mode):
        # a black image never drives the bias-free stem: the first shard's
        # stem, and every stage after it, stays at reset
        net = build_network(ORACLE_CELLS[:2], self.MACRO)
        batch = np.random.default_rng(1).random((5, 3, 8, 8), dtype=np.float32)
        batch[:3] = 0
        whole = self._both(monkeypatch, net, init_weights(net, 4), batch, self.LIF, 2,
                           code_mode=code_mode)
        assert not any(m[:3].any() for m in whole.values())
        assert whole["stem"][3:].any() and whole["cell1"][3:].any()

    @pytest.mark.parametrize("cell", [ORACLE_CELLS[0], ORACLE_CELLS[1]],
                             ids=["conv3_conv1_pool_zero", "pool_conv1_conv3_zero"])
    def test_paper_macro_codes_equal_under_one_blas_thread(self, monkeypatch, cell):
        net = build_network([cell] * 2, MacroConfig())
        batch = np.random.default_rng(7).random((16, 3, 32, 32), dtype=np.float32)
        with blas.single_blas_thread():
            whole = self._both(monkeypatch, net, init_weights(net, 11), batch, LIFParams(),
                               2)
        assert whole["stem"].any() and whole["cell1"].any()

    def test_raising_shard_surfaces_and_restores_blas_count(self, monkeypatch):
        sets, count = [], [4]

        def set_(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(blas, "openblas_controls", lambda: (lambda: count[0], set_))
        batch = np.random.default_rng(0).random((5, 3, 8, 8), dtype=np.float32)
        real = snn._simulate

        def simulate(net, weights, x, *args, **kwargs):
            if (x == batch[3]).all(axis=(1, 2, 3)).any():  # the tile holding sample 3
                raise RuntimeError("shard failed")
            return real(net, weights, x, *args, **kwargs)

        monkeypatch.setattr(snn, "_simulate", simulate)
        net = build_network(ORACLE_CELLS[:1], self.MACRO)
        _set_cores(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="shard failed"):
            forward_collect_codes(net, init_weights(net, 0), batch, self.LIF)
        assert sets == [1, 4] and count[0] == 4

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("input_coding", ["direct", "rate"])
    @pytest.mark.parametrize("samples, tile", [(5, 2), (7, 3)])
    def test_uneven_tiles_equal_one_run(self, monkeypatch, samples, tile, input_coding,
                                        code_mode):
        net = build_network(ORACLE_CELLS[:2], self.MACRO)
        weights = init_weights(net, 4)
        batch = np.random.default_rng(samples).random((samples, 3, 8, 8), dtype=np.float32)
        modes = dict(code_mode=code_mode, input_coding=input_coding, coding_seed=3)
        _set_cores(monkeypatch, 1)
        whole = forward_collect_codes(net, weights, batch, self.LIF, **modes)
        sizes, real = [], snn.conv2d_same

        def conv(x, w):
            out = real(x, w)
            assert out.flags.c_contiguous and out.shape == (len(x), len(w), *x.shape[2:])
            sizes.append(len(x))
            return out

        monkeypatch.setattr(snn, "conv2d_same", conv)
        monkeypatch.setattr(snn, "TILE_MACS", tile * 8 * 8 * 9 * 4**2)
        _set_cores(monkeypatch, 2)
        tiled = forward_collect_codes(net, weights, batch, self.LIF, **modes)
        _assert_same_codes(tiled, whole)
        assert set(sizes) == {len(t) for t in np.array_split(batch, -(-samples // tile))}
        assert len(set(sizes)) > 1 and any(0 < m.mean() < 1 for m in whole.values())


EDGES = ("con01", "con02", "con03", "con12", "con13", "con23")


class TestCellPath:
    """_cell_preactivation on a `_cell_plan` against running all six edges one by one."""

    C = 2

    def _weights(self, rng):
        out = {}
        for edge in EDGES:
            for op, k in ((O.CONV1X1, 1), (O.CONV3X3, 3)):
                w = rng.normal(0.0, 0.7, size=(self.C, self.C, k, k)).astype(np.float32)
                out[op, edge] = w
        return out

    def _count_convs(self, monkeypatch):
        shapes = []
        real_conv = snn.conv2d_same
        monkeypatch.setattr(snn, "conv2d_same",
                            lambda *a: shapes.append(a[1].shape) or real_conv(*a))
        return shapes

    def _check_all(self, opset, monkeypatch, spikes=np.float32):
        """Every cell of `opset` on a 0/1 map of dtype `spikes`; returns the dead count.

        The straight run reads the float32 copy: a bool map must give the same
        numbers, in a float32 map unless the cell passes its input through.
        """
        rng = np.random.default_rng(len(opset))
        bank = self._weights(rng)
        x = (rng.random((3, self.C, 5, 7)) < 0.5).astype(spikes)
        calls = self._count_convs(monkeypatch)
        dead = 0
        for index in range(search_space_size(opset)):
            cell = decode_cell(index, opset)
            weights = {f"cell1.{e}": bank[op, e]
                       for e, op in zip(EDGES, cell.edges()) if op in CONV_OPS}
            want = straight_cell_preactivation(cell, x.astype(np.float32), weights, "cell1")
            calls.clear()
            got = snn._cell_preactivation(snn._cell_plan(cell, weights, "cell1"), x)
            if not want.any():
                dead += 1
                assert got is None, f"dead cell {index} gave a map"
                assert not calls, f"dead cell {index} ran {len(calls)} convs"
                continue
            assert got.shape == want.shape and (got.dtype == want.dtype or got is x)
            assert got.astype(np.float32).tobytes() == want.tobytes(), f"cell {index}"
        return dead

    def test_three_op_cells_equal(self, monkeypatch):
        self._check_all(THREE_OPS, monkeypatch)

    def test_three_op_cells_on_a_bool_map_equal(self, monkeypatch):
        self._check_all(THREE_OPS, monkeypatch, spikes=bool)

    def test_skipcon_terms_of_one_spike_map_add_as_numbers(self):
        # node 3 = con03(node 0) + con13(node 1), node 1 = con01(node 0): both
        # terms are the input's bool mask, and bool + bool is a logical OR
        mask = np.random.default_rng(0).random((2, self.C, 4, 4)) < 0.5
        cell = CellArch(con01=O.SKIPCON, con02=O.ZEROIZE, con03=O.SKIPCON,
                        con12=O.ZEROIZE, con13=O.SKIPCON, con23=O.ZEROIZE)
        got = snn._cell_preactivation(snn._cell_plan(cell, {}, "cell1"), mask)
        assert got.dtype == np.float32 and mask.any()
        assert got.tobytes() == (2 * mask.astype(np.float32)).tobytes()

    def test_five_op_cells_equal(self, monkeypatch):
        dead = self._check_all(FIVE_OPS, monkeypatch)
        # every cell whose three output edges are zeroize is dead
        assert dead >= 5 ** 3

    def test_all_dead_cell_runs_no_conv(self, monkeypatch):
        monkeypatch.setattr(snn, "conv2d_same",
                            lambda *a: pytest.fail("a dead cell ran a conv"))
        x = np.ones((2, self.C, 6, 6), dtype=np.float32)
        # con01 and con02 feed nodes nothing reads; con12 reads them
        dead = CellArch(O.CONV3X3, O.CONV3X3, O.ZEROIZE, O.CONV1X1, O.ZEROIZE, O.ZEROIZE)
        weights = {f"cell1.{e}": np.ones((self.C, self.C, k, k), np.float32)
                   for e, k in (("con01", 3), ("con02", 3), ("con12", 1))}
        for cell in (CellArch.uniform(O.ZEROIZE), dead):
            assert snn._cell_preactivation(snn._cell_plan(cell, weights, "cell1"), x) is None

    def test_fan_out_convs_run_as_one_gemm(self, monkeypatch):
        bank = self._weights(np.random.default_rng(0))
        weights = {f"cell1.{e}": bank[O.CONV3X3, e] for e in EDGES}
        shapes = self._count_convs(monkeypatch)
        plan = snn._cell_plan(CellArch.uniform(O.CONV3X3), weights, "cell1")
        snn._cell_preactivation(plan, np.ones((2, self.C, 4, 4), np.float32))
        assert [s[0] for s in shapes] == [3 * self.C, 2 * self.C, self.C]


class TestCellPlan:
    """The pass plans each cell once; its tiles, steps and threads only read the plan."""

    MACRO = MacroConfig(stem_channels=4, num_classes=4, input_shape=(3, 8, 8))
    CELLS = [CellArch.uniform(O.CONV3X3), ORACLE_CELLS[0]]

    @pytest.mark.parametrize("timesteps", [1, 5])
    @pytest.mark.parametrize("tiles", [1, 4, 16])
    def test_fan_out_filters_stack_once_per_pass(self, monkeypatch, tiles, timesteps):
        net = build_network(self.CELLS, self.MACRO)
        weights = init_weights(net, 3)
        batch = np.random.default_rng(tiles).random((16, 3, 8, 8), dtype=np.float32)
        lif = LIFParams(v_threshold=0.3, timesteps=timesteps)
        stacked, runs, real_concat, real_simulate = [], [], np.concatenate, snn._simulate

        def concatenate(arrays, *args, **kwargs):
            if np.ndim(arrays[0]) == 4:  # filters; codes are joined as 2-D arrays
                stacked.append(len(arrays))
            return real_concat(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", concatenate)
        monkeypatch.setattr(snn, "_simulate", lambda *a, **k: runs.append(1) or real_simulate(
            *a, **k))
        monkeypatch.setattr(snn, "TILE_MACS", 16 // tiles * 8 * 8 * 9 * 4**2)
        _set_cores(monkeypatch, 1)
        codes = forward_collect_codes(net, weights, batch, lif)
        assert len(runs) == tiles and codes["cell1"].any() and codes["cell2"].any()
        # the uniform cell's fan-outs: 3, 2 and 1 conv3x3 edges on nodes 0, 1 and 2;
        # ORACLE_CELLS[0]'s: conv3x3 and conv1x1 on node 0, conv3x3 on node 2
        assert sorted(stacked) == [1, 1, 1, 1, 2, 3]

    def test_two_passes_at_once_equal_each_alone(self, monkeypatch):
        nets = [build_network([cell] * 2, self.MACRO) for cell in self.CELLS]
        weights = [init_weights(net, seed) for seed, net in enumerate(nets)]
        batch = np.random.default_rng(0).random((5, 3, 8, 8), dtype=np.float32)
        lif = LIFParams(v_threshold=0.3, timesteps=3)
        monkeypatch.setattr(snn, "SPLIT_MACS", 0)
        _set_cores(monkeypatch, 2)
        alone = [forward_collect_codes(n, w, batch, lif) for n, w in zip(nets, weights)]
        barrier, real_map = threading.Barrier(2, timeout=30), snn.thread_map

        def run_tiles(fn, items, workers):
            barrier.wait()  # both passes have planned before either runs a tile
            return real_map(fn, items, workers)

        monkeypatch.setattr(snn, "thread_map", run_tiles)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the two passes' steps interleave finely
        try:
            together = blas.thread_map(
                lambda k: forward_collect_codes(nets[k], weights[k], batch, lif), [0, 1], 2)
        finally:
            sys.setswitchinterval(interval)
        assert alone[0]["cell1"].tobytes() != alone[1]["cell1"].tobytes()
        for got, want in zip(together, alone):
            _assert_same_codes(got, want)


class TestCodeBytes:
    """Spike codes pinned byte for byte, both code modes x both input codings.

    Two 5O cells at 32 stem channels on 32x32 images run a 12-sample batch
    as tiles of at most four samples.  At `v_threshold` 0.3 every stage
    fires.  The digests (sha256 over each stage's name and code bytes, in
    stage order) were recorded from the engine as it was before spike maps
    became bool masks, with float32 0/1 maps and the unfused LIF step.  A
    change that moves one must say why in CHANGES.md.
    """

    MACRO = MacroConfig(stem_channels=32, num_classes=10)
    LIF = LIFParams(v_threshold=0.3, timesteps=3)
    DIGESTS = {
        ("direct", "any"): "f8500d84a0e827c9",
        ("direct", "concat"): "208bc0fe4d3b3d01",
        ("rate", "any"): "02611f26d00c7939",
        ("rate", "concat"): "62d6598891198746",
    }

    @pytest.mark.parametrize("code_mode", ["any", "concat"])
    @pytest.mark.parametrize("input_coding", ["direct", "rate"])
    def test_codes_are_pinned(self, monkeypatch, input_coding, code_mode):
        net = build_network(ORACLE_CELLS[:2], self.MACRO)
        batch = np.random.default_rng(2).random((12, 3, 32, 32), dtype=np.float32)
        sizes, real = [], snn.conv2d_same
        monkeypatch.setattr(snn, "conv2d_same", lambda x, w: sizes.append(len(x)) or real(x, w))
        codes = forward_collect_codes(net, init_weights(net, 5), batch, self.LIF,
                                      code_mode=code_mode, input_coding=input_coding,
                                      coding_seed=4)
        assert max(sizes) <= snn.TILE_MACS // (32 * 32 * 9 * 32**2) == 4
        assert list(codes) == ["stem", "cell1", "down1", "cell2", "classifier"]
        assert all(bits.any() for bits in codes.values())
        digest = hashlib.sha256()
        for name, bits in codes.items():
            digest.update(name.encode())
            digest.update(bits.tobytes())
        assert digest.hexdigest()[:16] == self.DIGESTS[input_coding, code_mode]
