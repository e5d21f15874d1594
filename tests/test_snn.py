import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    naive_forward_codes,
    reshape_mean_avgpool2x2,
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
from spikenas import snn
from spikenas.errors import SpikeNasError
from spikenas.snn import (
    BinaryCodes,
    LIFParams,
    avgpool2x2_down,
    avgpool3x3_same,
    conv2d_same,
    forward_collect_codes,
    init_weights,
    lif_step,
)


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
                                       (3, 2, 1, 5), (1, 1, 1, 1)])
    def test_avgpool3x3_box_sum_equals_windowed_mean(self, shape):
        rng = np.random.default_rng(shape)
        for x in (rng.random(shape, dtype=np.float32),
                  rng.normal(0.0, 10.0, size=shape).astype(np.float32)):
            got = avgpool3x3_same(x)
            want = windowed_mean_avgpool3x3(x)
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(16, 64, 32, 32), (2, 3, 6, 10), (3, 1, 2, 4)])
    def test_downsample_pool_equals_reshaped_mean(self, shape):
        rng = np.random.default_rng(shape)
        for x in (rng.random(shape, dtype=np.float32),
                  rng.normal(0.0, 10.0, size=shape).astype(np.float32)):
            got = avgpool2x2_down(x)
            want = reshape_mean_avgpool2x2(x)
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)

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
        for mat in codes.matrices:
            assert not mat.any()

    def test_dominant_input_fires_whole_stem(self, tiny_macro):
        net = self._net(tiny_macro)
        weights = init_weights(net, 0)
        weights["stem.conv"] = np.full_like(weights["stem.conv"], 10.0)
        p = LIFParams(v_threshold=1e-6, timesteps=2)
        batch = np.ones((2, 3, 32, 32), dtype=np.float32)
        codes = forward_collect_codes(net, weights, batch, p)
        stem = codes.matrices[codes.layer_names.index("stem")]
        assert stem.all()

    def test_duplicated_samples_get_identical_rows(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        one = self._batch(1)
        batch = np.concatenate([one, one, one])
        codes = forward_collect_codes(net, init_weights(net, 1), batch, tiny_lif)
        for mat in codes.matrices:
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
        for m1, m2, m3 in zip(a.matrices, b.matrices, c.matrices):
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(m1[perm], m3)

    def test_zeroize_only_cell_emits_no_spikes(self, tiny_macro, tiny_lif):
        net = build_network([CellArch.uniform(Operation.ZEROIZE)] * 2, tiny_macro)
        codes = forward_collect_codes(net, init_weights(net, 0),
                                      self._batch(2), tiny_lif)
        by_name = dict(zip(codes.layer_names, codes.matrices))
        assert not by_name["cell1"].any()
        assert not by_name["cell2"].any()

    def test_layer_names_and_neuron_counts(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro, index=100, opset=THREE_OPS, cells=2)
        codes = forward_collect_codes(net, init_weights(net, 0),
                                      self._batch(2), tiny_lif)
        assert codes.layer_names == ("stem", "cell1", "down1", "cell2", "classifier")
        # stem width 4 at 32x32, doubled and halved at the downsample; 4 classes
        neurons = (4 * 32 * 32, 4 * 32 * 32, 8 * 16 * 16, 8 * 16 * 16, 4)
        for n, mat in zip(neurons, codes.matrices):
            assert mat.shape == (2, n)
            assert mat.dtype == np.uint8
            assert set(np.unique(mat)) <= {0, 1}

    def test_concat_mode_multiplies_columns_by_timesteps(self, tiny_macro):
        net = self._net(tiny_macro)
        p = LIFParams(timesteps=3)
        weights = init_weights(net, 0)
        batch = self._batch(2)
        any_codes = forward_collect_codes(net, weights, batch, p, code_mode="any")
        cat_codes = forward_collect_codes(net, weights, batch, p, code_mode="concat")
        for a, c in zip(any_codes.matrices, cat_codes.matrices):
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
        same = all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
        assert same
        assert any(not np.array_equal(x, y) for x, y in zip(a.matrices, c.matrices))

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
        with pytest.raises(ValueError):
            forward_collect_codes(net, weights, self._batch(2), tiny_lif,
                                  code_mode="final")
        with pytest.raises(ValueError):
            forward_collect_codes(net, weights, self._batch(2), tiny_lif,
                                  input_coding="ttfs")


class TestBinaryCodes:
    def test_sample_count_consistency_enforced(self):
        with pytest.raises(ValueError):
            BinaryCodes(("a", "b"), (np.zeros((2, 3), np.uint8),
                                     np.zeros((3, 3), np.uint8)))
        with pytest.raises(ValueError):
            BinaryCodes((), ())


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
        assert got.layer_names == names
        for name, g, w in zip(names, got.matrices, want):
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
        for name, g, cat in zip(names, got.matrices, steps):
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
        for name, g, w in zip(names, got.matrices, want):
            np.testing.assert_array_equal(g, w, err_msg=name)
        assert not got.matrices[names.index(fires)].any()

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
                                               self.LIF).matrices)
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


EDGES = ("con01", "con02", "con03", "con12", "con13", "con23")


class TestCellPath:
    """_cell_preactivation against running all six edges one by one."""

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

    def _check_all(self, opset, monkeypatch):
        rng = np.random.default_rng(len(opset))
        bank = self._weights(rng)
        x = (rng.random((3, self.C, 5, 7)) < 0.5).astype(np.float32)
        calls = self._count_convs(monkeypatch)
        dead = 0
        for index in range(search_space_size(opset)):
            cell = decode_cell(index, opset)
            weights = {f"cell1.{e}": bank[op, e]
                       for e, op in zip(EDGES, cell.edges()) if op in CONV_OPS}
            want = straight_cell_preactivation(cell, x, weights, "cell1")
            calls.clear()
            got = snn._cell_preactivation(cell, x, weights, "cell1")
            if not want.any():
                dead += 1
                assert got is None, f"dead cell {index} gave a map"
                assert not calls, f"dead cell {index} ran {len(calls)} convs"
                continue
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"cell {index}")
        return dead

    def test_three_op_cells_equal(self, monkeypatch):
        self._check_all(THREE_OPS, monkeypatch)

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
            assert snn._cell_preactivation(cell, x, weights, "cell1") is None

    def test_fan_out_convs_run_as_one_gemm(self, monkeypatch):
        bank = self._weights(np.random.default_rng(0))
        weights = {f"cell1.{e}": bank[O.CONV3X3, e] for e in EDGES}
        shapes = self._count_convs(monkeypatch)
        snn._cell_preactivation(CellArch.uniform(O.CONV3X3),
                                np.ones((2, self.C, 4, 4), np.float32), weights, "cell1")
        assert [s[0] for s in shapes] == [3 * self.C, 2 * self.C, self.C]
