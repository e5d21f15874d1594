import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_forward_codes

from spikenas.arch import (
    CellArch,
    FIVE_OPS,
    MacroConfig,
    Operation,
    THREE_OPS,
    TWO_OPS,
    build_network,
    decode_cell,
    network_layers,
)
from spikenas.errors import MissingWeights, ShapeMismatch
from spikenas.snn import (
    BinaryCodes,
    LIFParams,
    apply_edge_op,
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
        with pytest.raises(ValueError):
            LIFParams(timesteps=0)


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
        with pytest.raises(ShapeMismatch):
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
        out = conv2d_same(x, w, None)
        np.testing.assert_array_equal(out, x)

    def test_conv_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float64)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float64)
        b = rng.normal(size=4)
        out = conv2d_same(x, w, b)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in (0, 1):
            for o in range(4):
                for i in range(5):
                    for j in range(5):
                        want = (xp[n, :, i:i + 3, j:j + 3] * w[o]).sum() + b[o]
                        assert abs(out[n, o, i, j] - want) < 1e-9

    def test_conv_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            conv2d_same(np.zeros((1, 2, 4, 4)), np.zeros((3, 5, 3, 3)), None)
        with pytest.raises(ShapeMismatch):
            conv2d_same(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 3)), None)

    def test_avgpool3x3_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.random((2, 2, 6, 6))
        np.testing.assert_allclose(avgpool3x3_same(x), _naive_avgpool3x3(x),
                                   rtol=0, atol=1e-12)

    def test_downsample_pool_means(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = avgpool2x2_down(x)
        np.testing.assert_array_equal(
            out[0, 0], np.array([[2.5, 4.5], [10.5, 12.5]])
        )
        with pytest.raises(ShapeMismatch):
            avgpool2x2_down(np.zeros((1, 1, 5, 4)))


class TestApplyEdgeOp:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.x = (rng.random((2, 3, 8, 8)) < 0.5).astype(np.float32)

    def test_zeroize(self):
        out = apply_edge_op(Operation.ZEROIZE, self.x)
        assert out.shape == self.x.shape
        assert out.dtype == self.x.dtype
        assert not out.any()

    def test_skip_is_identity(self):
        out = apply_edge_op(Operation.SKIPCON, self.x)
        np.testing.assert_array_equal(out, self.x)

    def test_conv_requires_weights(self):
        with pytest.raises(MissingWeights):
            apply_edge_op(Operation.CONV3X3, self.x, None)

    def test_conv_applies_weights(self):
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = apply_edge_op(Operation.CONV3X3, self.x, (w, None))
        np.testing.assert_allclose(out, self.x, atol=1e-6)

    def test_avgpool_preserves_shape(self):
        out = apply_edge_op(Operation.AVGPOOL3X3, self.x)
        assert out.shape == self.x.shape


class TestInitWeights:
    def test_deterministic_given_seed(self, tiny_macro):
        net = build_network([decode_cell(40, TWO_OPS)], tiny_macro)
        a = init_weights(net, 7)
        b = init_weights(net, 7)
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name][0], b[name][0])

    def test_different_seeds_differ(self, tiny_macro):
        net = build_network([decode_cell(40, TWO_OPS)], tiny_macro)
        a = init_weights(net, 7)
        b = init_weights(net, 8)
        assert any(not np.array_equal(a[n][0], b[n][0]) for n in a)

    def test_biases_start_at_zero(self, tiny_macro):
        net = build_network([decode_cell(63, TWO_OPS)], tiny_macro)
        for w, b in init_weights(net, 0).values():
            if b is not None:
                assert not b.any()

    def test_variance_tracks_fan_in(self):
        # conv at 64 channels: 9*64*64 = 36864 elements, comfortably large
        macro = MacroConfig(stem_channels=64)
        net = build_network([CellArch.uniform(Operation.CONV3X3)], macro)
        weights = init_weights(net, 1)
        w, _ = weights["cell1.con01"]
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
        w, b = weights["stem.conv"]
        weights["stem.conv"] = (np.full_like(w, 10.0), b)
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
        specs = {l.name: l for l in network_layers(net)}
        for name, mat in zip(codes.layer_names, codes.matrices):
            assert mat.shape == (2, specs[f"{name}.lif"].neurons)
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
        with pytest.raises(ShapeMismatch):
            forward_collect_codes(net, init_weights(net, 0),
                                  np.zeros((2, 3, 16, 16), dtype=np.float32),
                                  tiny_lif)

    def test_missing_weights_detected(self, tiny_macro, tiny_lif):
        net = self._net(tiny_macro)
        weights = init_weights(net, 0)
        weights.pop("classifier.fc")
        with pytest.raises(MissingWeights):
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
