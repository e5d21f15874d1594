import pytest
from hypothesis import given, strategies as st

from oracles import walk_count_elements
from spikenas.arch import (
    KIND_AVGPOOL,
    KIND_CONV,
    KIND_FC,
    CellArch,
    FIVE_OPS,
    LayerSpec,
    MacroConfig,
    Operation,
    OPSETS,
    TWO_OPS,
    build_network,
    decode_cell,
    search_space_size,
)
from spikenas.memmodel import (
    MemoryBudget,
    count_network_params,
    footprint,
    memory_cost,
)
from spikenas.snn import init_weights

import numpy as np


def _layer(kind, in_ch, out_ch, kernel=(0, 0), has_bias=True):
    return LayerSpec("layer", kind, in_ch, out_ch, kernel, has_bias, (8, 8))


class TestCountLayerParams:
    def test_stem_like_conv(self):
        spec = _layer(KIND_CONV, 3, 16, (3, 3))
        assert spec.weight_shape == (16, 3, 3, 3)
        assert spec.num_params == 3 * 3 * 3 * 16 + 16 == 448

    def test_parameter_free_is_zero(self):
        spec = _layer(KIND_AVGPOOL, 4, 4, (3, 3), has_bias=False)
        assert spec.weight_shape is None
        assert spec.num_params == 0

    def test_pointwise_conv(self):
        spec = _layer(KIND_CONV, 64, 128, (1, 1))
        assert spec.num_params == 64 * 128 + 128 == 8320

    def test_fully_connected(self):
        spec = _layer(KIND_FC, 64, 10)
        assert spec.weight_shape == (10, 64)
        assert spec.num_params == 650

    def test_no_bias(self):
        spec = _layer(KIND_CONV, 3, 16, (3, 3), has_bias=False)
        assert spec.num_params == 432


class TestCountNetworkParams:
    def test_parameter_free_cells_leave_skeleton_only(self):
        macro = MacroConfig(stem_channels=16)
        for op in (Operation.SKIPCON, Operation.ZEROIZE, Operation.AVGPOOL3X3):
            net = build_network([CellArch.uniform(op)] * 2, macro)
            stem = 3 * 3 * 3 * 16 + 16
            down = 1 * 1 * 16 * 32 + 32
            fc = 32 * 10 + 10
            assert count_network_params(net) == stem + down + fc

    def test_single_edge_swap_adds_conv_cost(self):
        # swapping one skip edge for a 3x3 conv at width c adds 9c^2 + c
        macro = MacroConfig(stem_channels=8)
        base = build_network([CellArch.uniform(Operation.SKIPCON)], macro)
        edges = list(CellArch.uniform(Operation.SKIPCON).edges())
        edges[3] = Operation.CONV3X3
        swapped = build_network([CellArch.from_edges(tuple(edges))], macro)
        c = macro.stem_channels
        delta = count_network_params(swapped) - count_network_params(base)
        assert delta == 9 * c * c + c

    @pytest.mark.parametrize("opset_name", sorted(OPSETS))
    @pytest.mark.parametrize("num_cells", [1, 2, 3])
    def test_matches_element_walk_oracle(self, opset_name, num_cells):
        opset = OPSETS[opset_name]
        rng = np.random.default_rng([len(opset), num_cells])
        macro = MacroConfig(stem_channels=int(rng.choice([4, 8])), num_classes=7)
        for _ in range(3):
            cells = [decode_cell(int(rng.integers(search_space_size(opset))), opset)
                     for _ in range(num_cells)]
            net = build_network(cells, macro)
            weights = init_weights(net, seed=0)
            assert count_network_params(net) == walk_count_elements(weights)

    def test_no_bias_mode_matches_walk(self):
        macro = MacroConfig(stem_channels=8).without_bias()
        net = build_network([decode_cell(63, TWO_OPS)] * 2, macro)
        assert count_network_params(net) == walk_count_elements(init_weights(net, 3))

    def test_monotone_under_parameterizing_an_edge(self):
        # upgrading any parameter-free edge to a conv never lowers the count
        macro = MacroConfig(stem_channels=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            index = int(rng.integers(search_space_size(FIVE_OPS)))
            cell = decode_cell(index, FIVE_OPS)
            base = count_network_params(build_network([cell], macro))
            edges = list(cell.edges())
            slot = int(rng.integers(6))
            if edges[slot] in (Operation.CONV1X1, Operation.CONV3X3):
                continue
            edges[slot] = Operation.CONV3X3
            upgraded = build_network([CellArch.from_edges(tuple(edges))], macro)
            assert count_network_params(upgraded) > base


class TestMemoryBudget:
    def test_bounds(self):
        MemoryBudget(1, 1)
        MemoryBudget(10, 64)
        with pytest.raises(ValueError):
            MemoryBudget(0, 8)
        with pytest.raises(ValueError):
            MemoryBudget(10, 0)
        with pytest.raises(ValueError):
            MemoryBudget(10, 65)


class TestMemoryCost:
    def test_stem_example(self):
        fp = memory_cost(448, MemoryBudget(1, 8))
        assert fp.bits == 3584
        assert fp.bytes == 448

    def test_zero_params(self):
        assert memory_cost(0, MemoryBudget(1, 32)).bits == 0

    def test_constrained_preset_at_float_precision(self):
        assert memory_cost(1_200_000, MemoryBudget(1_200_000, 32)).bits == 38_400_000

    def test_byte_rounding(self):
        assert footprint(3, 3).bytes == 2  # 9 bits round up

    @given(st.integers(min_value=0, max_value=10**7),
           st.integers(min_value=1, max_value=32))
    def test_bits_scale_linearly(self, n, bits):
        assert footprint(n, bits).bits == n * bits
        assert footprint(2 * n, bits).bits == 2 * footprint(n, bits).bits
        assert footprint(n, 2 * bits).bits == 2 * footprint(n, bits).bits
