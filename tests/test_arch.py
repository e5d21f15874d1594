import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spikenas.arch import (
    CELL_EDGES,
    EDGE_NAMES,
    FIVE_OPS,
    OPSETS,
    CellArch,
    MacroConfig,
    Operation,
    OpSet,
    THREE_OPS,
    TWO_OPS,
    build_network,
    check_choice,
    decode_cell,
    encode_cell,
    get_opset,
    network_layers,
    search_space_size,
)
from spikenas.errors import SpikeNasError
from spikenas.snn import LIFParams, forward_collect_codes, init_weights


def _code_widths(net):
    """Columns of each stage's code matrix for one forward pass."""
    batch = np.random.default_rng(0).random((2, *net.macro.input_shape), dtype=np.float32)
    codes = forward_collect_codes(net, init_weights(net, 0), batch, LIFParams(timesteps=1))
    return {name: m.shape[1] for name, m in codes.items()}


class TestCheckChoice:
    def test_message_names_the_setting_and_value(self):
        check_choice("carryover", "best", ("best", "literal"))
        with pytest.raises(SpikeNasError, match="^unknown carryover 'worst'$"):
            check_choice("carryover", "worst", ("best", "literal"))

    def test_one_owner_of_the_rule(self):
        # SearchConfig and forward_collect_codes refuse a choice through check_choice
        src = Path(__file__).resolve().parent.parent / "src" / "spikenas"
        owners = [f.name for f in sorted(src.glob("*.py")) if 'f"unknown {' in f.read_text()]
        assert owners == ["arch.py"]


class TestOperation:
    def test_exactly_five_kinds_with_stable_codes(self):
        assert [op.value for op in Operation] == [0, 1, 2, 3, 4]
        assert Operation.ZEROIZE == 0
        assert Operation.SKIPCON == 1
        assert Operation.CONV1X1 == 2
        assert Operation.CONV3X3 == 3
        assert Operation.AVGPOOL3X3 == 4

    def test_label_round_trip(self):
        for op in Operation:
            assert Operation.from_label(op.label) is op
        assert Operation.from_label("Conv3x3") is Operation.CONV3X3

    def test_unknown_label(self):
        expected = "['avgpool3x3', 'conv1x1', 'conv3x3', 'skipcon', 'zeroize']"
        with pytest.raises(ValueError, match=f"'maxpool'; expected one of {re.escape(expected)}"):
            Operation.from_label("maxpool")

    def test_edge_table_follows_cell_fields(self):
        assert EDGE_NAMES == tuple(f.name for f in fields(CellArch))
        assert [(src, dst) for _, src, dst in CELL_EDGES] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestOpSet:
    def test_presets(self):
        assert THREE_OPS.ops == (Operation.SKIPCON, Operation.CONV3X3,
                                 Operation.AVGPOOL3X3)
        assert TWO_OPS.ops == (Operation.SKIPCON, Operation.CONV3X3)
        assert len(FIVE_OPS) == 5
        assert set(OPSETS) == {"5O", "3O", "2O"}

    def test_empty_and_duplicate_rejected(self):
        with pytest.raises(ValueError):
            OpSet("bad", ())
        with pytest.raises(ValueError):
            OpSet("bad", (Operation.SKIPCON, Operation.SKIPCON))

    def test_without_shrinks_and_readding_restores_size(self):
        for op in FIVE_OPS.ops:
            sub = FIVE_OPS.without(op)
            assert search_space_size(sub) == 4 ** 6
            restored = OpSet("restored", sub.ops + (op,))
            assert search_space_size(restored) == search_space_size(FIVE_OPS)

    def test_without_missing_op(self):
        with pytest.raises(ValueError):
            TWO_OPS.without(Operation.ZEROIZE)

    def test_get_opset(self):
        assert get_opset("3O") is THREE_OPS
        with pytest.raises(ValueError):
            get_opset("9O")


class TestEncodeDecode:
    @pytest.mark.parametrize("opset", [FIVE_OPS, THREE_OPS, TWO_OPS])
    def test_all_first_op_encodes_to_zero(self, opset):
        assert encode_cell(CellArch.uniform(opset.ops[0]), opset) == 0

    def test_all_last_op_five_set_is_max_index(self):
        cell = CellArch.uniform(FIVE_OPS.ops[4])
        assert encode_cell(cell, FIVE_OPS) == 5 ** 6 - 1 == 15624

    def test_little_endian_digit_order(self):
        # con01 is the lowest digit: 2 + 1*5 = 7
        cell = CellArch(
            con01=FIVE_OPS.ops[2], con02=FIVE_OPS.ops[1], con03=FIVE_OPS.ops[0],
            con12=FIVE_OPS.ops[0], con13=FIVE_OPS.ops[0], con23=FIVE_OPS.ops[0],
        )
        assert encode_cell(cell, FIVE_OPS) == 7

    def test_encode_rejects_foreign_op(self):
        cell = CellArch.uniform(Operation.CONV1X1)
        with pytest.raises(SpikeNasError, match="operation conv1x1 is not in operation set '2O'"):
            encode_cell(cell, TWO_OPS)

    def test_decode_zero_two_set_is_all_skip(self):
        assert decode_cell(0, TWO_OPS) == CellArch.uniform(Operation.SKIPCON)

    def test_decode_max_two_set_is_all_conv(self):
        assert decode_cell(63, TWO_OPS) == CellArch.uniform(Operation.CONV3X3)

    @pytest.mark.parametrize("index", [-1, 64, 1000, 1.5, 3.0, True])
    def test_decode_out_of_range(self, index):
        with pytest.raises(SpikeNasError, match=rf"candidate index {index} outside \[0, 64\)"):
            decode_cell(index, TWO_OPS)

    def test_decode_numpy_integer(self):
        assert decode_cell(np.int64(63), TWO_OPS) == decode_cell(63, TWO_OPS)

    @pytest.mark.parametrize("opset", [TWO_OPS, THREE_OPS])
    def test_round_trip_exhaustive(self, opset):
        seen = set()
        for index in range(search_space_size(opset)):
            cell = decode_cell(index, opset)
            assert encode_cell(cell, opset) == index
            seen.add(cell)
        assert len(seen) == search_space_size(opset)

    @given(st.integers(min_value=0, max_value=5 ** 6 - 1))
    def test_round_trip_sampled_five_set(self, index):
        assert encode_cell(decode_cell(index, FIVE_OPS), FIVE_OPS) == index


class TestSearchSpaceSize:
    def test_preset_sizes(self):
        assert search_space_size(FIVE_OPS) == 15625
        assert search_space_size(THREE_OPS) == 729
        assert search_space_size(TWO_OPS) == 64

    def test_four_op_size(self):
        assert search_space_size(FIVE_OPS.without(Operation.ZEROIZE)) == 4096


class TestBuildNetwork:
    def test_rejects_bad_cell_counts(self):
        cell = decode_cell(0, TWO_OPS)
        with pytest.raises(SpikeNasError, match="cell count must be 1..3, got 0"):
            build_network([], MacroConfig())
        with pytest.raises(SpikeNasError, match="cell count must be 1..3, got 4"):
            build_network([cell] * 4, MacroConfig())

    # MacroConfig checks its own sizes, so each bad one is built inside pytest.raises
    @pytest.mark.parametrize("sizes", [
        dict(stem_channels=0),
        dict(width_mult=0),
        dict(num_classes=0),
        dict(input_shape=(0, 32, 32)),
    ])
    def test_rejects_bad_widths(self, sizes):
        site = "input shape" if "input_shape" in sizes else "widths and class count"
        with pytest.raises(SpikeNasError, match=site + " must be positive"):
            MacroConfig(**sizes)

    @pytest.mark.parametrize("sizes, site", [
        (dict(stem_channels=2.5), "widths and class count"),
        (dict(width_mult=True), "widths and class count"),
        (dict(num_classes=10.0), "widths and class count"),
        (dict(input_shape=(3, 32.0, 32)), "input shape"),
    ])
    def test_rejects_non_integer_sizes(self, sizes, site):
        with pytest.raises(SpikeNasError, match=site + " must be positive"):
            MacroConfig(**sizes)

    def test_numpy_sizes_accepted(self):
        macro = MacroConfig(stem_channels=np.int64(4), input_shape=(3, np.int32(8), 8))
        assert build_network([decode_cell(5, TWO_OPS)], macro).macro is macro

    def test_rejects_undivisible_input(self):
        cell = decode_cell(0, TWO_OPS)
        with pytest.raises(SpikeNasError, match="18x18 not divisible by the 4x downsampling"):
            build_network([cell] * 3, MacroConfig(input_shape=(3, 18, 18)))

    def test_one_cell_has_no_downsample(self):
        macro = MacroConfig(stem_channels=16, num_classes=10)
        net = build_network([decode_cell(5, TWO_OPS)], macro)  # convs on con01, con03
        names = [l.name for l in network_layers(net)]
        assert names == ["stem.conv", "cell1.con01", "cell1.con03", "classifier.fc"]
        assert list(_code_widths(net)) == ["stem", "cell1", "classifier"]

    def test_two_identical_cells_differ_only_in_width(self):
        macro = MacroConfig(stem_channels=8)
        cell = decode_cell(33, TWO_OPS)  # convs on con01, con23
        net = build_network([cell, cell], macro)
        layers = {l.name: l for l in network_layers(net)}
        for edge, op in zip(EDGE_NAMES, cell.edges()):
            if op is Operation.CONV3X3:
                assert layers[f"cell1.{edge}"].weight_shape == (8, 8, 3, 3)
                assert layers[f"cell2.{edge}"].weight_shape == (16, 16, 3, 3)
            else:
                assert f"cell1.{edge}" not in layers and f"cell2.{edge}" not in layers

    def test_three_cell_width_doubling(self):
        macro = MacroConfig(stem_channels=16)
        net = build_network([decode_cell(63, TWO_OPS)] * 3, macro)
        shapes = {l.name: l.weight_shape for l in network_layers(net)}
        assert shapes["stem.conv"] == (16, 3, 3, 3)
        assert shapes["cell1.con01"] == (16, 16, 3, 3)
        assert shapes["down1.conv"] == (32, 16, 1, 1)
        assert shapes["cell2.con01"] == (32, 32, 3, 3)
        assert shapes["down2.conv"] == (64, 32, 1, 1)
        assert shapes["cell3.con01"] == (64, 64, 3, 3)
        assert shapes["classifier.fc"] == (10, 64)

    def test_layer_list_is_pure(self):
        macro = MacroConfig(stem_channels=8)
        cells = [decode_cell(17, THREE_OPS), decode_cell(400, THREE_OPS)]
        a = network_layers(build_network(cells, macro))
        b = network_layers(build_network(cells, macro))
        assert a == b

    def test_layers_follow_weight_draw_order(self):
        macro = MacroConfig(stem_channels=8, bias=False)
        net = build_network([decode_cell(63, TWO_OPS)] * 2, macro)
        layers = network_layers(net)
        assert [l.name for l in layers] == (
            ["stem.conv"] + [f"cell1.{e}" for e in EDGE_NAMES] + ["down1.conv"]
            + [f"cell2.{e}" for e in EDGE_NAMES] + ["classifier.fc"])
        assert [l.has_bias for l in layers] == [False] * 15

    def test_spiking_stage_follows_every_conv_block(self):
        macro = MacroConfig(stem_channels=8)
        net = build_network([decode_cell(63, TWO_OPS)] * 2, macro)
        assert list(_code_widths(net)) == ["stem", "cell1", "down1", "cell2", "classifier"]

    def test_spatial_sizes_halve_at_downsamples(self):
        macro = MacroConfig(stem_channels=8)
        net = build_network([decode_cell(0, TWO_OPS)] * 3, macro)
        assert _code_widths(net) == {
            "stem": 8 * 32 * 32, "cell1": 8 * 32 * 32,
            "down1": 16 * 16 * 16, "cell2": 16 * 16 * 16,
            "down2": 32 * 8 * 8, "cell3": 32 * 8 * 8,
            "classifier": macro.num_classes,
        }
