"""Cell and macro-architecture representation.

A cell is the fixed feed-forward DAG on four nodes (node 0 = cell input,
node 3 = cell output) whose six ordered node pairs each carry one
operation from the active operation set.  Candidates are numbered by
reading the six edge assignments as little-endian digits in base
``len(opset)``, so one cell spans ``len(opset) ** 6`` indices.

The macro skeleton is fixed: a 3x3 stem convolution, one to three cell
stages separated by downsampling blocks, and a global-average-pool +
fully-connected classifier.  Every convolution and every cell output is
followed by a spiking activation stage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import EdgeOpNotInSet, IndexOutOfRange, InvalidMacroConfig

NUM_CELL_EDGES = 6
EDGE_NAMES = ("con01", "con02", "con03", "con12", "con13", "con23")


class Operation(enum.IntEnum):
    """Edge operation vocabulary; enum values are the stable wire codes."""

    ZEROIZE = 0
    SKIPCON = 1
    CONV1X1 = 2
    CONV3X3 = 3
    AVGPOOL3X3 = 4

    @property
    def label(self) -> str:
        return _OP_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Operation":
        try:
            return _OPS_BY_LABEL[label.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown operation {label!r}; expected one of {sorted(_OPS_BY_LABEL)}"
            ) from None


_OP_LABELS = {
    Operation.ZEROIZE: "zeroize",
    Operation.SKIPCON: "skipcon",
    Operation.CONV1X1: "conv1x1",
    Operation.CONV3X3: "conv3x3",
    Operation.AVGPOOL3X3: "avgpool3x3",
}
_OPS_BY_LABEL = {label: op for op, label in _OP_LABELS.items()}

CONV_OPS = frozenset({Operation.CONV1X1, Operation.CONV3X3})


@dataclass(frozen=True)
class OpSet:
    """Ordered, duplicate-free list of admissible edge operations.

    The order is load-bearing: position in ``ops`` is the digit value
    used when encoding/decoding candidate indices.
    """

    name: str
    ops: tuple[Operation, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("operation set must not be empty")
        if len(set(self.ops)) != len(self.ops):
            raise ValueError(f"operation set {self.name!r} has duplicates")

    def __len__(self) -> int:
        return len(self.ops)

    def __contains__(self, op: Operation) -> bool:
        return op in self.ops

    def index_of(self, op: Operation) -> int:
        try:
            return self.ops.index(op)
        except ValueError:
            raise EdgeOpNotInSet(
                f"operation {op.label} is not in operation set {self.name!r}"
            ) from None

    def without(self, op: Operation) -> "OpSet":
        """Same set minus one operation (used by the ablation runner)."""
        if op not in self.ops:
            raise ValueError(f"{op.label} is not in operation set {self.name!r}")
        return OpSet(
            name=f"{self.name}-{op.label}",
            ops=tuple(o for o in self.ops if o is not op),
        )


FIVE_OPS = OpSet("5O", (
    Operation.ZEROIZE,
    Operation.SKIPCON,
    Operation.CONV1X1,
    Operation.CONV3X3,
    Operation.AVGPOOL3X3,
))
THREE_OPS = OpSet("3O", (Operation.SKIPCON, Operation.CONV3X3, Operation.AVGPOOL3X3))
TWO_OPS = OpSet("2O", (Operation.SKIPCON, Operation.CONV3X3))

OPSETS = {s.name: s for s in (FIVE_OPS, THREE_OPS, TWO_OPS)}


def get_opset(name: str) -> OpSet:
    try:
        return OPSETS[name]
    except KeyError:
        raise ValueError(
            f"unknown operation set {name!r}; expected one of {sorted(OPSETS)}"
        ) from None


@dataclass(frozen=True)
class CellArch:
    """One cell: an operation for each of the six ordered node pairs."""

    con01: Operation
    con02: Operation
    con03: Operation
    con12: Operation
    con13: Operation
    con23: Operation

    def edges(self) -> tuple[Operation, ...]:
        """Edge assignments in canonical (digit) order."""
        return (self.con01, self.con02, self.con03,
                self.con12, self.con13, self.con23)

    @classmethod
    def from_edges(cls, edges: tuple[Operation, ...]) -> "CellArch":
        if len(edges) != NUM_CELL_EDGES:
            raise ValueError(f"a cell has {NUM_CELL_EDGES} edges, got {len(edges)}")
        return cls(*edges)

    @classmethod
    def uniform(cls, op: Operation) -> "CellArch":
        return cls(*([op] * NUM_CELL_EDGES))


def search_space_size(ops: OpSet) -> int:
    """Number of distinct cell candidates for the given operation set."""
    return len(ops) ** NUM_CELL_EDGES


def encode_cell(cell: CellArch, ops: OpSet) -> int:
    """Candidate index of `cell`: little-endian digits in edge order."""
    index = 0
    base = len(ops)
    for place, op in enumerate(cell.edges()):
        index += ops.index_of(op) * base**place
    return index


def decode_cell(index: int, ops: OpSet) -> CellArch:
    """Inverse of :func:`encode_cell`."""
    size = search_space_size(ops)
    if not 0 <= index < size:
        raise IndexOutOfRange(
            f"candidate index {index} outside [0, {size}) for operation set {ops.name!r}"
        )
    base = len(ops)
    edges = []
    rem = index
    for _ in range(NUM_CELL_EDGES):
        edges.append(ops.ops[rem % base])
        rem //= base
    return CellArch.from_edges(tuple(edges))


@dataclass(frozen=True)
class MacroConfig:
    """Fixed skeleton parameters around the searched cells.

    Channel width doubles (by `width_mult`) at each downsampling stage;
    bias flags control which layer kinds carry bias parameters.
    """

    stem_channels: int = 64
    width_mult: int = 2
    num_classes: int = 10
    input_shape: tuple[int, int, int] = (3, 32, 32)
    stem_bias: bool = True
    cell_bias: bool = True
    down_bias: bool = True
    fc_bias: bool = True

    def without_bias(self) -> "MacroConfig":
        return replace(self, stem_bias=False, cell_bias=False,
                       down_bias=False, fc_bias=False)


@dataclass(frozen=True)
class NetworkArch:
    """A macro skeleton populated with concrete cells."""

    cells: tuple[CellArch, ...]
    macro: MacroConfig

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def stage_channels(self) -> tuple[int, ...]:
        """Channel width of each cell stage (stem width, then doubled)."""
        m = self.macro
        return tuple(m.stem_channels * m.width_mult**i for i in range(len(self.cells)))


def build_network(cells: list[CellArch] | tuple[CellArch, ...],
                  macro: MacroConfig) -> NetworkArch:
    """Validate macro parameters and assemble a network from cells."""
    n = len(cells)
    if not 1 <= n <= 3:
        raise InvalidMacroConfig(f"cell count must be 1..3, got {n}")
    if macro.stem_channels < 1 or macro.width_mult < 1 or macro.num_classes < 1:
        raise InvalidMacroConfig(
            f"widths and class count must be positive: stem={macro.stem_channels}, "
            f"mult={macro.width_mult}, classes={macro.num_classes}"
        )
    c, h, w = macro.input_shape
    if c < 1 or h < 1 or w < 1:
        raise InvalidMacroConfig(f"input shape must be positive, got {macro.input_shape}")
    down = 2 ** (n - 1)
    if h % down or w % down:
        raise InvalidMacroConfig(
            f"input {h}x{w} not divisible by the {down}x downsampling of {n} stages"
        )
    return NetworkArch(cells=tuple(cells), macro=macro)


# Layer kinds appearing in the flattened layer list.
KIND_CONV = "conv"
KIND_FC = "fc"
KIND_AVGPOOL = "avgpool"
KIND_DOWNPOOL = "downpool"
KIND_SKIP = "skip"
KIND_ZEROIZE = "zeroize"
KIND_GAP = "gap"
KIND_LIF = "lif"

_EDGE_KINDS = {
    Operation.ZEROIZE: KIND_ZEROIZE,
    Operation.SKIPCON: KIND_SKIP,
    Operation.CONV1X1: KIND_CONV,
    Operation.CONV3X3: KIND_CONV,
    Operation.AVGPOOL3X3: KIND_AVGPOOL,
}
_EDGE_KERNELS = {
    Operation.CONV1X1: (1, 1),
    Operation.CONV3X3: (3, 3),
    Operation.AVGPOOL3X3: (3, 3),
}


@dataclass(frozen=True)
class LayerSpec:
    """One entry of the flattened layer list.

    `kernel` is (0, 0) for kernel-free layers; `out_size` is the spatial
    size of the layer's output feature map ((1, 1) after pooling to the
    classifier).
    """

    name: str
    kind: str
    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    has_bias: bool
    out_size: tuple[int, int]

    @property
    def neurons(self) -> int:
        """Feature count of the layer output (used for spike codes)."""
        return self.out_channels * self.out_size[0] * self.out_size[1]

    @property
    def weight_shape(self) -> tuple[int, ...] | None:
        """Shape of the layer's weight tensor; None for parameter-free layers.

        Convolutions hold (out, in, kh, kw) and the classifier (out, in).
        """
        if self.kind == KIND_CONV:
            return (self.out_channels, self.in_channels, *self.kernel)
        if self.kind == KIND_FC:
            return (self.out_channels, self.in_channels)
        return None

    @property
    def num_params(self) -> int:
        """Weights plus biases held by the layer."""
        shape = self.weight_shape
        if shape is None:
            return 0
        return math.prod(shape) + (self.out_channels if self.has_bias else 0)


def network_layers(net: NetworkArch) -> tuple[LayerSpec, ...]:
    """Deterministic flattened layer list for a network.

    Order: stem conv -> [cell_i -> downsample]_{i<C} -> cell_C -> global
    average pool -> classifier, with a spiking stage after the stem,
    after each cell's output summation, after each downsample conv, and
    after the classifier pre-activation.
    """
    m = net.macro
    in_ch, h, w = m.input_shape
    layers: list[LayerSpec] = []

    ch = m.stem_channels
    layers.append(LayerSpec("stem.conv", KIND_CONV, in_ch, ch, (3, 3),
                            m.stem_bias, (h, w)))
    layers.append(LayerSpec("stem.lif", KIND_LIF, ch, ch, (0, 0), False, (h, w)))

    for i, cell in enumerate(net.cells, start=1):
        for edge_name, op in zip(EDGE_NAMES, cell.edges()):
            kind = _EDGE_KINDS[op]
            kernel = _EDGE_KERNELS.get(op, (0, 0))
            bias = m.cell_bias if kind == KIND_CONV else False
            layers.append(LayerSpec(f"cell{i}.{edge_name}", kind, ch, ch,
                                    kernel, bias, (h, w)))
        layers.append(LayerSpec(f"cell{i}.lif", KIND_LIF, ch, ch, (0, 0),
                                False, (h, w)))
        if i < len(net.cells):
            h, w = h // 2, w // 2
            layers.append(LayerSpec(f"down{i}.pool", KIND_DOWNPOOL, ch, ch,
                                    (2, 2), False, (h, w)))
            next_ch = ch * m.width_mult
            layers.append(LayerSpec(f"down{i}.conv", KIND_CONV, ch, next_ch,
                                    (1, 1), m.down_bias, (h, w)))
            layers.append(LayerSpec(f"down{i}.lif", KIND_LIF, next_ch, next_ch,
                                    (0, 0), False, (h, w)))
            ch = next_ch

    layers.append(LayerSpec("classifier.gap", KIND_GAP, ch, ch, (0, 0),
                            False, (1, 1)))
    layers.append(LayerSpec("classifier.fc", KIND_FC, ch, m.num_classes, (0, 0),
                            m.fc_bias, (1, 1)))
    layers.append(LayerSpec("classifier.lif", KIND_LIF, m.num_classes,
                            m.num_classes, (0, 0), False, (1, 1)))
    return tuple(layers)
