"""Cell and macro-architecture representation.

A cell is the fixed feed-forward DAG on four nodes (node 0 = cell input,
node 3 = cell output) whose six ordered node pairs each carry one
operation from the active operation set.  Candidates are numbered by
reading the six edge assignments as little-endian digits in base
``len(opset)``, so one cell spans ``len(opset) ** 6`` indices.

The macro skeleton is fixed: a 3x3 stem convolution, one to three cell
stages separated by downsampling blocks (2x2 pool, then a 1x1 conv that
widens the map), and a global-average-pool + fully-connected classifier.
`network_layers` lists only the layers that hold parameters; pools,
skips, zeroized edges and the spiking stages hold none and live only in
`snn`'s forward pass.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

from .errors import SpikeNasError

# Cell edges as (name, source node, target node) in digit order.  A target
# node sums its inputs in this order: n2 = e02 + e12, out = e03 + e13 + e23.
CELL_EDGES = tuple((f"con{src}{dst}", src, dst)
                   for src, dst in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
EDGE_NAMES = tuple(name for name, _, _ in CELL_EDGES)
NUM_CELL_EDGES = len(CELL_EDGES)


def is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Operation(enum.IntEnum):
    """Edge operation vocabulary; enum values are the stable wire codes."""

    ZEROIZE = 0
    SKIPCON = 1
    CONV1X1 = 2
    CONV3X3 = 3
    AVGPOOL3X3 = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Operation":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown operation {label!r}; "
                f"expected one of {sorted(op.label for op in cls)}"
            ) from None


# Kernel size of each convolution edge operation.
_EDGE_KERNELS = {Operation.CONV1X1: (1, 1), Operation.CONV3X3: (3, 3)}
CONV_OPS = frozenset(_EDGE_KERNELS)


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

    def index_of(self, op: Operation) -> int:
        try:
            return self.ops.index(op)
        except ValueError:
            raise SpikeNasError(
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
    if not (is_int(index) and 0 <= index < size):
        raise SpikeNasError(
            f"candidate index {index} outside [0, {size}) for operation set {ops.name}"
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


def build_network(cells: list[CellArch] | tuple[CellArch, ...],
                  macro: MacroConfig) -> NetworkArch:
    """Validate macro parameters and assemble a network from cells."""
    n = len(cells)
    if not 1 <= n <= 3:
        raise SpikeNasError(f"cell count must be 1..3, got {n}")
    if not all(is_int(v) and v >= 1
               for v in (macro.stem_channels, macro.width_mult, macro.num_classes)):
        raise SpikeNasError(
            f"widths and class count must be positive: stem={macro.stem_channels}, "
            f"mult={macro.width_mult}, classes={macro.num_classes}"
        )
    c, h, w = macro.input_shape
    if not all(is_int(v) and v >= 1 for v in (c, h, w)):
        raise SpikeNasError(f"input shape must be positive, got {macro.input_shape}")
    down = 2 ** (n - 1)
    if h % down or w % down:
        raise SpikeNasError(
            f"input {h}x{w} not divisible by the {down}x downsampling of {n} stages"
        )
    return NetworkArch(cells=tuple(cells), macro=macro)


@dataclass(frozen=True)
class LayerSpec:
    """One layer that holds parameters.

    Convolutions hold (out, in, kh, kw) weights and the classifier
    (out, in); a bias adds one parameter per output channel.
    """

    name: str
    weight_shape: tuple[int, ...]
    has_bias: bool

    @property
    def num_params(self) -> int:
        """Weights plus biases held by the layer."""
        shape = self.weight_shape
        return math.prod(shape) + (shape[0] if self.has_bias else 0)


def network_layers(net: NetworkArch) -> tuple[LayerSpec, ...]:
    """The network's parameterized layers, in weight-draw order.

    Order: stem conv -> [cell_i conv edges in edge order -> downsample
    1x1 conv]_{i<C} -> cell_C conv edges -> classifier.  Each downsample
    conv widens the map by `width_mult`.
    """
    m = net.macro
    ch = m.stem_channels
    layers = [LayerSpec("stem.conv", (ch, m.input_shape[0], 3, 3), m.stem_bias)]
    for i, cell in enumerate(net.cells, start=1):
        for edge_name, op in zip(EDGE_NAMES, cell.edges()):
            if op in CONV_OPS:
                layers.append(LayerSpec(f"cell{i}.{edge_name}",
                                        (ch, ch, *_EDGE_KERNELS[op]), m.cell_bias))
        if i < len(net.cells):
            layers.append(LayerSpec(f"down{i}.conv", (ch * m.width_mult, ch, 1, 1),
                                    m.down_bias))
            ch *= m.width_mult
    layers.append(LayerSpec("classifier.fc", (m.num_classes, ch), m.fc_bias))
    return tuple(layers)
