"""Discrete-time spiking forward engine.

Untrained networks run for a few timesteps on a mini-batch, and each
spiking stage records which neurons fired: the per-layer binary codes
the scorer reads.  A stage keeps its membrane potential and one bool mask
per step, the spike map the next layer reads as numbers (bool `+` is a
logical OR, and a bool mean is float64); codes are built from the masks
after the last step.  The neuron integrates its input into a potential
that decays toward a reset value and fires (then resets) when it crosses
a threshold:

    v <- v + (-(v - v_reset) + x) / tau

Direct coding (the default) presents the analog image at every step, so
the stem convolution runs once; rate coding draws every step's spike map
in one call and runs the stem per step.  Convolutions are stride-1
same-padding im2col GEMMs, one per sample, with no bias: an untrained
network's biases are zero, so a weight set holds one weight array per
layer (biases count only toward the memory model's `n_param`).  Every map
is a C-contiguous (S, C, H, W) array of its stage's shape.  The 3x3
average pool is a box sum over the flattened zero-padded map: three
slices one cell apart summed into row sums, then three row sums one
padded row apart, then a division by 9 read through a view of the
unpadded cells; the 2x2 downsampling pool adds strided slices the same
way.  That is the order numpy's windowed mean adds in, so both are
bit-identical to it.

A cell runs only its live edges.  An edge is dead when its output is
always zero (zeroize, or any op reading an always-zero node) or no live
edge reads its target node.  Conv edges of one kind that read the same
node (a fan-out) run as one GEMM over their stacked filters, and each
edge reads its own output channels: each column sums the same products in
the same order as a separate convolution, and node values are summed in
edge order, so codes equal those of running all six edges one by one.  A
pass plans each cell once, before any tile runs (`_cell_plan`: the live
edges, each node's last reader and each fan-out's stacked filters); the
plans and one all-False view per stage shape are then only read, by every
tile and step of that pass.

A stage that fires no spike at a step is silent, and the next stage
then gets an all-zero input: the cell does not run, and the downsample
(2x2 pool, 1x1 conv) and the classifier pass zeros on.  A zero input
leaves a spiking stage at reset where it is, runs no kernel and stores
nothing (its mask is the plan's all-False view); a potential off reset
decays through `lif_step` as usual, so spike codes stay exactly the same.

Every kernel and the silent test work per sample, so a batch can be
split into contiguous tiles that run in turn or on threads through
`blas.thread_map`, each on one BLAS thread: each stage's codes are the
tiles' codes in sample order, the same bits as one run over the whole
batch.  The pass sizes its tiles from one sample's cell-1 conv3x3
multiply-adds: `TILE_MACS` keeps a tile's working set near the size of a
core's cache, and a batch whose conv3x3 work reaches `SPLIT_MACS` runs on
up to `blas.free_cores()` threads, in at least as many tiles: every usable
core, or one on a pooled search worker.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import arch
from .arch import NetworkArch, Operation
from .blas import free_cores, thread_map
from .errors import SpikeNasError

WeightSet = dict[str, np.ndarray]
# Stage name -> (samples x neurons) uint8 firing codes, in stage order.
BinaryCodes = dict[str, np.ndarray]

# Samples per tile: as many as keep a tile's cell-1 conv3x3 (H*W*9*C**2 multiply-adds
# per sample) within this, so one at 64 channels, 4 at 32 and 16 at 16.  In jobs=1 5O
# searches at batch 16 on two threads (2-vCPU Xeon, 2 MiB L2 per core), a candidate took
# 124, 72, 51 and 40 ms at 64, 32, 16 and 8 channels with one-sample tiles, and 120, 59,
# 32 and 15 ms with this.
TILE_MACS = 9 * 2**22
# A batch whose cell-1 conv3x3 (S*H*W*9*C**2 multiply-adds) is at or above this runs on
# `blas.free_cores()` threads, else on one: at batch 16, two threads ran 0.82x as fast at 4
# channels, even at 6 and 1.26x at 8 (BENCH_19.json).
SPLIT_MACS = 2**23

CODE_MODES = ("any", "concat")
INPUT_CODINGS = ("direct", "rate")


@dataclass(frozen=True)
class LIFParams:
    """Spiking-neuron constants and simulation horizon."""

    tau_leak: float = 2.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    timesteps: int = 5

    def __post_init__(self) -> None:
        for name in ("tau_leak", "v_threshold", "v_reset"):
            if not math.isfinite(getattr(self, name)):
                raise SpikeNasError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau_leak < 1.0:
            raise SpikeNasError(f"tau_leak must be >= 1, got {self.tau_leak}")
        if self.v_threshold <= self.v_reset:
            raise SpikeNasError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset})"
            )
        if not arch.is_int(self.timesteps) or self.timesteps < 1:
            raise SpikeNasError(f"timesteps must be >= 1, got {self.timesteps}")


def lif_step(v_prev: np.ndarray, x: np.ndarray, p: LIFParams):
    """One membrane update into a new buffer; returns (next potential, bool spike mask)."""
    v_prev = np.asarray(v_prev, dtype=np.result_type(v_prev, np.float32))
    x = np.asarray(x, dtype=v_prev.dtype)
    if v_prev.shape != x.shape:
        raise SpikeNasError(f"potential {v_prev.shape} vs input {x.shape}")
    v = np.subtract(v_prev, p.v_reset, out=np.empty_like(v_prev))  # an array even at 0-d
    np.subtract(x, v, out=v)  # the same bits as -v + x
    v /= p.tau_leak
    v += v_prev
    fired = v >= p.v_threshold
    np.copyto(v, p.v_reset, where=fired)
    return v, fired


def _pad_hw(x: np.ndarray, ph: int, pw: int, dtype) -> np.ndarray:
    """`x` as `dtype`, with `ph` zero rows and `pw` zero columns on each side."""
    s, c, h, w = x.shape
    out = np.zeros((s, c, h + 2 * ph, w + 2 * pw), dtype=dtype)
    out[:, :, ph:ph + h, pw:pw + w] = x
    return out


def conv2d_same(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stride-1 zero-padded convolution keeping the spatial size.

    Each sample's im2col operand is copied channel-major, (C*kh*kw, H*W),
    and one stacked matmul runs W (oc, C*kh*kw) @ operand per sample into a
    C-contiguous (S, oc, H, W) output of dtype `np.result_type(x, weights)`.
    It owes a row-major operand equal spike codes and scores; equal float
    bits are pinned only at the perfbench shapes and tile sizes.
    """
    if weights.ndim != 4:
        raise SpikeNasError(f"conv weights must be 4-D, got {weights.shape}")
    if x.ndim != 4 or x.shape[1] != weights.shape[1]:
        raise SpikeNasError(f"input {x.shape} incompatible with weights {weights.shape}")
    out_ch, _, kh, kw = weights.shape
    ph, pw = kh // 2, kw // 2
    s, c, h, w = x.shape
    dtype = np.result_type(x, weights)  # a bool map is cast by the pad, or a 1x1's copy
    if ph or pw:
        x = _pad_hw(x, ph, pw, dtype)
    cols = as_strided(x, (s, c, kh, kw, h, w), x.strides + x.strides[2:], writeable=False)
    cols = cols.astype(dtype, order="C", copy=False)
    del x  # free the padded copy before the GEMM output is allocated
    return (weights.reshape(out_ch, -1) @ cols.reshape(s, -1, h * w)).reshape(s, out_ch, h, w)


def avgpool3x3_same(x: np.ndarray) -> np.ndarray:
    """3x3 window mean with zero padding (pad cells count toward the mean).

    Row sums of three shifted flat slices of the padded map, then sums of
    three row sums a padded row apart, then one division read through a
    strided view of the valid cells: keep this order, it matches numpy's
    windowed mean bit for bit on float maps at least 2 wide.
    """
    xp = _pad_hw(x, 1, 1, np.uint8 if x.dtype == bool else x.dtype)  # spikes sum as uint8
    wp, strides, xp = xp.shape[3], xp.strides, xp.reshape(-1)
    rows = xp[:-2] + xp[1:-1]  # sums that wrap across a row end are never read
    rows += xp[2:]
    del xp
    out = rows[:-2 * wp] + rows[wp:-wp]
    out += rows[2 * wp:]
    del rows
    sums = as_strided(out, x.shape, strides, writeable=False)  # the unpadded cells
    return np.divide(sums, 9, dtype=np.result_type(out, np.float32))  # a uint8 count: float32


def avgpool2x2_down(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean, halving the spatial size.

    (top-left + top-right) + (bottom-left + bottom-right), then one
    division: numpy's windowed-mean order on maps at least 4 wide.
    """
    s, c, h, w = x.shape
    if h % 2 or w % 2:
        raise SpikeNasError(f"cannot halve odd spatial size {h}x{w}")
    x = x.view(np.uint8) if x.dtype == bool else x
    out = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    out += x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
    dtype = np.result_type(out, np.float32)
    return np.divide(out, 4, out=out if out.dtype == dtype else None, dtype=dtype)


def init_weights(net: NetworkArch, seed: int) -> WeightSet:
    """Seeded weights for every parameterized layer, and no biases.

    Weights are zero-mean normal with std sqrt(2 / fan_in).  An untrained
    network's biases are zero, so none are drawn: they count only toward
    `n_param`.  The draw order follows the flattened layer list, so a
    given (net, seed) pair always produces bit-identical tensors.
    """
    rng = np.random.default_rng(seed)
    out: WeightSet = {}
    for layer in arch.network_layers(net):
        shape = layer.weight_shape
        fan_in = math.prod(shape[1:])
        out[layer.name] = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                     size=shape).astype(np.float32)
    return out


@dataclass
class _LifStage:
    """Stateful spiking stage: persistent potential + per-step fired masks."""

    params: LIFParams
    potential: np.ndarray | None = None  # None while every neuron is at reset
    masks: list[np.ndarray] = field(default_factory=list)  # bool, one per step

    def step(self, pre: np.ndarray | None, zero: np.ndarray | None = None):
        """One step on `pre` (None: all zero, `zero` its silent mask); returns (mask, silent)."""
        if pre is None:
            if self.potential is None:  # stays at reset, fires nothing, stores no memory
                self.masks.append(zero)
                return zero, True
            pre = np.broadcast_to(np.float32(0), zero.shape)
        if self.potential is None:
            self.potential = np.full(pre.shape, self.params.v_reset, np.float32)
        self.potential, mask = lif_step(self.potential, pre, self.params)
        self.masks.append(mask)
        return mask, not mask.any()

    def codes(self, code_mode: str) -> np.ndarray:
        """(samples x neurons) uint8 bits: OR over steps, or the steps in order."""
        if code_mode == "concat":
            bits = np.stack(self.masks, axis=1)
        else:  # OR the stored masks; zero-stride ones are steps silent at reset
            bits = np.zeros(self.masks[0].shape, bool)
            for mask in self.masks:
                if any(mask.strides):
                    bits |= mask
        return bits.reshape(len(bits), -1).view(np.uint8)


def _check_weights(net: NetworkArch, weights: WeightSet) -> None:
    for layer in arch.network_layers(net):
        if layer.name not in weights:
            raise SpikeNasError(f"no weights for layer {layer.name!r}")
        got = getattr(weights[layer.name], "shape", None)
        if got != layer.weight_shape:
            raise SpikeNasError(f"layer {layer.name!r} takes weights of shape "
                                f"{layer.weight_shape}, got {got}")


def _cell_plan(cell, weights: WeightSet, prefix: str) -> list[tuple]:
    """The cell's live edges in `arch.CELL_EDGES` order, as read-only steps.

    An edge is dead if its output is always zero (zeroize, or any op
    reading an always-zero node) or nothing live reads its target node.
    A step is (name, src, dst, op, fan_out, last): `last` marks the last
    reader of `src`, and the first edge of a conv fan-out (the live conv
    edges of one kind reading one node) holds the fan-out's stacked filters
    and each edge's output channels, the others None.
    """
    zero, nonzero = [False, True, True, True], set()
    for name, src, dst in arch.CELL_EDGES:
        if not zero[src] and getattr(cell, name) is not Operation.ZEROIZE:
            nonzero.add(name)
            zero[dst] = False
    used, live = {3}, []
    for name, src, dst in reversed(arch.CELL_EDGES):
        if name in nonzero and dst in used:
            used.add(src)
            live.insert(0, (name, src, dst, getattr(cell, name)))
    last = {src: name for name, src, _, _ in live}
    fan_outs: dict[tuple, list[str]] = {}  # (src, conv op) -> its live edges
    for name, src, _, op in live:
        if op in arch.CONV_OPS:
            fan_outs.setdefault((src, op), []).append(name)
    plan = []
    for name, src, dst, op in live:
        fan_out = None
        if group := fan_outs.pop((src, op), None):  # the fan-out runs at its first edge
            c = len(weights[f"{prefix}.{name}"])  # every cell conv is as wide
            fan_out = (np.concatenate([weights[f"{prefix}.{e}"] for e in group]),
                       [(e, slice(k * c, k * c + c)) for k, e in enumerate(group)])
        plan.append((name, src, dst, op, fan_out, last[src] == name))
    return plan


def _cell_preactivation(plan: list[tuple], x_spikes: np.ndarray) -> np.ndarray | None:
    """Sum-combined node values of one cell, before its spiking stage.

    Runs the steps of its `_cell_plan`: a fan-out's first edge runs one GEMM
    whose output channels wait in `pending`.  A sum is written into a buffer
    that no other node or edge holds (a conv or pool output, or an earlier
    sum), and a node value is dropped after its last reader, so a fused
    output buffer is freed as soon as every slice of it has been summed and
    few map-sized arrays are allocated.  An always-zero output is None.
    """
    nodes: list[np.ndarray | None] = [x_spikes, None, None, None]
    private = [False] * 4  # node buffer held by nobody else: sum into it
    pending: dict[str, np.ndarray] = {}
    for name, src, dst, op, fan_out, last in plan:
        if fan_out:
            out = conv2d_same(nodes[src], fan_out[0])
            pending.update((edge, out[:, channels]) for edge, channels in fan_out[1])
            del out
        if op is Operation.AVGPOOL3X3:
            term = avgpool3x3_same(nodes[src])
        elif op is Operation.SKIPCON:
            term = nodes[src]
        else:  # a conv; a live edge is never zeroize
            term = pending.pop(name)
        term_private = op is not Operation.SKIPCON  # skipcon passes its source on
        if nodes[dst] is None:
            nodes[dst], private[dst] = term, term_private
        else:
            out = term if term_private else nodes[dst] if private[dst] else None
            nodes[dst], private[dst] = np.add(nodes[dst], term, out=out, dtype=np.float32), True
        del term
        if last:
            nodes[src] = None
    return nodes[3]


def _simulate(net: NetworkArch, weights: WeightSet, x: np.ndarray, p: LIFParams,
              code_mode: str, rate: bool, cells: list, zeros: list) -> BinaryCodes:
    """Codes of the samples in `x`: an image batch, or (rate) T spike batches.

    Reads the pass's plan: `cells`, each cell's `_cell_plan`, and `zeros`,
    an all-False view of the batch per stage shape (stem, each downsample, classifier).
    """
    # a stage is made at its first step, so `stages` is in stage order
    stages: dict[str, _LifStage] = defaultdict(lambda: _LifStage(p))
    zeros = [zero[:x.shape[int(rate)]] for zero in zeros]  # this tile's samples

    fc_w, stem_w = weights["classifier.fc"], weights["stem.conv"]
    # direct coding feeds the same image at every step: one stem conv
    stem_pre = None if rate else conv2d_same(x, stem_w)
    for t in range(p.timesteps):
        cur, silent = stages["stem"].step(conv2d_same(x[t], stem_w) if rate else stem_pre)
        for i, plan in enumerate(cells, start=1):
            pre = None if silent else _cell_preactivation(plan, cur)
            cur, silent = stages[f"cell{i}"].step(pre, zeros[i - 1])
            if i < net.num_cells:
                pre = None if silent else conv2d_same(avgpool2x2_down(cur),
                                                      weights[f"down{i}.conv"])
                cur, silent = stages[f"down{i}"].step(pre, zeros[i])
        logits = None if silent else cur.mean(axis=(2, 3), dtype=np.float32) @ fc_w.T
        stages["classifier"].step(logits, zeros[-1])

    return {name: stage.codes(code_mode) for name, stage in stages.items()}


def forward_collect_codes(net: NetworkArch, weights: WeightSet, batch: np.ndarray,
                          p: LIFParams, *, code_mode: str = "any", input_coding: str = "direct",
                          coding_seed: int = 0) -> BinaryCodes:
    """Simulate the network over `p.timesteps` steps and collect codes.

    Every sample starts from the reset potential; a neuron's code bit is
    1 if it fired at least once over the horizon (`code_mode="any"`), or
    the per-step spike trains concatenated (`code_mode="concat"`): per
    sample, step-major, each step's bits in (C, H, W) order.
    `input_coding="rate"` replaces direct coding with seeded Bernoulli
    spike trains whose rates are the pixel values.  At or above `SPLIT_MACS`
    the pass runs on min(`blas.free_cores()`, samples) threads, else on one.
    The samples run in contiguous tiles, as many as `TILE_MACS` asks for but
    at least one per thread and at most one per sample.  Codes are joined in
    sample order.
    """
    arch.check_choice("code_mode", code_mode, CODE_MODES)
    arch.check_choice("input_coding", input_coding, INPUT_CODINGS)
    x = np.asarray(batch, dtype=np.float32)
    m = net.macro
    if x.ndim != 4 or x.shape[1:] != m.input_shape:
        raise SpikeNasError(f"batch shape {x.shape} does not match input {m.input_shape}")
    _check_weights(net, weights)

    _, h, w = m.input_shape
    macs = h * w * 9 * m.stem_channels ** 2  # one sample's cell-1 conv3x3
    threads = min(free_cores(), len(x)) if len(x) * macs >= SPLIT_MACS else 1
    n = min(len(x), max(threads, -(-len(x) // max(1, TILE_MACS // macs))))
    rate = input_coding == "rate"
    if rate:  # all T steps' spikes in one draw: the stream of T draws of one step
        rng = np.random.default_rng(coding_seed)
        x = rng.random((p.timesteps, *x.shape), dtype=np.float32) < x
    # the plan every tile reads: each cell's steps, one all-False view per stage shape
    cells = [_cell_plan(cell, weights, f"cell{i}") for i, cell in enumerate(net.cells, 1)]
    shapes = [(m.stem_channels * m.width_mult**i, h >> i, w >> i) for i in range(net.num_cells)]
    zeros = [np.broadcast_to(False, (len(batch), *s)) for s in shapes + [(m.num_classes,)]]
    run = partial(_simulate, net, weights, p=p, code_mode=code_mode, rate=rate,
                  cells=cells, zeros=zeros)
    parts = thread_map(run, np.array_split(x, n, axis=int(rate)), threads)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
