"""Discrete-time spiking forward engine.

Untrained networks are run for a few timesteps on a mini-batch and each
spiking stage records which neurons fired, producing the per-layer
binary codes consumed by the scorer.  A stage keeps its membrane
potential and one bool mask per step, and nothing else; the codes are
built from the masks once, after the last step.  The neuron model
integrates its input into a membrane potential that decays toward a
reset value and fires (then resets) when it crosses a threshold:

    v <- v + (-(v - v_reset) + x) / tau

Inputs use direct coding by default: the analog image is presented as
synaptic input at every timestep, so the stem convolution of that image
is computed once and fed to the stem at every step (rate coding draws
every step's spike map in one call, then runs the stem per step).
Convolutions are plain stride-1 same-padding weighted sums implemented
via im2col, one GEMM per sample, with no bias term: an untrained
network's biases are zero, so a weight set holds one weight array per
layer and nothing else (biases count only toward the memory model's
`n_param`).  Every map is a C-contiguous (S, C, H, W) array, and all
feature-map operators preserve the stage shape so node summations are
well defined.  The 3x3 average pool is a separable box sum over the
zero-padded map: three column-shifted slices summed into row sums, then
three row-shifted row sums, then a division by 9; the 2x2 downsampling
pool adds strided slices the same way.  That is the order numpy's
windowed mean adds in, so both are bit-identical to it.

A cell runs only its live edges.  An edge is dead when its output is
always zero (zeroize, or any op reading a node that is always zero) or
when no live edge reads its target node.  Conv edges of one kind that
read the same node (the fan-out of node 0 or node 1) run as one GEMM
over their stacked filters, whose output is split per edge.  Each output
column sums the same products in the same order as a separate
convolution, and node values are summed in edge order, so spike codes
equal those of running all six edges one by one.

A stage that fires no spike at a step is silent, and the next stage
then gets an all-zero input: the cell does not run, and the downsample
(2x2 pool, 1x1 conv) and the classifier pass zeros on.  A zero input
leaves a spiking stage at reset where it is, runs no kernel and stores
nothing (its mask is a read-only all-False view); a potential off reset
decays through `lif_step` as usual, so spike codes stay exactly the same.

Every kernel works per sample and the silent test is exact per sample
too, so a batch can be split into contiguous tiles that run one after
another or on `shards` threads through `blas.thread_map`, each on one
BLAS thread: each stage's codes are the tiles' codes in sample order, the
same bits as one run over the whole batch.  Tiles keep a pass's working
set near the size of a core's cache; `TILE_MACS` sizes them from the
macro, and a batch is cut into at least `shards` tiles.  A search asks for
threads only in a phase it scores with one worker, one per core, and only
above `search.SPLIT_MACS`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import arch
from .arch import NetworkArch, Operation
from .blas import thread_map
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
    """One membrane update; returns (next potential, 0/1 spike map)."""
    v_prev = np.asarray(v_prev, dtype=np.result_type(v_prev, np.float32))
    x = np.asarray(x, dtype=v_prev.dtype)
    if v_prev.shape != x.shape:
        raise SpikeNasError(f"potential {v_prev.shape} vs input {x.shape}")
    v_cand = v_prev + (-(v_prev - p.v_reset) + x) / p.tau_leak
    fired = v_cand >= p.v_threshold
    spikes = fired.astype(v_cand.dtype)
    v_next = np.where(fired, p.v_reset, v_cand)
    return v_next, spikes


def _pad_hw(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """`x` with `ph` zero rows and `pw` zero columns on each side."""
    s, c, h, w = x.shape
    out = np.zeros((s, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
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
    out_ch, in_ch, kh, kw = weights.shape
    ph, pw = kh // 2, kw // 2
    if ph or pw:
        x = _pad_hw(x, ph, pw)
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    s, _, h, w = win.shape[:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(s, in_ch * kh * kw, h * w)
    del x, win  # free the padded copy before the GEMM output is allocated
    return (weights.reshape(out_ch, -1) @ cols).reshape(s, out_ch, h, w)


def avgpool3x3_same(x: np.ndarray) -> np.ndarray:
    """3x3 window mean with zero padding (pad cells count toward the mean).

    Row sums of three column-shifted slices, then sums of three
    row-shifted row sums, then one division: keep this order, it matches
    numpy's windowed mean bit for bit on float maps at least 2 wide.
    """
    xp = _pad_hw(x, 1, 1)
    rows = xp[..., :-2] + xp[..., 1:-1]
    rows += xp[..., 2:]
    del xp
    out = rows[:, :, :-2] + rows[:, :, 1:-1]
    out += rows[:, :, 2:]
    out /= 9
    return out


def avgpool2x2_down(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean, halving the spatial size.

    (top-left + top-right) + (bottom-left + bottom-right), then one
    division: numpy's windowed-mean order on maps at least 4 wide.
    """
    s, c, h, w = x.shape
    if h % 2 or w % 2:
        raise SpikeNasError(f"cannot halve odd spatial size {h}x{w}")
    out = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    out += x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
    out /= 4
    return out


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

    def step(self, pre: np.ndarray | None,
             shape: tuple[int, ...] = ()) -> tuple[np.ndarray, bool]:
        """One step on `pre` (None: all zero, of `shape`); returns (spikes, silent)."""
        if pre is None:
            pre = np.broadcast_to(np.float32(0), shape)  # read-only, holds no memory
            if self.potential is None:  # stays at reset, fires nothing
                self.masks.append(np.broadcast_to(False, shape))
                return pre, True
        if self.potential is None:
            self.potential = np.full_like(pre, self.params.v_reset)
        self.potential, spikes = lif_step(self.potential, pre, self.params)
        mask = spikes.astype(bool)
        self.masks.append(mask)
        return spikes, not mask.any()

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


def _live_edges(cell) -> list[tuple[str, int, int]]:
    """The edges that can change the cell output, in `arch.CELL_EDGES` order.

    An edge is dead if its output is always zero (zeroize, or any op
    reading an always-zero node) or nothing live reads its target node.
    """
    zero = [False, True, True, True]
    nonzero = set()
    for name, src, dst in arch.CELL_EDGES:
        if zero[src] or getattr(cell, name) is Operation.ZEROIZE:
            continue
        nonzero.add(name)
        zero[dst] = False
    used = {3}
    live = []
    for name, src, dst in reversed(arch.CELL_EDGES):
        if name in nonzero and dst in used:
            used.add(src)
            live.append((name, src, dst))
    return live[::-1]


def _conv_fan_out(x: np.ndarray, filters: list[np.ndarray]) -> list[np.ndarray]:
    """`conv2d_same(x, w)` for each w, as one GEMM over stacked filters."""
    return np.split(conv2d_same(x, np.concatenate(filters)), len(filters), axis=1)


def _cell_preactivation(cell, x_spikes: np.ndarray, weights: WeightSet,
                        prefix: str) -> np.ndarray | None:
    """Sum-combined node values of one cell, before its spiking stage.

    Runs the live edges only.  The first live conv edge of a fan-out runs
    the whole fan-out; the other outputs wait in `pending`.  A sum is
    written into a buffer that no other node or edge holds (a conv or
    pool output, or an earlier sum), and a node value is dropped after
    its last reader, so a fused output buffer is freed as soon as every
    slice of it has been summed and few map-sized arrays are allocated.
    An output that is always zero comes back as None.
    """
    live = _live_edges(cell)
    last_reader = {src: name for name, src, _ in live}
    nodes: list[np.ndarray | None] = [x_spikes, None, None, None]
    private = [False] * 4  # node buffer held by nobody else: sum into it
    pending: dict[str, np.ndarray] = {}
    for name, src, dst in live:
        op = getattr(cell, name)
        if name not in pending:
            if op in arch.CONV_OPS:
                group = [e for e, s, _ in live if s == src and getattr(cell, e) is op]
                outs = _conv_fan_out(nodes[src], [weights[f"{prefix}.{e}"] for e in group])
                pending.update(zip(group, outs))
            elif op is Operation.AVGPOOL3X3:
                pending[name] = avgpool3x3_same(nodes[src])
            else:  # skipcon; a live edge is never zeroize
                pending[name] = nodes[src]
        term = pending.pop(name)
        term_private = op is not Operation.SKIPCON  # skipcon passes its source on
        if nodes[dst] is None:
            nodes[dst], private[dst] = term, term_private
        else:
            out = term if term_private else nodes[dst] if private[dst] else None
            nodes[dst], private[dst] = np.add(nodes[dst], term, out=out), True
        del term
        if last_reader[src] == name:
            nodes[src] = None
    return nodes[3]


def _simulate(net: NetworkArch, weights: WeightSet, x: np.ndarray, p: LIFParams,
              code_mode: str, rate: bool) -> BinaryCodes:
    """Codes of the samples in `x`: an image batch, or (rate) T spike batches."""
    num_cells = net.num_cells
    # a stage is made at its first step, so `stages` is in stage order
    stages: dict[str, _LifStage] = defaultdict(lambda: _LifStage(p))

    fc_w = weights["classifier.fc"]
    stem_w = weights["stem.conv"]
    # direct coding feeds the same image at every step: one stem conv
    stem_pre = None if rate else conv2d_same(x, stem_w)
    for t in range(p.timesteps):
        if rate:
            cur, silent = stages["stem"].step(conv2d_same(x[t].astype(np.float32), stem_w))
        else:
            cur, silent = stages["stem"].step(stem_pre)
        for i, cell in enumerate(net.cells, start=1):
            pre = None if silent else _cell_preactivation(cell, cur, weights, f"cell{i}")
            cur, silent = stages[f"cell{i}"].step(pre, cur.shape)
            if i < num_cells:
                w = weights[f"down{i}.conv"]
                s, _, h, wd = cur.shape
                pre = None if silent else conv2d_same(avgpool2x2_down(cur), w)
                cur, silent = stages[f"down{i}"].step(pre, (s, len(w), h // 2, wd // 2))
        logits = None if silent else cur.mean(axis=(2, 3)) @ fc_w.T
        stages["classifier"].step(logits, (len(cur), len(fc_w)))

    return {name: stage.codes(code_mode) for name, stage in stages.items()}


def forward_collect_codes(net: NetworkArch, weights: WeightSet, batch: np.ndarray,
                          p: LIFParams, *, code_mode: str = "any",
                          input_coding: str = "direct", coding_seed: int = 0,
                          shards: int = 1) -> BinaryCodes:
    """Simulate the network over `p.timesteps` steps and collect codes.

    Every sample starts from the reset potential; a neuron's code bit is
    1 if it fired at least once over the horizon (`code_mode="any"`), or
    the per-step spike trains concatenated (`code_mode="concat"`): per
    sample, step-major, each step's bits in (C, H, W) order.
    `input_coding="rate"` replaces direct coding with seeded Bernoulli
    spike trains whose rates are the pixel values.  The samples run in
    contiguous tiles, as many as `TILE_MACS` asks for but at least
    `shards` and at most one per sample; `shards` > 1 maps them over that
    many threads.  Codes are joined in sample order.
    """
    if code_mode not in CODE_MODES:
        raise SpikeNasError(f"unknown code_mode {code_mode!r}")
    if input_coding not in INPUT_CODINGS:
        raise SpikeNasError(f"unknown input_coding {input_coding!r}")
    if not arch.is_int(shards) or shards < 1:
        raise SpikeNasError(f"shards must be >= 1, got {shards}")
    x = np.asarray(batch, dtype=np.float32)
    expected = net.macro.input_shape
    if x.ndim != 4 or x.shape[1:] != expected:
        raise SpikeNasError(f"batch shape {x.shape} does not match input {expected}")
    _check_weights(net, weights)

    _, h, w = expected
    tile = max(1, TILE_MACS // (h * w * 9 * net.macro.stem_channels ** 2))
    n = min(len(x), max(shards, -(-len(x) // tile)))
    rate = input_coding == "rate"
    if rate:  # all T steps' spikes in one draw: the stream of T draws of one step
        rng = np.random.default_rng(coding_seed)
        x = rng.random((p.timesteps, *x.shape), dtype=np.float32) < x
    run = partial(_simulate, net, weights, p=p, code_mode=code_mode, rate=rate)
    if n <= 1:
        return run(x)
    parts = thread_map(run, np.array_split(x, n, axis=int(rate)), shards)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
