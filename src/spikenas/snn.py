"""Discrete-time spiking forward engine.

Untrained networks are run for a few timesteps on a mini-batch and each
spiking stage records which neurons fired, producing the per-layer
binary codes consumed by the scorer.  The neuron model integrates its
input into a membrane potential that decays toward a reset value and
fires (then resets) when it crosses a threshold:

    v <- v + (-(v - v_reset) + x) / tau

Inputs use direct coding by default: the analog image is presented as
synaptic input at every timestep.  Convolutions are plain stride-1
same-padding weighted sums implemented via im2col; all feature-map
operators preserve the stage shape so node summations are well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import arch
from .arch import NetworkArch, Operation
from .errors import MissingWeights, ShapeMismatch

WeightSet = dict[str, tuple[np.ndarray, np.ndarray | None]]


@dataclass(frozen=True)
class LIFParams:
    """Spiking-neuron constants and simulation horizon."""

    tau_leak: float = 2.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    timesteps: int = 5

    def __post_init__(self) -> None:
        if self.tau_leak < 1.0:
            raise ValueError(f"tau_leak must be >= 1, got {self.tau_leak}")
        if self.v_threshold <= self.v_reset:
            raise ValueError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset})"
            )
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")


@dataclass(frozen=True, eq=False)
class BinaryCodes:
    """Per-stage firing codes: one (samples x neurons) bit matrix each."""

    layer_names: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.layer_names) != len(self.matrices):
            raise ValueError("one bit matrix per layer name required")
        if not self.matrices:
            raise ValueError("at least one layer of codes required")
        counts = {m.shape[0] for m in self.matrices}
        if len(counts) != 1:
            raise ValueError(f"inconsistent sample counts across layers: {counts}")

    @property
    def num_samples(self) -> int:
        return self.matrices[0].shape[0]


def lif_step(v_prev: np.ndarray, x: np.ndarray, p: LIFParams):
    """One membrane update; returns (next potential, 0/1 spike map)."""
    v_prev = np.asarray(v_prev, dtype=np.result_type(v_prev, np.float32))
    x = np.asarray(x, dtype=v_prev.dtype)
    if v_prev.shape != x.shape:
        raise ShapeMismatch(f"potential {v_prev.shape} vs input {x.shape}")
    v_cand = v_prev + (-(v_prev - p.v_reset) + x) / p.tau_leak
    fired = v_cand >= p.v_threshold
    spikes = fired.astype(v_cand.dtype)
    v_next = np.where(fired, p.v_reset, v_cand)
    return v_next, spikes


def conv2d_same(x: np.ndarray, weights: np.ndarray,
                bias: np.ndarray | None) -> np.ndarray:
    """Stride-1 zero-padded convolution keeping the spatial size."""
    if weights.ndim != 4:
        raise ShapeMismatch(f"conv weights must be 4-D, got {weights.shape}")
    if x.ndim != 4 or x.shape[1] != weights.shape[1]:
        raise ShapeMismatch(f"input {x.shape} incompatible with weights {weights.shape}")
    out_ch, in_ch, kh, kw = weights.shape
    ph, pw = kh // 2, kw // 2
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    s, _, h, w = win.shape[:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(s * h * w, in_ch * kh * kw)
    out = cols @ weights.reshape(out_ch, -1).T
    if bias is not None:
        out += bias
    return out.reshape(s, h, w, out_ch).transpose(0, 3, 1, 2)


def avgpool3x3_same(x: np.ndarray) -> np.ndarray:
    """3x3 window mean with zero padding (pad cells count toward the mean)."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))
    return win.mean(axis=(-2, -1))


def avgpool2x2_down(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean, halving the spatial size."""
    s, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatch(f"cannot halve odd spatial size {h}x{w}")
    return x.reshape(s, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def apply_edge_op(op: Operation, x: np.ndarray,
                  weights: tuple[np.ndarray, np.ndarray | None] | None = None) -> np.ndarray:
    """Apply one cell-edge operation to a stage-shaped feature map."""
    if op is Operation.ZEROIZE:
        return np.zeros_like(x)
    if op is Operation.SKIPCON:
        return x
    if op is Operation.AVGPOOL3X3:
        return avgpool3x3_same(x)
    if op in arch.CONV_OPS:
        if weights is None:
            raise MissingWeights(f"{op.label} edge has no weights")
        w, b = weights
        return conv2d_same(x, w, b)
    raise ValueError(f"unhandled operation {op!r}")


def init_weights(net: NetworkArch, seed: int) -> WeightSet:
    """Seeded weight set for every parameterized layer.

    Weights are zero-mean normal with std sqrt(2 / fan_in); biases are
    zero.  The draw order follows the flattened layer list, so a given
    (net, seed) pair always produces bit-identical tensors.
    """
    rng = np.random.default_rng(seed)
    out: WeightSet = {}
    for layer in arch.network_layers(net):
        shape = layer.weight_shape
        if shape is None:
            continue
        fan_in = math.prod(shape[1:])
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)
        b = np.zeros(layer.out_channels, dtype=np.float32) if layer.has_bias else None
        out[layer.name] = (w, b)
    return out


@dataclass
class _LifStage:
    """Stateful spiking stage: persistent potential + fired accumulator."""

    params: LIFParams
    code_mode: str
    potential: np.ndarray | None = None
    fired: np.ndarray | None = None
    per_step: list[np.ndarray] = field(default_factory=list)

    def step(self, pre: np.ndarray) -> np.ndarray:
        if self.potential is None:
            self.potential = np.full_like(pre, self.params.v_reset)
        self.potential, spikes = lif_step(self.potential, pre, self.params)
        if self.code_mode == "concat":
            self.per_step.append(spikes)
        elif self.fired is None:
            self.fired = spikes.copy()
        else:
            np.maximum(self.fired, spikes, out=self.fired)
        return spikes

    def codes(self) -> np.ndarray:
        if self.code_mode == "concat":
            stacked = np.stack(self.per_step, axis=1)
            return stacked.reshape(stacked.shape[0], -1).astype(np.uint8)
        return self.fired.reshape(self.fired.shape[0], -1).astype(np.uint8)


def _check_weights(net: NetworkArch, weights: WeightSet) -> None:
    for layer in arch.network_layers(net):
        if layer.weight_shape is not None and layer.name not in weights:
            raise MissingWeights(f"no weights for layer {layer.name!r}")


def _cell_preactivation(cell, x_spikes: np.ndarray, weights: WeightSet,
                        prefix: str) -> np.ndarray:
    """Sum-combined node values of one cell, before its spiking stage."""
    w = lambda edge: weights.get(f"{prefix}.{edge}")
    n1 = apply_edge_op(cell.con01, x_spikes, w("con01"))
    n2 = (apply_edge_op(cell.con02, x_spikes, w("con02"))
          + apply_edge_op(cell.con12, n1, w("con12")))
    return (apply_edge_op(cell.con03, x_spikes, w("con03"))
            + apply_edge_op(cell.con13, n1, w("con13"))
            + apply_edge_op(cell.con23, n2, w("con23")))


def forward_collect_codes(net: NetworkArch, weights: WeightSet, batch: np.ndarray,
                          p: LIFParams, *, code_mode: str = "any",
                          input_coding: str = "direct",
                          coding_seed: int = 0) -> BinaryCodes:
    """Simulate the network over `p.timesteps` steps and collect codes.

    Every sample starts from the reset potential; a neuron's code bit is
    1 if it fired at least once over the horizon (`code_mode="any"`), or
    the per-step spike trains concatenated (`code_mode="concat"`).
    `input_coding="rate"` replaces direct coding with seeded Bernoulli
    spike trains whose rates are the pixel values.
    """
    if code_mode not in ("any", "concat"):
        raise ValueError(f"unknown code_mode {code_mode!r}")
    if input_coding not in ("direct", "rate"):
        raise ValueError(f"unknown input_coding {input_coding!r}")
    x0 = np.asarray(batch, dtype=np.float32)
    expected = net.macro.input_shape
    if x0.ndim != 4 or x0.shape[1:] != expected:
        raise ShapeMismatch(f"batch shape {x0.shape} does not match input {expected}")
    _check_weights(net, weights)

    rate_rng = np.random.default_rng(coding_seed) if input_coding == "rate" else None
    num_cells = net.num_cells
    stage_names = ["stem"]
    for i in range(1, num_cells + 1):
        stage_names.append(f"cell{i}")
        if i < num_cells:
            stage_names.append(f"down{i}")
    stage_names.append("classifier")
    stages = {name: _LifStage(p, code_mode) for name in stage_names}

    fc_w, fc_b = weights["classifier.fc"]
    for _ in range(p.timesteps):
        if rate_rng is None:
            x = x0
        else:
            x = (rate_rng.random(x0.shape, dtype=np.float32) < x0).astype(np.float32)
        w, b = weights["stem.conv"]
        cur = stages["stem"].step(conv2d_same(x, w, b))
        for i, cell in enumerate(net.cells, start=1):
            pre = _cell_preactivation(cell, cur, weights, f"cell{i}")
            cur = stages[f"cell{i}"].step(pre)
            if i < num_cells:
                pooled = avgpool2x2_down(cur)
                w, b = weights[f"down{i}.conv"]
                cur = stages[f"down{i}"].step(conv2d_same(pooled, w, b))
        pooled = cur.mean(axis=(2, 3))
        logits = pooled @ fc_w.T
        if fc_b is not None:
            logits = logits + fc_b
        stages["classifier"].step(logits)

    return BinaryCodes(
        layer_names=tuple(stage_names),
        matrices=tuple(stages[name].codes() for name in stage_names),
    )
