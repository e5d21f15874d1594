"""Independent reference implementations used to pin expected values.

These are deliberately written in the dumbest correct style (element
walks, nested loops, cofactor recursion, sequential phase loops) and
must stay independent of the library code paths they check.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from spikenas.arch import build_network, decode_cell, search_space_size
from spikenas.data import RECORD_BYTES_10, RECORD_BYTES_100, sample_batch
from spikenas.memmodel import count_network_params
from spikenas.search import candidate_seed
from spikenas.snn import conv2d_same


# Top-level keys of a JSON run report: the schema the tests pin.
REPORT_FIELDS = (
    "scenario", "dataset", "opset", "cells", "budget", "best_arch",
    "best_score", "singular", "n_param", "mem_bits", "evaluations_total",
    "evaluations_skipped", "seed", "wall_time_ms", "engine_version",
    "strategy", "iterations", "removed_op",
)


def walk_count_elements(weights, macro) -> int:
    """Count weight scalars one element at a time, plus the biases.

    A weight set holds no biases, so one bias per output unit is added
    for every layer when `macro.bias` is set.
    """
    n = 0
    for w in weights.values():
        for _ in w.flat:
            n += 1
        if macro.bias:
            for _ in range(w.shape[0]):
                n += 1
    return n


def naive_hamming_kernel(codes, alpha=1.0) -> np.ndarray:
    """Kernel entries via per-bit comparison loops."""
    s, f = codes.shape
    out = np.empty((s, s), dtype=np.float64)
    for i in range(s):
        for j in range(s):
            dist = 0
            for a, b in zip(codes[i], codes[j]):
                if int(a) != int(b):
                    dist += 1
            out[i, j] = f - alpha * dist
    return out


def cofactor_det(matrix) -> float:
    """Determinant by first-row cofactor expansion."""
    m = [[float(v) for v in row] for row in matrix]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in m[1:]]
        total += (-1.0) ** col * m[0][col] * cofactor_det(minor)
    return total


def exhaustive_best_shared(cfg, score_fn):
    """Argmax over every shared-cell candidate, scored directly.

    Sequential ascending scan with strict improvement, so ties resolve
    to the lowest index.  Returns (index, score, n_scored).
    """
    pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed)
    best_idx = None
    best_val = None
    scored = 0
    for idx in range(search_space_size(cfg.opset)):
        cells = [decode_cell(idx, cfg.opset)] * cfg.num_cells
        net = build_network(cells, cfg.macro)
        if cfg.budget is not None and count_network_params(net) > cfg.budget.max_params:
            continue
        val = score_fn(net, pixels, cfg.lif,
                       candidate_seed(cfg.seed, 1, idx), cfg.alpha).value
        scored += 1
        if best_val is None or val > best_val:
            best_idx, best_val = idx, val
    return best_idx, best_val, scored


def reference_memory_aware(cfg, score_fn):
    """Sequential transliteration of the per-cell consecutive search.

    Phase 1 applies each candidate to every cell; later phases mutate a
    single cell while the others keep the best configuration so far.
    Strict `>` improvement in ascending order reproduces the
    lowest-(phase, index) tie-break.  Returns a plain dict.
    """
    pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed)
    space = search_space_size(cfg.opset)
    best_val = None
    best_cells = None
    best_n = None
    scored = skipped = 0
    for phase in range(1, cfg.num_cells + 1):
        for idx in range(space):
            cand = decode_cell(idx, cfg.opset)
            if phase == 1:
                trial = [cand] * cfg.num_cells
            else:
                trial = list(best_cells)
                trial[phase - 1] = cand
            net = build_network(trial, cfg.macro)
            n = count_network_params(net)
            if cfg.budget is not None and n > cfg.budget.max_params:
                skipped += 1
                continue
            val = score_fn(net, pixels, cfg.lif,
                           candidate_seed(cfg.seed, phase, idx), cfg.alpha).value
            scored += 1
            if best_val is None or val > best_val:
                best_val = val
                best_cells = trial
                best_n = n
        if phase == 1 and best_cells is None:
            return None
    return {
        "cells": tuple(best_cells),
        "score": best_val,
        "n_param": best_n,
        "scored": scored,
        "skipped": skipped,
    }


def reference_literal_carryover(cfg, score_fn):
    """Sequential loop where phases leave the last-tried candidate behind.

    After any phase every non-searched cell holds the last candidate of
    the space, so phases >= 2 vary one cell against that background.
    """
    pixels = sample_batch(cfg.dataset, cfg.batch_size, cfg.seed)
    space = search_space_size(cfg.opset)
    last = decode_cell(space - 1, cfg.opset)
    best_val = None
    best_cells = None
    scored = skipped = 0
    for phase in range(1, cfg.num_cells + 1):
        for idx in range(space):
            cand = decode_cell(idx, cfg.opset)
            if phase == 1:
                trial = [cand] * cfg.num_cells
            else:
                trial = [last] * cfg.num_cells
                trial[phase - 1] = cand
            net = build_network(trial, cfg.macro)
            n = count_network_params(net)
            if cfg.budget is not None and n > cfg.budget.max_params:
                skipped += 1
                continue
            val = score_fn(net, pixels, cfg.lif,
                           candidate_seed(cfg.seed, phase, idx), cfg.alpha).value
            scored += 1
            if best_val is None or val > best_val:
                best_val = val
                best_cells = trial
        if phase == 1 and best_cells is None:
            return None
    return {"cells": tuple(best_cells), "score": best_val,
            "scored": scored, "skipped": skipped}


def min_shared_candidate_params(opset, num_cells, macro) -> int:
    """Smallest parameter count over all shared-cell candidates."""
    best = None
    for idx in range(search_space_size(opset)):
        net = build_network([decode_cell(idx, opset)] * num_cells, macro)
        n = count_network_params(net)
        if best is None or n < best:
            best = n
    return best


def reference_lif_step(v_prev, x, p):
    """The membrane update as the neuron model writes it.

    `v + (-(v - v_reset) + x) / tau`, then fire at `v_threshold` and reset.
    Returns (next potential, 0/1 spike map in the potential's float dtype).
    """
    v_prev = np.asarray(v_prev, dtype=np.result_type(v_prev, np.float32))
    x = np.asarray(x, dtype=v_prev.dtype)
    v_cand = v_prev + (-(v_prev - p.v_reset) + x) / p.tau_leak
    fired = v_cand >= p.v_threshold
    return np.where(fired, p.v_reset, v_cand), fired.astype(v_cand.dtype)


def _naive_conv(x, w, b):
    """Same-padded stride-1 convolution, one output pixel at a time."""
    s, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    out = np.zeros((s, c_out, h, wd))
    for n in range(s):
        for o in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0 if b is None else float(b[o])
                    for c in range(c_in):
                        for di in range(kh):
                            for dj in range(kw):
                                ii, jj = i + di - kh // 2, j + dj - kw // 2
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(x[n, c, ii, jj]) * float(w[o, c, di, dj])
                    out[n, o, i, j] = acc
    return out


def _naive_pool(x, size, stride, pad):
    """Window mean over size x size; zero padding counts toward the mean."""
    s, c, h, wd = x.shape
    oh, ow = (h + 2 * pad - size) // stride + 1, (wd + 2 * pad - size) // stride + 1
    out = np.zeros((s, c, oh, ow))
    for n in range(s):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for di in range(size):
                        for dj in range(size):
                            ii, jj = i * stride + di - pad, j * stride + dj - pad
                            if 0 <= ii < h and 0 <= jj < wd:
                                acc += float(x[n, ch, ii, jj])
                    out[n, ch, i, j] = acc / (size * size)
    return out


def _naive_edge(op, x, w, b):
    label = op.label
    if label == "zeroize":
        return np.zeros_like(x)
    if label == "skipcon":
        return x
    if label == "avgpool3x3":
        return _naive_pool(x, 3, 1, 1)
    return _naive_conv(x, w, b)


class _NaiveLif:
    """Scalar neuron updates over one stage; keeps every step's spikes."""

    def __init__(self, p):
        self.p = p
        self.v = None
        self.steps = []

    def step(self, pre):
        p = self.p
        if self.v is None:
            self.v = np.full(pre.shape, float(p.v_reset))
        spikes = np.zeros(pre.shape)
        for pos in np.ndindex(pre.shape):
            v = self.v[pos]
            v = v + (-(v - p.v_reset) + float(pre[pos])) / p.tau_leak
            if v >= p.v_threshold:
                spikes[pos] = 1.0
                v = p.v_reset
            self.v[pos] = v
        self.steps.append(spikes)
        return spikes

    def codes(self, code_mode):
        s = self.steps[0].shape[0]
        if code_mode == "concat":
            rows = [np.concatenate([st[n].ravel() for st in self.steps]) for n in range(s)]
        else:
            rows = [np.max([st[n].ravel() for st in self.steps], axis=0) for n in range(s)]
        return np.array(rows, dtype=np.uint8)


def naive_forward_codes(net, weights, batch, p, code_mode="any",
                        input_coding="direct", coding_seed=0, biases=None):
    """Stage codes by per-pixel, per-timestep loops in float64.

    Follows the network description directly: stem conv, each cell's
    node sums (n1 = e01(n0), n2 = e02(n0) + e12(n1), out = e03(n0) +
    e13(n1) + e23(n2)), 2x2 mean + 1x1 conv between cells, global
    average pool and the classifier, with a spiking stage after each.
    `biases` maps a layer name to its bias vector; a layer it leaves out
    has none.  Returns (stage names, code matrices).
    """
    biases = biases or {}
    names = ["stem"]
    for i in range(1, net.num_cells + 1):
        names.append(f"cell{i}")
        if i < net.num_cells:
            names.append(f"down{i}")
    names.append("classifier")
    stages = {name: _NaiveLif(p) for name in names}
    wb = lambda layer: (weights.get(layer), biases.get(layer))
    x0 = np.asarray(batch, dtype=np.float32)
    rng = np.random.default_rng(coding_seed)
    for _ in range(p.timesteps):
        x = x0
        if input_coding == "rate":
            x = (rng.random(x0.shape, dtype=np.float32) < x0).astype(np.float32)
        cur = stages["stem"].step(_naive_conv(x, *wb("stem.conv")))
        for i, cell in enumerate(net.cells, start=1):
            edge = lambda op, x, name: _naive_edge(op, x, *wb(f"cell{i}.{name}"))
            n1 = edge(cell.con01, cur, "con01")
            n2 = edge(cell.con02, cur, "con02") + edge(cell.con12, n1, "con12")
            out = (edge(cell.con03, cur, "con03") + edge(cell.con13, n1, "con13")
                   + edge(cell.con23, n2, "con23"))
            cur = stages[f"cell{i}"].step(out)
            if i < net.num_cells:
                pooled = _naive_pool(cur, 2, 2, 0)
                cur = stages[f"down{i}"].step(_naive_conv(pooled, *wb(f"down{i}.conv")))
        fc_w, fc_b = wb("classifier.fc")
        s, c = cur.shape[:2]
        logits = np.zeros((s, fc_w.shape[0]))
        for n in range(s):
            gap = [float(np.mean(cur[n, ch])) for ch in range(c)]
            for k in range(fc_w.shape[0]):
                acc = 0.0 if fc_b is None else float(fc_b[k])
                for ch in range(c):
                    acc += gap[ch] * float(fc_w[k, ch])
                logits[n, k] = acc
        stages["classifier"].step(logits)
    return tuple(names), tuple(stages[name].codes(code_mode) for name in names)


def windowed_mean_avgpool3x3(x):
    """3x3 same-size mean as numpy's mean over a sliding-window view."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    return sliding_window_view(xp, (3, 3), axis=(2, 3)).mean(axis=(-2, -1))


def reshape_mean_avgpool2x2(x):
    """2x2 stride-2 mean as numpy's mean over a reshaped view."""
    s, c, h, w = x.shape
    return x.reshape(s, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def row_major_conv2d_same(x, weights):
    """`conv2d_same` with a row-major (S*H*W, C*kh*kw) im2col operand."""
    out_ch, in_ch, kh, kw = weights.shape
    ph, pw = kh // 2, kw // 2
    s, c, h, w = x.shape
    xp = np.zeros((s, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(s * h * w, in_ch * kh * kw)
    out = cols @ weights.reshape(out_ch, -1).T
    return out.reshape(s, h, w, out_ch).transpose(0, 3, 1, 2)


def _straight_edge(op, x, w):
    label = op.label
    if label == "zeroize":
        return np.zeros_like(x)
    if label == "skipcon":
        return x
    if label == "avgpool3x3":
        return windowed_mean_avgpool3x3(x)
    return conv2d_same(x, w)


def straight_cell_preactivation(cell, x_spikes, weights, prefix):
    """All six edges run one by one, each conv on its own, summed per node."""
    w = lambda edge: weights.get(f"{prefix}.{edge}")
    n1 = _straight_edge(cell.con01, x_spikes, w("con01"))
    n2 = (_straight_edge(cell.con02, x_spikes, w("con02"))
          + _straight_edge(cell.con12, n1, w("con12")))
    return (_straight_edge(cell.con03, x_spikes, w("con03"))
            + _straight_edge(cell.con13, n1, w("con13"))
            + _straight_edge(cell.con23, n2, w("con23")))


def all_pixels(dataset) -> np.ndarray:
    """Every record's uint8 pixels, (n, 3, 32, 32), read the one way the engine reads them."""
    return dataset.records[np.arange(len(dataset))]


def write_cifar10(path, dataset) -> None:
    """Serialize a dataset into the 10-class binary record layout."""
    n = len(dataset)
    out = np.empty((n, RECORD_BYTES_10), dtype=np.uint8)
    out[:, 0] = dataset.labels.astype(np.uint8)
    out[:, 1:] = all_pixels(dataset).reshape(n, -1)
    Path(path).write_bytes(out.tobytes())


def write_cifar100(path, dataset) -> None:
    """Serialize a dataset into the 100-class binary record layout, coarse labels 0."""
    n = len(dataset)
    out = np.zeros((n, RECORD_BYTES_100), dtype=np.uint8)
    out[:, 1] = dataset.labels.astype(np.uint8)
    out[:, 2:] = all_pixels(dataset).reshape(n, -1)
    Path(path).write_bytes(out.tobytes())
