"""Training-free architecture score.

For each spiking stage, the pairwise Hamming distances between the
samples' firing codes form a kernel matrix whose (i, j) entry is
``neurons - alpha * hamming(f_i, f_j)``.  The architecture score is the
log of the absolute determinant of the sum of these kernels; a batch
whose codes are indistinguishable yields a singular sum and the score
collapses to the -inf sentinel, which loses against any finite score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import NetworkArch
from .errors import SpikeNasError
from .snn import BinaryCodes, LIFParams, forward_collect_codes, init_weights

NEG_INF = float("-inf")

# A pivot below this fraction of the max row norm marks the matrix singular.
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class ScoreResult:
    """Score value and the per-stage codes it came from."""

    value: float
    codes: BinaryCodes | None = None

    @property
    def singular(self) -> bool:
        return self.value == NEG_INF


def hamming_kernel(codes: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Kernel matrix of one bit matrix (samples x neurons).

    Distances are computed on bit-packed rows with a popcount; the
    diagonal is exactly the neuron count.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise SpikeNasError(f"expected a 2-D bit matrix, got shape {codes.shape}")
    num_samples, num_neurons = codes.shape
    if num_samples < 2:
        raise SpikeNasError(f"need >= 2 samples for pairwise distances, got {num_samples}")
    if num_neurons < 1:
        raise SpikeNasError("bit matrix must have at least one neuron column")
    if not codes.any():  # every distance is 0: skip the pack, XOR and popcount
        return np.full((num_samples,) * 2, num_neurons - alpha * 0.0, dtype=np.float64)
    packed = np.packbits(codes.astype(np.uint8, copy=False), axis=1)
    xored = packed[:, None, :] ^ packed[None, :, :]
    distances = np.bitwise_count(xored).sum(axis=2, dtype=np.int64)
    return num_neurons - alpha * distances.astype(np.float64)


def log_abs_det(matrix: np.ndarray) -> float:
    """log|det| by partially pivoted triangular elimination.

    Returns NEG_INF, the singular sentinel, when any pivot magnitude drops
    to PIVOT_RTOL times the max row norm of the input.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    row_norm = np.abs(a).sum(axis=1).max() if n else 0.0
    tol = PIVOT_RTOL * row_norm
    total = 0.0
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = abs(a[pivot_row, k])
        if pivot <= tol:
            return NEG_INF
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
        total += math.log(pivot)
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return total


def _kernels(all_codes: BinaryCodes,
             alpha: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Each stage's kernel, and their sum in stage order."""
    if not all_codes:
        raise SpikeNasError("at least one layer of codes required")
    counts = {bits.shape[0] for bits in all_codes.values()}
    if len(counts) != 1:
        raise SpikeNasError(f"inconsistent sample counts across layers: {counts}")
    kernels = [hamming_kernel(bits, alpha) for bits in all_codes.values()]
    return kernels, sum(kernels[1:], kernels[0])


def network_score(all_codes: BinaryCodes, alpha: float = 1.0) -> ScoreResult:
    """Score from per-stage codes: log|det| of the summed kernels."""
    return ScoreResult(log_abs_det(_kernels(all_codes, alpha)[1]), all_codes)


def score_candidate(net: NetworkArch, batch: np.ndarray, lif: LIFParams,
                    seed: int, alpha: float = 1.0, *, code_mode: str = "any",
                    input_coding: str = "direct") -> ScoreResult:
    """Initialize, simulate, and score one candidate network."""
    weights = init_weights(net, seed)
    codes = forward_collect_codes(net, weights, batch, lif, code_mode=code_mode,
                                  input_coding=input_coding, coding_seed=seed)
    return network_score(codes, alpha)


def write_kernel_dump(path, codes: BinaryCodes, alpha: float) -> None:
    """Write each stage's kernel and their sum as space-separated matrices."""
    kernels, total = _kernels(codes, alpha)
    with open(path, "w", encoding="utf-8") as fh:
        for (name, bits), kernel in zip(codes.items(), kernels):
            fh.write(f"# layer {name} neurons={bits.shape[1]} alpha={alpha}\n")
            _write_matrix(fh, kernel)
        fh.write("# sum\n")
        _write_matrix(fh, total)


def _write_matrix(fh, matrix: np.ndarray) -> None:
    for row in matrix:
        fh.write(" ".join(repr(float(v)) for v in row))
        fh.write("\n")
