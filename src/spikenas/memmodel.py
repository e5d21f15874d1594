"""Analytical memory-footprint model.

Parameter counting walks `arch.network_layers`, which lists only the
layers that hold parameters: a convolution holds kernel_h * kernel_w *
in_channels * num_filters weights (plus one bias per filter when
enabled) and the fully-connected classifier is the 1x1 special case.
Pooling, skip, zeroize and spiking stages hold nothing, so they are not
listed.  Counts convert to bits and bytes given a bit precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arch
from .arch import NetworkArch
from .errors import SpikeNasError


@dataclass(frozen=True)
class MemoryBudget:
    """Search constraint: maximum parameter count at a given precision."""

    max_params: int
    bit_precision: int = 32

    def __post_init__(self) -> None:
        if not arch.is_int(self.max_params) or self.max_params < 1:
            raise SpikeNasError(f"max_params must be >= 1, got {self.max_params}")
        footprint(self.max_params, self.bit_precision)  # checks the precision


@dataclass(frozen=True)
class MemoryFootprint:
    bits: int
    bytes: int


def count_network_params(net: NetworkArch) -> int:
    """Total parameter count over the network's parameterized layers."""
    return sum(layer.num_params for layer in arch.network_layers(net))


def footprint(n_param: int, bit_precision: int) -> MemoryFootprint:
    """Bits and (rounded-up) bytes of `n_param` parameters; owns the precision check."""
    if not (arch.is_int(bit_precision) and 1 <= bit_precision <= 64):
        raise SpikeNasError(f"bit_precision must be in 1..64, got {bit_precision}")
    bits = n_param * bit_precision
    return MemoryFootprint(bits=bits, bytes=-(-bits // 8))
