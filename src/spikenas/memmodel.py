"""Analytical memory-footprint model.

Parameter counting is per layer, from `arch.LayerSpec.weight_shape`: a
convolution holds kernel_h * kernel_w * in_channels * num_filters
weights (plus one bias per filter when enabled), a fully-connected
layer is the 1x1 special case, and pooling / skip / zeroize / spiking
stages hold nothing.  Counts convert to bits and bytes given a bit
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arch
from .arch import NetworkArch


@dataclass(frozen=True)
class MemoryBudget:
    """Search constraint: maximum parameter count at a given precision."""

    max_params: int
    bit_precision: int = 32

    def __post_init__(self) -> None:
        if self.max_params < 1:
            raise ValueError(f"max_params must be >= 1, got {self.max_params}")
        if not 1 <= self.bit_precision <= 64:
            raise ValueError(f"bit_precision must be in 1..64, got {self.bit_precision}")


@dataclass(frozen=True)
class MemoryFootprint:
    bits: int
    bytes: int


def count_network_params(net: NetworkArch) -> int:
    """Total parameter count over the network's flattened layer list."""
    return sum(layer.num_params for layer in arch.network_layers(net))


def footprint(n_param: int, bit_precision: int) -> MemoryFootprint:
    """Bits and (rounded-up) bytes held by `n_param` parameters."""
    bits = n_param * bit_precision
    return MemoryFootprint(bits=bits, bytes=math.ceil(bits / 8))


def memory_cost(n_param: int, budget: MemoryBudget) -> MemoryFootprint:
    """Footprint of `n_param` parameters at the budget's bit precision."""
    return footprint(n_param, budget.bit_precision)


def within_budget(n_param: int, budget: MemoryBudget | None) -> bool:
    return budget is None or n_param <= budget.max_params
