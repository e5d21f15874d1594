"""Training-free, memory-aware architecture search for spiking neural networks."""

__version__ = "0.1.0"

from .arch import (
    CellArch,
    MacroConfig,
    NetworkArch,
    Operation,
    OpSet,
    OPSETS,
    build_network,
    decode_cell,
    encode_cell,
    search_space_size,
)
from .memmodel import MemoryBudget, count_network_params
from .score import ScoreResult, hamming_kernel, network_score, score_candidate
from .search import (
    SearchConfig,
    SearchReport,
    ablate_operation,
    search_memory_aware,
    search_random,
)
from .snn import BinaryCodes, LIFParams, forward_collect_codes, init_weights, lif_step
from .data import load_cifar10, load_cifar100, sample_batch, synth_dataset

__all__ = [
    "__version__",
    "CellArch", "MacroConfig", "NetworkArch", "Operation", "OpSet", "OPSETS",
    "build_network", "decode_cell", "encode_cell", "search_space_size",
    "MemoryBudget", "count_network_params",
    "ScoreResult", "hamming_kernel", "network_score", "score_candidate",
    "SearchConfig", "SearchReport", "ablate_operation",
    "search_memory_aware", "search_random",
    "BinaryCodes", "LIFParams", "forward_collect_codes", "init_weights", "lif_step",
    "load_cifar10", "load_cifar100", "sample_batch", "synth_dataset",
]
