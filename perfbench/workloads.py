"""Workload definitions and their seeded CIFAR-10-format input files.

Every workload is one closed-loop search: a single process runs one
search at a time.  The benchmark's ``--seed`` picks one of ``NUM_INPUTS``
pinned inputs (``seed % NUM_INPUTS``), so every seed maps onto an input
whose candidate records were recorded in ``reference/``.  The input id
seeds the data files and, except where a workload fixes it, the run seed
of the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

NUM_INPUTS = 16

RECORD_BYTES = 1 + 3 * 32 * 32
_CHUNK = 2500  # records generated at a time, bounding generator memory


@dataclass(frozen=True)
class Workload:
    name: str
    opset: str
    cells: int
    files: tuple[int, ...]  # records per data_batch_<i>.bin file
    stem_channels: int = 64
    num_classes: int = 10
    batch_size: int = 16
    timesteps: int = 5
    v_threshold: float = 1.0
    input_coding: str = "direct"
    budget: int | None = None
    jobs: int = 1
    iterations: int | None = None  # set for search_random workloads
    fixed_run_seed: int | None = None
    carryover: str = "best"

    @property
    def strategy(self) -> str:
        return "random" if self.iterations else "memory_aware"

    @property
    def scenario(self) -> str:
        size = self.opset.rstrip("O")
        return f"{self.cells}C{size}O" + ("_M" if self.budget else "")

    def run_seed(self, input_id: int) -> int:
        return input_id if self.fixed_run_seed is None else self.fixed_run_seed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tiny_2c3o_m",
        opset="3O", cells=2, files=(64,),
        stem_channels=4, num_classes=4, batch_size=4, timesteps=2,
        v_threshold=0.2, budget=1652,
    ),
    Workload(
        name="paper_5o_random",
        opset="5O", cells=2, files=(10000,) * 5,
        iterations=12,
        # The draws follow the run seed; pinning it keeps the same twelve
        # architectures (and so the same work) under every input, while
        # the seeded images still change the batch and every score.
        fixed_run_seed=0,
    ),
    Workload(
        name="mid_2c2o_rate_jobs",
        opset="2O", cells=2, files=(10000,),
        stem_channels=16, input_coding="rate", jobs=2,
        # Under "best" carryover phase 2 runs on top of the input's best
        # phase-1 cell, holding 0 to 6 conv3x3 edges, which moved the run
        # time by 2x between inputs; "literal" keeps the same base cell
        # (all conv3x3) under every input.
        carryover="literal",
    ),
)}


def input_id(seed: int) -> int:
    return seed % NUM_INPUTS


def write_inputs(workload: Workload, ident: int, data_dir: Path) -> None:
    """Write the workload's data_batch_<i>.bin files for one input id.

    Records follow the 10-class binary layout: a label byte, then 3072
    channel-major pixel bytes.  Pixels are uniform noise around a
    class-dependent level, so samples differ and spike codes stay
    informative.
    """
    import numpy as np

    data_dir.mkdir(parents=True, exist_ok=True)
    for stale in data_dir.glob("*.bin"):
        stale.unlink()
    for file_no, records in enumerate(workload.files, start=1):
        rng = np.random.default_rng([ident, file_no, len(workload.files)])
        with open(data_dir / f"data_batch_{file_no}.bin", "wb") as fh:
            for start in range(0, records, _CHUNK):
                n = min(_CHUNK, records - start)
                labels = rng.integers(0, 10, size=n, dtype=np.int16)
                level = 64 + 8 * labels
                noise = rng.integers(-64, 65, size=(n, RECORD_BYTES - 1),
                                     dtype=np.int16)
                out = np.empty((n, RECORD_BYTES), dtype=np.uint8)
                out[:, 0] = labels
                out[:, 1:] = np.clip(level[:, None] + noise, 0, 255)
                fh.write(out.tobytes())
