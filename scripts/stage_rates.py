"""Per-stage firing rates of the `paper_5o_random` draws at the paper macro.

Usage (from the repository root):

    python3 scripts/stage_rates.py

Scores the 12 cells that `search_random` draws over 5O at run seed 0 (the
draws of the `paper_5o_random` benchmark workload), each as both cells of
a 2-cell network at the paper macro: 64 stem channels, 32x32 input, batch
16, 5 timesteps, direct coding and the default LIF (tau 2, threshold 1).
The batch is drawn from `synth_dataset(2000, 10, 0)` with batch seed 0,
and each candidate's weights come from its search seed, as in a search.
A stage's firing rate is the share of its (sample, neuron) code bits that
are 1.  Prints, for each stage, the minimum, median and maximum rate over
the draws and how many draws leave the stage silent (no spike at all).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikenas import score  # noqa: E402
from spikenas.arch import FIVE_OPS  # noqa: E402
from spikenas.data import synth_dataset  # noqa: E402
from spikenas.search import SearchConfig, search_random  # noqa: E402

DRAWS = 12


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    rates: dict[str, list[float]] = {}

    def record_rates(*args, **kwargs):
        result = score.score_candidate(*args, **kwargs)
        for name, bits in zip(result.codes.layer_names, result.codes.matrices):
            rates.setdefault(name, []).append(float(bits.mean()))
        return result

    cfg = SearchConfig(dataset=synth_dataset(2000, 10, 0), opset=FIVE_OPS, num_cells=2)
    search_random(cfg, DRAWS, score_fn=record_rates)

    print(f"{'stage':<12}{'min %':>10}{'median %':>10}{'max %':>10}  silent")
    for name, values in rates.items():
        silent = sum(v == 0 for v in values)
        print(f"{name:<12}{100 * min(values):>10.4f}{100 * statistics.median(values):>10.4f}"
              f"{100 * max(values):>10.4f}  {silent}/{len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
