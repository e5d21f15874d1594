"""Byte-for-byte pin of the `score --dump-kernels` text.

A fixed two-stage `BinaryCodes` is dumped with a fractional `alpha`, so
the per-stage `# layer <name> neurons=<n> alpha=<a>` headers, the `repr`
floats of each kernel and the `# sum` block (stage kernels added in stage
order) are all compared with bytes recorded in `kernel_dump_bytes.txt`
next to this file.
"""

import difflib
from pathlib import Path

import numpy as np
import pytest

from spikenas.score import write_kernel_dump
from spikenas.snn import BinaryCodes

EXPECTED = Path(__file__).with_name("kernel_dump_bytes.txt")
ALPHA = 0.3


def _codes() -> BinaryCodes:
    rng = np.random.default_rng(5)
    return {"stem": (rng.random((5, 13)) < 0.5).astype(np.uint8),
            "cell1": (rng.random((5, 40)) < 0.2).astype(np.uint8)}


def test_kernel_dump_bytes_are_pinned(tmp_path):
    path = tmp_path / "kernels.txt"
    write_kernel_dump(path, _codes(), ALPHA)
    got = path.read_bytes().decode("utf-8")
    want = EXPECTED.read_bytes().decode("utf-8")
    if got != want:
        diff = "".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                            "expected", "written", n=2))
        pytest.fail("kernel dump bytes changed:\n" + diff[:4000])
