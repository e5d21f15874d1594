"""The library refuses a bad argument with `SpikeNasError` alone.

`SpikeNasError` subclasses `ValueError`, so callers that catch
`ValueError` keep catching every refusal.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from spikenas.arch import Operation, get_opset
from spikenas.data import sample_batch, synth_dataset
from spikenas.errors import SpikeNasError
from spikenas.memmodel import MemoryBudget
from spikenas.score import hamming_kernel
from spikenas.search import SearchConfig
from spikenas.snn import LIFParams

SRC = Path(__file__).resolve().parent.parent / "src" / "spikenas"


def _builtin_raises(tree: ast.AST, exempt: ast.AST | None = None):
    """(line, name) of each `raise ValueError/TypeError` outside `exempt`."""
    skip = {id(node) for node in ast.walk(exempt)} if exempt else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in skip:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                yield node.lineno, exc.id


def _cast_inner(tree: ast.Module) -> ast.FunctionDef:
    """`cli._cast`'s inner function, whose ValueError `_settings_from_args` catches."""
    outer = next(n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_cast")
    return next(n for n in outer.body if isinstance(n, ast.FunctionDef))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_raises_no_builtin_argument_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = _cast_inner(tree) if path.name == "cli.py" else None
    assert list(_builtin_raises(tree, exempt)) == []


def test_scan_sees_a_builtin_raise():
    tree = ast.parse("def f(x):\n    if x:\n        raise TypeError(x)\n"
                     "    def g():\n        raise ValueError\n")
    assert list(_builtin_raises(tree)) == [(3, "TypeError"), (5, "ValueError")]


def test_cast_inner_holds_the_one_exempt_raise():
    tree = ast.parse((SRC / "cli.py").read_text())
    inner = _cast_inner(tree)
    assert [name for _, name in _builtin_raises(inner)] == ["ValueError"]


@pytest.mark.parametrize("refused", [
    lambda: LIFParams(tau_leak=0.5),
    lambda: MemoryBudget(0),
    lambda: SearchConfig(dataset=synth_dataset(4, 10, seed=0), opset=get_opset("2O"),
                         num_cells=4),
    lambda: get_opset("4O"),
    lambda: Operation.from_label("maxpool"),
    lambda: hamming_kernel(np.zeros(8, dtype=np.uint8)),
    lambda: sample_batch(synth_dataset(4, 10, seed=0), 0, 0),
], ids=["LIFParams", "MemoryBudget", "SearchConfig", "get_opset",
        "Operation.from_label", "hamming_kernel-1d", "sample_batch-0"])
def test_former_value_errors_are_spikenas_errors(refused):
    with pytest.raises(ValueError) as info:
        refused()
    assert info.type is SpikeNasError
