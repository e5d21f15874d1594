"""The benchmark tracer's targets must name live engine functions.

`perfbench/tracer.py` patches each (module, attribute) in TARGETS and
silently records a missing one, which drops its rows from the per-layer
breakdown; a renamed kernel fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in _targets()])
def test_target_resolves(module, attr):
    engine = importlib.import_module(f"spikenas.{module}")
    assert callable(getattr(engine, attr, None)), f"spikenas.{module}.{attr} is gone"
