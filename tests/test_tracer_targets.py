"""The benchmark's engine contract: names the harness reads must exist.

`perfbench/tracer.py` patches each (module, attribute) in TARGETS and
silently records a missing one, which drops its rows from the per-layer
breakdown; a renamed kernel fails here instead.  `perfbench/worker.py`
imports the engine and calls it by name, so a renamed or dropped
function, setting or keyword fails here too, rather than as a failed
benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in _targets()])
def test_target_resolves(module, attr):
    engine = importlib.import_module(f"spikenas.{module}")
    assert callable(getattr(engine, attr, None)), f"spikenas.{module}.{attr} is gone"


def _worker_engine_uses():
    """Engine names `worker.py` reads, and the keywords of each call to one.

    Returns ({"module.attr"}, {"module.attr": keyword names}).  A name is
    an attribute of a module imported `from spikenas import ...` or a name
    imported `from spikenas.<module> import ...`.
    """
    tree = ast.parse(WORKER.read_text())
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "spikenas":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("spikenas."):
            module = node.module.removeprefix("spikenas.")
            names.update((a.asname or a.name, f"{module}.{a.name}") for a in node.names)

    def key(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute) and getattr(expr.value, "id", None) in modules:
            return f"{expr.value.id}.{expr.attr}"
        return None

    reads = {key(node) for node in ast.walk(tree)} - {None}
    keywords: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and key(node.func):
            keywords.setdefault(key(node.func), set()).update(
                kw.arg for kw in node.keywords if kw.arg)
    return reads, keywords


def _resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"spikenas.{module}"), attr, None)


WORKER_READS, WORKER_KEYWORDS = _worker_engine_uses()


def test_worker_reads_the_engine():
    # the parse found the imports: a vacuous pass would guard nothing
    assert {"search.SearchConfig", "data.load_dataset",
            "report.write_report", "arch.MacroConfig"} <= WORKER_READS


@pytest.mark.parametrize("name", sorted(WORKER_READS))
def test_worker_name_exists(name):
    assert _resolve(name) is not None, f"perfbench/worker.py reads {name}, which is gone"


@pytest.mark.parametrize("name", sorted(n for n, kws in WORKER_KEYWORDS.items() if kws))
def test_worker_keywords_are_parameters(name):
    params = inspect.signature(_resolve(name)).parameters
    unknown = sorted(WORKER_KEYWORDS[name] - set(params))
    assert not unknown, f"perfbench/worker.py passes {name} unknown keyword(s) {unknown}"
