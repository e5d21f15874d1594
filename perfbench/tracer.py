"""Span tracer that wraps the engine's public functions from outside.

Each wrapper replaces a module attribute at the place the engine looks
it up: ``score`` imports ``init_weights`` and ``forward_collect_codes`` by
name, ``search`` imports ``decode_cell``, ``build_network`` and
``count_network_params`` by name and calls ``score_mod.score_candidate``,
and ``snn`` calls its kernels through its own module globals.  A span is
``(id, parent, thread, name, start_ns, end_ns, work)``; ``work`` is a
count computed from argument shapes (conv FLOP, avgpool bytes moved).
Spans stay in memory until ``write`` and each thread keeps its own stack.
Spans opened on a worker thread with an empty stack take the open root
span (the search call) as their parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

F32_BYTES = 4


def conv_flop(x, weights, bias=None) -> int:
    """2 * S * H * W * Cout * Cin * kh * kw for a same-size convolution."""
    s, _, h, w = x.shape
    out_ch, in_ch, kh, kw = weights.shape
    return 2 * s * h * w * out_ch * in_ch * kh * kw


def conv_name(x, weights, bias=None) -> str:
    return f"snn.conv2d_same.k{weights.shape[2]}"


def pool_bytes(x) -> int:
    """Bytes read plus bytes written by a same-size pool over float32 maps."""
    return 2 * x.size * F32_BYTES


# (module, attribute, span name or name function, work function)
TARGETS = (
    ("search", "decode_cell", "arch.decode_cell", None),
    ("search", "build_network", "arch.build_network", None),
    ("search", "count_network_params", "memmodel.count_network_params", None),
    ("score", "score_candidate", "score.score_candidate", None),
    ("score", "init_weights", "snn.init_weights", None),
    ("score", "forward_collect_codes", "snn.forward_collect_codes", None),
    ("score", "hamming_kernel", "score.hamming_kernel", None),
    ("score", "log_abs_det", "score.log_abs_det", None),
    ("snn", "conv2d_same", conv_name, conv_flop),
    ("snn", "avgpool3x3_same", "snn.avgpool3x3_same", pool_bytes),
    ("snn", "avgpool2x2_down", "snn.avgpool2x2_down", None),
    ("snn", "lif_step", "snn.lif_step", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, work=None, root: bool = False):
        """Return `fn` recording one span per call."""
        clock = time.perf_counter_ns
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root or 0)
            span_id = next(ids)
            label = name(*args, **kwargs) if callable(name) else name
            amount = work(*args, **kwargs) if work is not None else 0
            stack.append(span_id)
            if root:
                self._root = span_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if root:
                    self._root = None
                spans.append((span_id, parent, threading.get_ident(), label,
                              start, end, amount))

        return traced

    def install(self, modules: dict) -> None:
        """Patch every target found; record the ones a module lacks."""
        for mod_name, attr, name, work in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write("\t".join(map(str, span)))
                fh.write("\n")


def read_spans(path) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sid, parent, thread, name, start, end, work = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), int(thread), name,
                          int(start), int(end), int(work)))
    return spans
