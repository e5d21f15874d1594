"""One way onto the cores: `thread_map`, each thread on one OpenBLAS thread.

OpenBLAS starts a thread team for every large GEMM, which would compete
with a search's workers and a forward pass's tile threads.  So this module
owns the thread plan: `thread_map` is the one place that starts threads,
on at most `free_cores()` of them (one on its own workers, so a nested map
runs inline), and it holds `single_blas_thread` (OpenBLAS count 1,
restored at exit) inline or pooled.  The count is process-wide
(`openblas_set_num_threads_local` also changes it for every thread in this
build), so it is set around threads.  The library is the OpenBLAS numpy
has loaded, found through the process's memory map on first use; without
it (another BLAS, or no `/proc`), BLAS threading is left as it is.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

# (get, set) symbol pairs: numpy's scipy-openblas wheels, then 64-bit and
# plain OpenBLAS builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
MAPS = "/proc/self/maps"

Controls = tuple[Callable[[], int], Callable[[int], None]]

_lock = threading.Lock()
_depth = 0
_saved = 0
_worker = threading.local()  # `pooled` is set on thread_map's workers


@functools.cache
def openblas_controls() -> Controls | None:
    """The loaded OpenBLAS's (get, set) thread-count functions, or None.

    Looked up once per process.
    """
    try:
        with open(MAPS, encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = {f[5].strip() for f in fields
             if len(f) == 6 and "openblas" in f[5].lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with one OpenBLAS thread, then restore the count.

    Nested and concurrent uses share one pin: the first to enter saves
    the count and the last to leave restores it.
    """
    global _depth, _saved
    controls = openblas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)


def free_cores() -> int:
    """The threads a caller may fill: 1 on a `thread_map` worker, else the
    CPUs in the affinity mask (so `taskset` is respected), else the machine's."""
    if getattr(_worker, "pooled", False):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn: Callable[[Any], Any], items: Sequence, workers: int) -> list:
    """`[fn(x) for x in items]` inside `single_blas_thread`, on
    min(workers, len(items), free_cores()) pooled threads, or inline if one."""
    workers = min(workers, len(items), free_cores())
    with single_blas_thread():
        if workers <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(workers, initializer=setattr,
                                initargs=(_worker, "pooled", True)) as pool:
            return list(pool.map(fn, items))
