"""One OpenBLAS thread per search worker, and for small serial searches.

OpenBLAS starts its own thread team for every large GEMM.  Those teams
compete with a pool's worker threads, and a serial search whose GEMMs
are too small to split gains no speed from them.  `single_blas_thread`
sets the process-wide OpenBLAS thread count to 1 around each pool and
around a serial search below `search.SPLIT_MACS`, and restores the
previous count afterwards.  The count is global, not per thread
(`openblas_set_num_threads_local` also changes it for every thread in
this build), so it is set around the pool, not inside each worker.

The library is the OpenBLAS that numpy has already loaded; it is found
through the process's memory map on first use, so importing this module
loads nothing.  Without it (another BLAS, or no `/proc`), the search runs
with BLAS threading left as it is.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

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
