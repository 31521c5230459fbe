"""Worker-count control, order-preserving task mapping and the BLAS thread count.

INTERACTION_LAB_THREADS caps the worker threads of the theory simulator's
per-trial fan-out (0 or unset = one per CPU); interaction estimates run
serially. Trials share no state, carry their own derived seeds and are
reduced in task-index order, so the output is identical for any worker count.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    raw = os.environ.get("INTERACTION_LAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """map() preserving input order, threaded when the cap allows it."""
    workers = min(worker_count(), len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _openblas():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None when absent."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle also searches the libraries it links
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with one OpenBLAS thread, then restore the previous count.

    The matmuls here are small, and a second BLAS thread spins on them
    without shortening them; results are the same at any BLAS thread count.
    Does nothing when numpy's bundled OpenBLAS is not found.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)
