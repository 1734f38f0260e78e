"""Dense products on one BLAS thread that this package owns.

OpenBLAS hands a complex matrix product of more than 2**16 multiply-adds to
its worker threads.  For the matrices of this package the hand-off costs
more than it saves, and where the CPUs are shared a worker's wake-up can
take milliseconds, so the time of a run would follow the load of the
machine.  one_thread() caps the library at one thread while a product runs,
through the thread-count setter that OpenBLAS exports, and restores the
previous count afterwards.  Every product then runs whole on the calling
thread, and its bits do not depend on the thread count the process was
started with.

Where numpy's BLAS exports no such setter (another BLAS library), the
products run on that library's own threads.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

import numpy as np

# (setter, getter) of the thread count: numpy's bundled OpenBLAS (64-bit and
# 32-bit integer builds, older wheels) and a system OpenBLAS
_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _thread_count_functions():
    """The (setter, getter) of the BLAS that numpy calls, or None where it exports neither.

    The symbols are looked up through numpy's own extension module, which
    resolves them in the libraries it was linked with.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in _THREAD_SYMBOLS:
        setter, getter = getattr(library, set_name, None), getattr(library, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


_lock = threading.Lock()
_depth = 0  # users inside one_thread(), over all threads
_saved = 1  # the count to restore when the last user leaves


@contextmanager
def one_thread():
    """Cap BLAS at one thread for the duration of the block.

    The count is global to the process, so concurrent and nested users share
    one cap: the first to enter saves the previous count and the last to
    leave restores it, also when the block raises.
    """
    global _depth, _saved
    functions = _thread_count_functions()
    if functions is None:
        yield
        return
    setter, getter = functions
    with _lock:
        if _depth == 0:
            _saved = getter()
            if _saved != 1:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                setter(_saved)


def row_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for 2-D arrays, as one BLAS call on one thread."""
    with one_thread():
        return np.matmul(left, right)


def identity_residual(left: np.ndarray, right: np.ndarray) -> float:
    """max |left @ right - I| for a square product, formed by row_product."""
    product = row_product(left, right)
    product[np.diag_indices_from(product)] -= 1.0
    return float(np.max(np.abs(product)))
