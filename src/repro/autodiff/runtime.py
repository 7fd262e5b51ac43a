"""Process-level runtime tuning for the training/inference hot path.

The transformer hot path allocates and frees many multi-megabyte
scratch arrays per batch (attention scores and their gradients).  With
glibc's default ``M_MMAP_THRESHOLD``, each of those allocations is
served by ``mmap`` and returned to the kernel on free, so every batch
pays the page-fault + zero-fill cost again.  Raising the mmap and trim
thresholds keeps the buffers on the heap free-list, where they are
recycled across batches — on the profiled trainer this is worth ~1.5x
wall-clock by itself.

:func:`large_alloc_reuse` scopes the tuning with ``mallopt`` and
restores glibc defaults on exit, so reference-path measurements taken
outside the context see the untouched allocator.  On platforms without
glibc ``mallopt`` the context is a documented no-op.

The model's GEMMs are tiny (``d_model`` 32, ``head_dim`` 8, so the
attention score products have K=8), and splitting one across OpenBLAS
threads costs more in thread hand-off than it gains.
:func:`blas_threads` scopes numpy's bundled OpenBLAS to ``n`` threads
through its exported ``get``/``set`` controls and restores the previous
count on exit.  OpenBLAS does not promise the same rounding at every
thread count (the float64 score product differs in the last bits
between 1 and 2 threads on x86-64), so every optimized path enters the
same cap and its outputs do not depend on the ambient count.  Without
the bundled library or its symbols the context is a no-op and
:func:`blas_threads_unavailable` says why.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import functools
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import repro.obs as obs

# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# glibc's static defaults (dynamic adjustment stops once set explicitly,
# so "restore" means these, not the pre-context dynamic state).
_DEFAULT_TRIM = 128 * 1024
_DEFAULT_MMAP = 128 * 1024

# Large enough that every autodiff scratch buffer stays on the heap.
_TUNED_BYTES = 256 * 1024 * 1024


def _mallopt():
    """The libc ``mallopt`` symbol, or None when unavailable."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        fn = libc.mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


@contextlib.contextmanager
def large_alloc_reuse():
    """Keep multi-MB numpy buffers on the heap free-list while active.

    Safe to nest; a no-op on non-glibc platforms.
    """
    mallopt = _mallopt()
    if mallopt is None:
        yield False
        return
    mallopt(_M_MMAP_THRESHOLD, _TUNED_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TUNED_BYTES)
    try:
        yield True
    finally:
        mallopt(_M_MMAP_THRESHOLD, _DEFAULT_MMAP)
        mallopt(_M_TRIM_THRESHOLD, _DEFAULT_TRIM)


# numpy wheels bundle OpenBLAS under ``numpy.libs`` with prefixed,
# ILP64-suffixed symbols.
_OPENBLAS_GLOB = "libscipy_openblas*.so*"
_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"

#: Whether this process's run header carries the BLAS cap's state yet
#: (forked workers inherit the flag, so they never stamp again).
_HEADER_STAMPED = False


class _BlasControl(NamedTuple):
    get: Optional[Callable[[], int]]
    set: Optional[Callable[[int], None]]
    #: Why the controls are missing; None when they were found.
    reason: Optional[str]


@functools.lru_cache(maxsize=1)
def _openblas() -> _BlasControl:
    """numpy's OpenBLAS thread controls, looked up once per process."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob(_OPENBLAS_GLOB))
    if not found:
        return _BlasControl(None, None, f"no bundled OpenBLAS under {libs}")
    try:
        # numpy has already loaded this file, so dlopen hands back the
        # same instance numpy's GEMMs run on.
        lib = ctypes.CDLL(str(found[0]))
        get = getattr(lib, _GET_THREADS)
        set_ = getattr(lib, _SET_THREADS)
    except (OSError, AttributeError) as error:
        return _BlasControl(None, None, f"{found[0].name}: {error}")
    get.argtypes = ()
    get.restype = ctypes.c_int
    set_.argtypes = (ctypes.c_int,)
    set_.restype = None
    return _BlasControl(get, set_, None)


def blas_threads_unavailable() -> Optional[str]:
    """Why :func:`blas_threads` is a no-op in this process, or None."""
    return _openblas().reason


def _stamp_header(n: int, reason: Optional[str]) -> None:
    """Record the cap's state in the run header, once per process."""
    global _HEADER_STAMPED
    if _HEADER_STAMPED or not obs.enabled():
        return
    _HEADER_STAMPED = True
    if reason is None:
        obs.annotate(blas_threads=n)
    else:
        obs.annotate(blas_threads_unavailable=reason)


@contextlib.contextmanager
def blas_threads(n: int):
    """Run numpy's OpenBLAS on ``n`` threads while active.

    Restores the previous count on exit, also on an exception; safe to
    nest.  Yields False and changes nothing when the controls are absent
    (see :func:`blas_threads_unavailable`).
    """
    control = _openblas()
    _stamp_header(n, control.reason)
    if control.reason is not None:
        yield False
        return
    previous = control.get()
    control.set(n)
    try:
        yield True
    finally:
        control.set(previous)
