"""Run-time control of the OpenBLAS thread count.

The library is found among the shared objects already mapped into the
process, as ``threadpoolctl`` does, because an environment variable set after
numpy's import no longer has an effect. Without OpenBLAS (another OS, MKL,
BLIS) the context manager does nothing.
"""

from __future__ import annotations

import contextlib
import functools


@functools.cache
def _openblas() -> tuple:
    """The loaded OpenBLAS's (get, set) thread-count functions, or ()."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = (line.split(None, 5) for line in fh)
            paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    except OSError:
        return ()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return ()


@contextlib.contextmanager
def single_threaded_blas():
    """Hold OpenBLAS to one thread inside the block, then restore its count.

    The count is process-wide: concurrent blocks in one process share it.
    """
    api = _openblas()
    if not api:
        yield
        return
    get, put = api
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)
