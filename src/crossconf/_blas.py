"""Run-time control of the OpenBLAS thread count.

The library is found among the shared objects already mapped into the
process, as ``threadpoolctl`` does, because an environment variable set after
numpy's import no longer has an effect. Without OpenBLAS (another OS, MKL,
BLIS) the context manager does nothing.
"""

from __future__ import annotations

import contextlib
import functools
import threading


@functools.cache
def _openblas() -> tuple:
    """The loaded OpenBLAS's (get, set) thread-count functions, or ()."""
    import ctypes

    try:
        # surrogateescape keeps every byte of a path, and ctypes encodes it back unchanged
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
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


# Blocks open in this process, and the count the first of them found; both
# are read and written only under the lock.
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextlib.contextmanager
def single_threaded_blas():
    """Hold OpenBLAS to one thread inside the block, then restore its count.

    The count is process-wide, so blocks share it: the first block to enter
    saves the count and sets 1, and the last to leave restores it. Blocks may
    nest and may overlap in several threads.
    """
    global _depth, _saved
    api = _openblas()
    if not api:
        yield
        return
    get, put = api
    with _lock:
        if _depth == 0:
            _saved = get()
            put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                put(_saved)
