"""Small shared helpers, and the one threading policy: the package's worker
threads (parallel_map, GRUSHIN_THREADS) own the cores, and numpy's OpenBLAS
runs on one thread (pin_numpy_blas, called when grushin is imported)."""

from __future__ import annotations

import ctypes
import glob
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["BLOCK", "column_blocks", "real_value", "span_value", "count_value",
           "thread_count", "parallel_map", "pin_numpy_blas"]

# doubles per column block of every table (Laguerre, Bessel J, Hankel
# kernel, diagonal profile): a block's working arrays stay cache-resident
# and a table's memory is bounded per block
BLOCK = 32768


def column_blocks(rows, cols, min_width=1) -> list:
    """Even contiguous slices covering the columns of a (rows, cols) table,
    each about BLOCK doubles and at least min_width columns wide; one slice
    when the table fits in a block."""
    width = max(min_width, BLOCK // max(rows, 1))
    n_blocks = max(1, cols // width)
    edges = [cols * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def real_value(value, name, lower=0.0, closed=False, upper=math.inf):
    """value as a float, or as a float array, after checking that it is
    finite, > lower (>= lower when closed) and <= upper; for an array the
    message names the first bad index."""
    # the bounds' shortest round-trip repr (":g" prints 0.9999999 as "1")
    op = (">= " if closed else "> ") + repr(float(lower)).removesuffix(".0") \
        + ("" if upper == math.inf else " and <= " + repr(float(upper)).removesuffix(".0"))
    if isinstance(value, (float, int)) or np.ndim(value) == 0:
        v = float(value)
        if not ((v >= lower if closed else v > lower) and v <= upper and v < math.inf):
            raise ValueError(f"{name} must be a finite real {op}, got {v}")
        return v
    arr = np.asarray(value, dtype=float)
    ok = np.isfinite(arr) & (arr <= upper)
    ok &= arr >= lower if closed else arr > lower
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name}[{i}] must be a finite real {op}, "
                         f"got {arr.flat[i]}")
    return arr


def span_value(span, name):
    """The ends (lo, hi) of an interval as floats, after checking that both
    are finite and 0 <= lo < hi; the message names name[0] or name[1]."""
    lo, hi = span
    lo = real_value(lo, f"{name}[0]", closed=True)
    return lo, real_value(hi, f"{name}[1]", lo)


def count_value(value, name, least):
    """value as an int, or as an array, after checking that every entry is an
    integer >= least; for an array the message names the first bad index."""
    if isinstance(value, (float, int)) or np.ndim(value) == 0:
        v = float(value)
        if not (v >= least and v.is_integer()):
            raise ValueError(f"{name} must be an integer >= {least}, got {value}")
        return int(v)
    arr = np.asarray(value)
    ok = np.isfinite(arr) & (arr >= least) & (arr == np.floor(arr))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name}[{i}] must be an integer >= {least}, got {arr.flat[i]}")
    return arr


def thread_count() -> int:
    """Parallelism cap from GRUSHIN_THREADS; 0 or unset picks the number of
    cores the process may run on (its CPU affinity), at most 8."""
    raw = os.environ.get("GRUSHIN_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GRUSHIN_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("GRUSHIN_THREADS must be >= 0")
    if n == 0:
        if hasattr(os, "sched_getaffinity"):
            return min(len(os.sched_getaffinity(0)), 8)
        return min(os.cpu_count() or 1, 8)
    return n


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items] on up to thread_count() threads, in item
    order; serial when there is one worker or one item."""
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# numpy's wheels bundle their OpenBLAS here
_NUMPY_LIBS = os.path.dirname(np.__file__) + ".libs"


def _numpy_openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None (another BLAS)."""
    for path in glob.glob(os.path.join(_NUMPY_LIBS, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def pin_numpy_blas() -> None:
    """Set numpy's bundled OpenBLAS to one thread for the whole process; with
    another BLAS do nothing. BLAS threads inside the workers would compete
    for their cores, and their spin after a product slows the elementwise
    work that follows. OpenBLAS's sums depend on its thread count, so a
    caller that raises it again gets values that differ at rounding level
    (2-7e-16 of their max)."""
    lib = _numpy_openblas()
    if lib is not None:
        setter = lib.scipy_openblas_set_num_threads64_
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
