"""Small shared helpers."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["BLOCK", "column_blocks", "real_value", "count_value", "thread_count",
           "parallel_map"]

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


def real_value(value, name, lower=0.0, closed=False):
    """value as a float, or as a float array, after checking that it is
    finite and > lower (>= lower when closed); for an array the message
    names the first bad index."""
    op = ">=" if closed else ">"
    if isinstance(value, (float, int)) or np.ndim(value) == 0:
        v = float(value)
        if not ((v >= lower if closed else v > lower) and v < math.inf):
            raise ValueError(f"{name} must be a finite real {op} {lower:g}, got {v}")
        return v
    arr = np.asarray(value, dtype=float)
    ok = np.isfinite(arr)
    ok &= arr >= lower if closed else arr > lower
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name}[{i}] must be a finite real {op} {lower:g}, "
                         f"got {arr.flat[i]}")
    return arr


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
    """Parallelism cap from GRUSHIN_THREADS (0 or unset = automatic)."""
    raw = os.environ.get("GRUSHIN_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GRUSHIN_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("GRUSHIN_THREADS must be >= 0")
    if n == 0:
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
