"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["BLOCK", "column_blocks", "thread_count", "parallel_map"]

# doubles per column block of every table (Laguerre, Bessel J, Hankel
# kernel, diagonal profile): a block's working arrays stay cache-resident
# and a table's memory is bounded per block
BLOCK = 32768


def column_blocks(rows, cols, min_width=1, block=None) -> list:
    """Even contiguous slices covering the columns of a (rows, cols) table,
    each about `block` doubles (default BLOCK) and at least min_width
    columns wide; one slice when the table fits in a block."""
    block = BLOCK if block is None else block
    width = max(min_width, block // max(rows, 1))
    n_blocks = max(1, cols // width)
    edges = [cols * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


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
