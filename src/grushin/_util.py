"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["thread_count", "parallel_map"]


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
