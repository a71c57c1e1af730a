"""In-memory span tracing around the library's layer functions.

A span records (id, name, start, end, parent id, op).  Spans nest through a
per-thread stack; a span opened on a worker thread with an empty stack takes
the harness thread's innermost open span as its parent, which is the call
that handed work to the pool.  A layer's self time is the wall time of its
spans minus the part covered by their child spans, with overlapping
intervals (the same layer busy on two threads) counted once.

Bookkeeping that the tracer itself adds (counting entries of a yielded
array, keying rule builds) runs inside "trace.overhead" spans, so it is
charged to neither the layer nor its caller.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

OVERHEAD = "trace.overhead"


class Tracer:
    """Collects spans and per-op counters; the harness sets `op` before
    each operation it runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return (sid, name, parent, self.op, self.clock())

    def end(self, token):
        t1 = self.clock()
        self._stack().pop()
        sid, name, parent, op, t0 = token
        self.spans.append((sid, name, t0, t1, parent, op))

    def add(self, key, value):
        with self._lock:
            self.counts[(self.op, key)] += value

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        tok = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(tok)

    def wrap(self, name, fn, after=None, on_error=None):
        """fn traced as a span called name (no span when name is None).
        after(args, kwargs, out) and on_error(exc) record counters; both run
        as tracer overhead."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tok = self.begin(name) if name else None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if tok:
                    self.end(tok)
                if on_error is not None:
                    self.call(OVERHEAD, on_error, exc)
                raise
            if tok:
                self.end(tok)
            if after is not None:
                self.call(OVERHEAD, after, args, kwargs, out)
            return out
        return traced

    def wrap_generator(self, name, fn, on_item=None):
        """A generator function whose every next() is a span called name;
        the caller's work between items stays the caller's self time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tok = self.begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end(tok)
                    if on_item is not None:
                        self.call(OVERHEAD, on_item, item)
                    yield item
            finally:
                gen.close()
        return traced


def self_intervals(spans):
    """{span id: [(start, end), ...]} - each span's interval minus the union
    of its children's intervals."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _ in spans:
        free, cursor = [], t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c0 > cursor:
                free.append((cursor, c0))
            cursor = max(cursor, c1)
        if cursor < t1:
            free.append((cursor, t1))
        out[sid] = free
    return out


def union_length(intervals):
    """Total length covered by a set of intervals."""
    total, cur0, cur1 = 0.0, None, None
    for a, b in sorted(intervals):
        if cur1 is None or a > cur1:
            if cur1 is not None:
                total += cur1 - cur0
            cur0, cur1 = a, b
        else:
            cur1 = max(cur1, b)
    if cur1 is not None:
        total += cur1 - cur0
    return total


def self_times(spans, group=lambda op: op):
    """{(group(op), span name): self seconds}."""
    free = self_intervals(spans)
    pieces = defaultdict(list)
    for sid, name, _, _, _, op in spans:
        pieces[(group(op), name)].extend(free[sid])
    return {key: union_length(iv) for key, iv in pieces.items()}


class Patcher:
    """Swaps module and class attributes and puts them back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement, modules):
        """Point every module-level name bound to `original` at
        `replacement`, so callers that imported it by name see the wrapper."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
