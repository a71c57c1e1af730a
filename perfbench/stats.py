"""Latency summaries and per-op failure accounting for the benchmark."""

from __future__ import annotations

import math
import time
from collections import defaultdict
from statistics import median

# a percentile above the median is reported only when at least this many
# samples lie strictly beyond it
MIN_TAIL_SAMPLES = 10
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method), 0 <= q <= 100."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of an empty sequence")
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def latency_summary(values):
    """{"n", "p50", "p<q>"...}: the median, plus each tail percentile that
    has at least MIN_TAIL_SAMPLES samples strictly beyond it."""
    out = {"n": len(values), "p50": median(values)}
    for q in TAIL_PERCENTILES:
        v = percentile(values, q)
        if sum(1 for x in values if x > v) < MIN_TAIL_SAMPLES:
            break
        out[f"p{q:g}"] = v
    return out


class OpLog:
    """Runs ops, times the completed ones and counts the failed ones.

    An op fails when it raises or when its output holds a non-finite value;
    a failed op contributes no latency.  An output of the wrong shape is a
    wrong answer, not a failure: it clears `correct`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.latencies = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.shape_errors = []
        # wall time of every op run, completed or failed
        self.busy = 0.0

    def run(self, kind, fn, check):
        """Call fn(); check(output) returns "ok", "nonfinite" or a shape
        complaint.  Returns the output, or None when the op failed."""
        self.attempted += 1
        t0 = self.clock()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted, not fatal
            self.busy += self.clock() - t0
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        dt = self.clock() - t0
        self.busy += dt
        verdict = check(out)
        if verdict == "nonfinite":
            self._fail(kind, "non-finite output")
            return None
        if verdict != "ok":
            self.shape_errors.append((kind, verdict))
        self.latencies[kind].append(dt)
        return out

    def _fail(self, kind, reason):
        self.failed += 1
        self.failures.append({"op": kind, "reason": reason})

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_frac(self):
        return 1.0 - self.failed_frac
