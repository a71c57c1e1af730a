"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from layers import per_layer_metrics  # noqa: E402
from stats import OpLog, latency_summary, percentile  # noqa: E402
from tracing import (OVERHEAD, Patcher, Tracer, self_intervals,  # noqa: E402
                     self_times, union_length)


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ------------------------------------------------------------ percentiles

def test_percentile_matches_linear_interpolation():
    vals = [float(v) for v in range(1, 101)]
    assert percentile(vals, 50) == pytest.approx(50.5)
    assert percentile(vals, 90) == pytest.approx(90.1)
    assert percentile(vals, 100) == 100.0


def test_tail_needs_ten_samples_beyond_it():
    few = latency_summary([float(v) for v in range(1, 92)])
    assert few == {"n": 91, "p50": 46.0}      # only 9 samples lie above p90
    enough = latency_summary([float(v) for v in range(1, 101)])
    assert enough["n"] == 100
    assert enough["p90"] == pytest.approx(90.1)
    assert sum(v > enough["p90"] for v in range(1, 101)) == 10
    assert "p99" not in enough


def test_higher_tails_follow_the_same_rule():
    summary = latency_summary([float(v) for v in range(1, 1001)])
    assert summary["p99"] == pytest.approx(990.01)
    assert "p99.9" not in summary


def test_ties_do_not_count_as_beyond():
    assert latency_summary([1.0] * 500) == {"n": 500, "p50": 1.0}


# ------------------------------------------------------------ failures

def test_failure_accounting():
    log = OpLog()

    def boom():
        raise RuntimeError("no rule")

    assert log.run("a", lambda: 1.0, lambda out: "ok") == 1.0
    assert log.run("a", boom, lambda out: "ok") is None
    assert log.run("b", lambda: math.nan, lambda out: "nonfinite") is None
    assert log.run("b", lambda: [1.0], lambda out: "shape (1,), expected ()") == [1.0]
    assert (log.attempted, log.failed) == (4, 2)
    assert log.failed_frac == 0.5 and log.ok_frac == 0.5
    assert [f["op"] for f in log.failures] == ["a", "b"]
    assert "RuntimeError: no rule" in log.failures[0]["reason"]
    assert log.shape_errors == [("b", "shape (1,), expected ()")]
    # latencies hold completed ops only, the wrong-shaped one included
    assert len(log.latencies["a"]) == 1 and len(log.latencies["b"]) == 1


def test_busy_time_includes_failed_ops():
    clock = ManualClock()
    log = OpLog(clock=clock)

    def slow_failure():
        clock.t += 2.0
        raise ValueError("bad")

    def slow_success():
        clock.t += 3.0
        return 1.0

    log.run("x", slow_failure, lambda out: "ok")
    log.run("x", slow_success, lambda out: "ok")
    assert log.busy == 5.0
    assert log.latencies["x"] == [3.0]


# ------------------------------------------------------------ self time

def span(sid, name, t0, t1, parent=None, op=(0, "op")):
    return (sid, name, t0, t1, parent, op)


def test_self_time_of_nested_spans():
    spans = [span(0, "root", 0.0, 10.0),
             span(1, "a", 1.0, 4.0, parent=0),
             span(2, "leaf", 2.0, 3.0, parent=1),
             span(3, "b", 5.0, 6.0, parent=0)]
    free = self_intervals(spans)
    assert free[0] == [(0.0, 1.0), (4.0, 5.0), (6.0, 10.0)]
    assert free[1] == [(1.0, 2.0), (3.0, 4.0)]
    times = self_times(spans, group=lambda op: op[0])
    assert times == {(0, "root"): 6.0, (0, "a"): 2.0, (0, "leaf"): 1.0, (0, "b"): 1.0}
    assert sum(times.values()) == 10.0


def test_concurrent_children_count_once():
    # two worker threads inside the same layer at once
    spans = [span(0, "apply", 0.0, 10.0),
             span(1, "ive", 2.0, 6.0, parent=0),
             span(2, "ive", 4.0, 8.0, parent=0)]
    times = self_times(spans)
    assert times[((0, "op"), "apply")] == 4.0
    assert times[((0, "op"), "ive")] == 6.0


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0


def test_spans_nest_and_record_op():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    tracer.op = (0, "k")

    def inner():
        clock.t += 2.0

    def outer():
        clock.t += 1.0
        tracer.call("inner", inner)
        clock.t += 1.0

    tracer.call("outer", outer)
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][5] == (0, "k")
    assert self_times(tracer.spans, group=lambda op: op[0]) == {
        (0, "outer"): 2.0, (0, "inner"): 2.0}


def test_worker_thread_spans_attach_to_the_open_harness_span():
    tracer = Tracer()

    def work():
        tracer.call("ive", lambda: None)

    def apply():
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.call("apply", apply)
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["ive"][4] == by_name["apply"][0]


def test_errors_close_the_span_and_reach_the_counter():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    wrapped = tracer.wrap("layer", fail, on_error=lambda exc: tracer.add("errors", 1))
    with pytest.raises(KeyError):
        wrapped()
    assert [s[1] for s in tracer.spans] == ["layer", OVERHEAD]
    assert tracer.counts[(None, "errors")] == 1
    assert tracer.call("after", lambda: 7) == 7   # the stack was unwound


# ------------------------------------------------------------ generators

def test_generator_is_timed_per_next_and_consumer_keeps_its_time():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def seq(n):
        clock.t += 5.0          # set-up before the first item
        for i in range(n):
            clock.t += 1.0
            yield i

    traced_seq = tracer.wrap_generator("seq", seq, on_item=lambda item: setattr(
        clock, "t", clock.t + 100.0))

    def consumer():
        total = 0
        for item in traced_seq(3):
            clock.t += 10.0
            total += item
        return total

    assert tracer.call("consumer", consumer) == 3
    seq_spans = [s for s in tracer.spans if s[1] == "seq"]
    assert [s[3] - s[2] for s in seq_spans] == [6.0, 1.0, 1.0, 0.0]   # last: StopIteration
    consumer_id = next(s[0] for s in tracer.spans if s[1] == "consumer")
    assert all(s[4] == consumer_id for s in seq_spans)
    times = self_times(tracer.spans)
    assert times[(None, "seq")] == 8.0
    assert times[(None, "consumer")] == 30.0
    assert times[(None, OVERHEAD)] == 300.0


def test_abandoned_generator_is_closed():
    closed = []

    def seq():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    tracer = Tracer()
    gen = tracer.wrap_generator("seq", seq)()
    assert next(gen) == 1
    gen.close()
    assert closed == [True]
    assert len(tracer.spans) == 1


# ------------------------------------------------------------ aggregation

def test_per_layer_metrics_take_per_pass_medians():
    tracer = Tracer()
    for p, (busy, values) in enumerate([(2.0, 1000), (4.0, 1000), (3.0, 1000)]):
        tracer.spans.append(span(10 * p, "specfun.jv", 0.0, busy, op=(p, "x")))
        tracer.op = (p, "x")
        tracer.add("specfun.jv.values", values / 2)
        tracer.op = (p, "y")                   # another op of the same pass
        tracer.add("specfun.jv.values", values / 2)
    tracer.op = ("edge", "probe")
    tracer.add("quadrature.rule.errors", 3)
    m = per_layer_metrics(tracer, self_times(tracer.spans, group=lambda op: op[0]), 3)
    assert m["specfun.jv.s"] == {"value": 3.0, "unit": "s"}
    assert m["specfun.jv.values"]["value"] == 1000.0
    assert m["specfun.jv.ns_per_value"]["value"] == pytest.approx(3e6)
    assert m["specfun.ive.ns_per_value"]["value"] == 0.0
    assert m["quadrature.rule.errors"]["value"] == 3.0


def test_patcher_restores_every_binding():
    import types

    def original():
        return "orig"

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f = original
    b.g = original
    patcher = Patcher()
    patcher.replace_everywhere(original, lambda: "new", [a, b])
    assert a.f() == b.g() == "new"
    patcher.restore()
    assert a.f is original and b.g is original
