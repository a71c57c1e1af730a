"""Which library functions make up each layer, and the per-layer metrics.

Layers are the library's modules.  `instrument` wraps their public entry
points (and the scipy Bessel ufuncs the modules call) with tracer spans and
counters; `per_layer_metrics` turns one traced run into the metrics named in
BENCHMARK.json.  Every time metric is self time: the layer's spans minus the
traced calls made inside them.
"""

from __future__ import annotations

import sys
import time
from statistics import median

import numpy as np
import scipy.special

# tiny_frac counts yielded Laguerre entries below this share of the order's max
TINY_REL = 1e-16
# jv arguments at or beyond this count toward large_arg_frac
LARGE_ARG = 30.0


def instrument(tracer, patcher):
    """Wrap the layer entry points in every loaded grushin module."""
    from grushin import cli, gtransform, hankel, heat, io, quadrature, specfun

    modules = [m for name, m in sys.modules.items()
               if name == "grushin" or name.startswith("grushin.")]

    def swap(original, replacement):
        patcher.replace_everywhere(original, replacement, modules)

    # io: the text formats
    swap(io.read_grid, tracer.wrap(
        "io.read_grid", io.read_grid,
        after=lambda a, k, out: tracer.add("io.read_grid.rows", out[0].values.size)))
    swap(io.write_spectral, tracer.wrap("io.write_spectral", io.write_spectral))
    swap(io.read_spectral, tracer.wrap("io.read_spectral", io.read_spectral))

    # cli: argument handling and the cubic input interpolation
    swap(cli.main, tracer.wrap("cli.main", cli.main))
    rgi = cli.RegularGridInterpolator

    def traced_interpolator(*args, **kwargs):
        interp = tracer.call("cli.interp", rgi, *args, **kwargs)

        def evaluate(xi, *a, **kw):
            out = tracer.call("cli.interp", interp, xi, *a, **kw)
            tracer.add("cli.interp.points", np.size(xi) // np.shape(xi)[-1])
            return out
        return evaluate
    patcher.set(cli, "RegularGridInterpolator", traced_interpolator)

    # quadrature: rule construction
    def rule_counts(fn_name):
        seen = set()

        def after(args, kwargs, rule):
            key = (tracer.op[0] if tracer.op else None, fn_name,
                   repr(args), repr(sorted(kwargs.items())))
            tracer.add("quadrature.rule.calls", 1)
            tracer.add("quadrature.rule.nodes", len(rule))
            tracer.add("quadrature.rule.repeats", key in seen)
            seen.add(key)
        return after

    def rule_error(exc):
        if isinstance(exc, quadrature.QuadratureError):
            tracer.add("quadrature.rule.errors", 1)

    for fn in (quadrature.build_rule, quadrature.build_finite_rule):
        swap(fn, tracer.wrap("quadrature.rule", fn, after=rule_counts(fn.__name__),
                             on_error=rule_error))

    # specfun: the Laguerre recurrence and the Bessel tables
    def laguerre_item(q):
        tracer.add("specfun.laguerre_seq.elem_orders", q.size)
        if q.size:
            mag = np.abs(q)
            tracer.add("specfun.laguerre_seq.tiny",
                       np.count_nonzero(mag < TINY_REL * mag.max()))
    swap(specfun.laguerre_fn_seq, tracer.wrap_generator(
        "specfun.laguerre_seq", specfun.laguerre_fn_seq, on_item=laguerre_item))

    def jv_counts(args, kwargs, out):
        nu, x = args
        shape = np.shape(out)
        tracer.add("specfun.jv.values", np.size(out))
        tracer.add("specfun.jv.large_arg",
                   np.count_nonzero(np.broadcast_to(np.asarray(x) >= LARGE_ARG, shape)))
        tracer.add("specfun.jv.half_order",
                   np.count_nonzero(np.broadcast_to(np.abs(nu) == 0.5, shape)))
    swap(scipy.special.jv, tracer.wrap("specfun.jv", scipy.special.jv, after=jv_counts))
    swap(scipy.special.ive, tracer.wrap(
        "specfun.ive", scipy.special.ive,
        after=lambda a, k, out: tracer.add("specfun.ive.values", np.size(out))))

    # hankel: the s-rule
    swap(hankel.rule_for_function,
         tracer.wrap("hankel.rule_for_function", hankel.rule_for_function))

    # gtransform: transforms, their contractions and the evaluation of f
    swap(gtransform.g_forward, tracer.wrap("gtransform.g_forward", gtransform.g_forward))
    swap(gtransform.g_inverse, tracer.wrap("gtransform.g_inverse", gtransform.g_inverse))
    patcher.set(gtransform.PlaneFunction, "__call__", tracer.wrap(
        "gtransform.f_eval", gtransform.PlaneFunction.__call__))

    # heat: kernel values and heat_apply
    def apply_timing(fn):
        def timed(*args, **kwargs):
            c0, w0 = time.process_time(), tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add("heat.heat_apply.cpu_s", time.process_time() - c0)
                tracer.add("heat.heat_apply.wall_s", tracer.clock() - w0)
        return timed
    swap(heat.heat_apply, tracer.wrap("heat.heat_apply", apply_timing(heat.heat_apply)))
    swap(heat.heat_kernel, tracer.wrap("heat.heat_kernel", heat.heat_kernel))
    swap(heat.kernel_tau_rule, tracer.wrap(
        None, heat.kernel_tau_rule,
        after=lambda a, k, rule: tracer.add("heat.kernel_tau_rule.nodes", len(rule))))
    # the (K, n_u) kernel-core tensor that every r group of heat_apply builds
    swap(heat._kernel_route, tracer.wrap(
        None, heat._kernel_route,
        after=lambda a, k, out: tracer.add(
            "heat.heat_apply.tensor_bytes", len(a[5]) * len(a[2]) * 8)))


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, per-pass value from self times T and counters C)
PER_LAYER = {
    "io.read_grid.s": ("s", lambda T, C: T["io.read_grid"]),
    "io.read_grid.rows": ("count", lambda T, C: C["io.read_grid.rows"]),
    "io.write_spectral.s": ("s", lambda T, C: T["io.write_spectral"]),
    "io.read_spectral.s": ("s", lambda T, C: T["io.read_spectral"]),
    "cli.main.self_s": ("s", lambda T, C: T["cli.main"]),
    "cli.interp.s": ("s", lambda T, C: T["cli.interp"]),
    "cli.interp.points": ("count", lambda T, C: C["cli.interp.points"]),
    "quadrature.rule.s": ("s", lambda T, C: T["quadrature.rule"]),
    "quadrature.rule.calls": ("count", lambda T, C: C["quadrature.rule.calls"]),
    "quadrature.rule.nodes": ("count", lambda T, C: C["quadrature.rule.nodes"]),
    "quadrature.rule.repeat_frac": ("fraction", lambda T, C: _ratio(
        C["quadrature.rule.repeats"], C["quadrature.rule.calls"])),
    "specfun.laguerre_seq.s": ("s", lambda T, C: T["specfun.laguerre_seq"]),
    "specfun.laguerre_seq.elem_orders": (
        "count", lambda T, C: C["specfun.laguerre_seq.elem_orders"]),
    "specfun.laguerre_seq.ns_per_elem_order": ("ns", lambda T, C: _ratio(
        1e9 * T["specfun.laguerre_seq"], C["specfun.laguerre_seq.elem_orders"])),
    "specfun.laguerre_seq.tiny_frac": ("fraction", lambda T, C: _ratio(
        C["specfun.laguerre_seq.tiny"], C["specfun.laguerre_seq.elem_orders"])),
    "specfun.jv.s": ("s", lambda T, C: T["specfun.jv"]),
    "specfun.jv.values": ("count", lambda T, C: C["specfun.jv.values"]),
    "specfun.jv.ns_per_value": ("ns", lambda T, C: _ratio(
        1e9 * T["specfun.jv"], C["specfun.jv.values"])),
    "specfun.jv.large_arg_frac": ("fraction", lambda T, C: _ratio(
        C["specfun.jv.large_arg"], C["specfun.jv.values"])),
    "specfun.jv.half_order_frac": ("fraction", lambda T, C: _ratio(
        C["specfun.jv.half_order"], C["specfun.jv.values"])),
    "specfun.ive.s": ("s", lambda T, C: T["specfun.ive"]),
    "specfun.ive.values": ("count", lambda T, C: C["specfun.ive.values"]),
    "specfun.ive.ns_per_value": ("ns", lambda T, C: _ratio(
        1e9 * T["specfun.ive"], C["specfun.ive.values"])),
    "hankel.rule_for_function.s": ("s", lambda T, C: T["hankel.rule_for_function"]),
    "gtransform.f_eval.s": ("s", lambda T, C: T["gtransform.f_eval"]),
    "gtransform.g_forward.self_s": ("s", lambda T, C: T["gtransform.g_forward"]),
    "gtransform.g_inverse.self_s": ("s", lambda T, C: T["gtransform.g_inverse"]),
    "heat.heat_apply.self_s": ("s", lambda T, C: T["heat.heat_apply"]),
    "heat.heat_apply.cpu_per_wall": ("ratio", lambda T, C: _ratio(
        C["heat.heat_apply.cpu_s"], C["heat.heat_apply.wall_s"])),
    "heat.heat_apply.tensor_bytes": ("bytes", lambda T, C: C["heat.heat_apply.tensor_bytes"]),
    "heat.heat_kernel.self_s": ("s", lambda T, C: T["heat.heat_kernel"]),
    "heat.kernel_tau_rule.nodes": ("count", lambda T, C: C["heat.kernel_tau_rule.nodes"]),
}
# counted over the whole traced run, known-defect probes included
RUN_TOTALS = {"quadrature.rule.errors": ("count", "quadrature.rule.errors")}


def per_layer_metrics(tracer, times, n_passes):
    """Median over passes of each per-pass metric, plus the run totals.
    `times` are the run's self times keyed (pass index, span name).  Ops are
    keyed (pass index, op kind); probes outside passes use a non-integer
    pass key and count only toward the run totals."""
    per_pass = []
    for p in range(n_passes):
        T = _Lookup({name: v for (g, name), v in times.items() if g == p})
        C = _Lookup()
        for (op, key), v in tracer.counts.items():
            if op is not None and op[0] == p:
                C[key] += v
        per_pass.append({name: fn(T, C) for name, (_, fn) in PER_LAYER.items()})
    metrics = {name: {"value": float(median([pp[name] for pp in per_pass])),
                      "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    for name, (unit, key) in RUN_TOTALS.items():
        total = sum(v for (op, k), v in tracer.counts.items() if k == key)
        metrics[name] = {"value": float(total), "unit": unit}
    return metrics


class _Lookup(dict):
    def __missing__(self, key):
        return 0.0
