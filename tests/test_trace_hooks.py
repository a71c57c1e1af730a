"""The benchmark's trace hooks still bind to the library.

perfbench/layers.py wraps library entry points by name and reads their
arguments by position; a signature change there breaks only a traced
benchmark run.  This test applies the hooks, runs one call of each kind and
checks that every hooked layer was counted and that the originals come back.
"""

import importlib
import os
import sys

import numpy as np

from grushin import gtransform, heat, specfun
from grushin.functions import bump_plane, power_gaussian
from grushin.gtransform import TypePair
from grushin.heat import HeatParams

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _bindings():
    """Every module-level binding of the loaded grushin modules, plus the
    class attribute the hooks swap."""
    out = {(name, attr): value for name, mod in list(sys.modules.items())
           if name == "grushin" or name.startswith("grushin.")
           for attr, value in vars(mod).items()}
    out[("PlaneFunction", "__call__")] = vars(gtransform.PlaneFunction)["__call__"]
    return out


def test_instrument_counts_each_layer_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    import grushin.cli  # noqa: F401  (instrument wraps cli as well)

    before = _bindings()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    layers.instrument(tracer, patcher)
    try:
        assert heat.heat_apply is not before[("grushin.heat", "heat_apply")]
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        out = heat.heat_apply(hp, bump_plane(), [[1.5, 2.0], [2.0, 2.4]], route="kernel")
        assert out.shape == (2,) and np.all(np.isfinite(out))
        assert np.isfinite(heat.heat_kernel(hp, 1.0, 1.0, 1.0, 1.0))
        # the Bessel arguments above stay in the I_a series; this one
        # (tau r u / sinh 2t tau tends to r u / 2t = 90 as tau -> 0)
        # reaches scipy's ive past the series cut
        assert np.isfinite(heat.heat_kernel(HeatParams(0.05, TypePair(0.3, 0.2)),
                                            3.0, 1.0, 3.0, 1.0))
        sd = gtransform.g_forward(TypePair(0.5, 0.5), power_gaussian(0.5, 0.5), n_max=4)
        assert sd.n_max == 4
        # the transforms run the recurrence core directly; laguerre_fn still
        # iterates the hooked laguerre_fn_seq
        lag = specfun.laguerre_fn(specfun.LaguerreIndex(3, 0.5, 1.0), np.array([1.0, 2.0]))
        assert lag.shape == (2,) and np.all(np.isfinite(lag))
        # the J_nu tables above stay on the library's own evaluators; an
        # order past 12.5 reaches scipy's jv
        assert np.all(np.isfinite(specfun.bessel_j(20.0, np.array([1.0, 40.0]))))
    finally:
        patcher.restore()

    counted = {key for (_, key), value in tracer.counts.items() if value > 0}
    for key in ("heat.heat_apply.tensor_bytes", "heat.kernel_tau_rule.nodes",
                "quadrature.rule.calls", "specfun.laguerre_seq.elem_orders",
                "specfun.jv.values", "specfun.ive.values"):
        assert key in counted, key
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
