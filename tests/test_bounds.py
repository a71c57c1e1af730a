"""Every real parameter and every count goes through one `_util` check, so
NaN, infinities and values on the wrong side of a bound fail up front with
a message that names the parameter and the bound."""

import ast
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import grushin
from grushin import diffop, gtransform, hankel, laguerre, quadrature, specfun
from grushin.functions import packet_plane, power_gaussian_profile
from grushin.gtransform import SpectralData

_PROFILE = power_gaussian_profile(0.4)


def _grid(r0):
    nodes = np.array([r0, 1.2, 1.4, 1.6, 1.8])
    return diffop.GridFunction2D(nodes, np.linspace(1.0, 2.0, 5), np.ones((5, 5)))


def _spectral(tau0, weight0):
    return SpectralData(0.0, 0.0, [tau0, 2.0, 3.0], [weight0, 1.0, 1.0], np.ones((2, 3)))


# (site, call with the probed value, parameter name, comparison, bound, a
# finite value on the wrong side of the bound)
REAL_SITES = [
    ("Order", lambda v: specfun.Order(v), "order", ">", "-1", -1.0),
    ("TypePair", lambda v: gtransform.TypePair(0.0, v), "beta", ">", "-1", -1.5),
    ("log_gamma", lambda v: specfun.log_gamma(v), "x", ">", "0", 0.0),
    ("log_gamma array", lambda v: specfun.log_gamma([1.0, v]), "x", ">", "0", -2.0),
    ("bessel_j", lambda v: specfun.bessel_j(0.5, v), "x", ">=", "0", -1.0),
    ("bessel_j at a negative order", lambda v: specfun.bessel_j(-0.5, [1.0, v]),
     "x", ">", "0", 0.0),
    ("bessel_i", lambda v: specfun.bessel_i(0.25, v), "x", ">=", "0", -1.0),
    ("bessel_i_scaled", lambda v: specfun.bessel_i_scaled(-0.25, v), "x", ">", "0", 0.0),
    ("bessel_j_normalized", lambda v: specfun.bessel_j_normalized(-0.5, [0.0, v]),
     "x", ">=", "0", -1e-3),
    ("bessel_i_normalized", lambda v: specfun.bessel_i_normalized(0.5, v),
     "x", ">=", "0", -1e-3),
    ("laguerre_fn_seq", lambda v: next(specfun.laguerre_fn_seq(0.3, [1.0, v], 3)),
     "x", ">", "0", 0.0),
    ("TruncationPolicy.abs_tol", lambda v: quadrature.TruncationPolicy(abs_tol=v),
     "abs_tol", ">", "0", 0.0),
    ("TruncationPolicy.rate", lambda v: quadrature.TruncationPolicy(rate=v),
     "rate", ">", "0", -1.0),
    ("TruncationPolicy.freq_bound", lambda v: quadrature.TruncationPolicy(freq_bound=v),
     "freq_bound", ">=", "0", -1e-3),
    ("TruncationPolicy.endpoint_exponent",
     lambda v: quadrature.TruncationPolicy(endpoint_exponent=v),
     "endpoint_exponent", ">", "-1", -1.0),
    ("HalfLineRule.weights", lambda v: quadrature.HalfLineRule([0.5, 1.0], [1.0, v], 2.0),
     "weights", ">", "0", 0.0),
    ("HalfLineRule.nodes", lambda v: quadrature.HalfLineRule([v, 1.0], [1.0, 1.0], 2.0),
     "nodes", ">=", "0", -0.5),
    ("build_finite_rule", lambda v: quadrature.build_finite_rule(0.0, 1.0, v),
     "max_width", ">", "0", 0.0),
    ("hankel_modified", lambda v: hankel.hankel_modified(0.4, _PROFILE, [1.0, v]),
     "tau", ">=", "0", -1.0),
    ("hankel_liouville", lambda v: hankel.hankel_liouville(0.25, _PROFILE, v),
     "tau", ">", "0", 0.0),
    ("gaussian_coefficient", lambda v: laguerre.gaussian_coefficient(0.5, 2, [0.5, v]),
     "tau", ">", "0", 0.0),
    ("SpectralData.tau_grid", lambda v: _spectral(v, 1.0), "tau_grid", ">", "0", 0.0),
    ("SpectralData.tau_weights", lambda v: _spectral(1.0, v), "tau_weights", ">", "0", -1.0),
    ("GridFunction2D", _grid, "r_nodes", ">", "0", 0.0),
]


@pytest.mark.parametrize("call, name, op, bound, wrong",
                         [pytest.param(*row[1:], id=row[0]) for row in REAL_SITES])
@pytest.mark.parametrize("probe", ["nan", "inf", "wrong side"])
def test_real_parameter_rejected_with_name_and_bound(call, name, op, bound, wrong, probe):
    value = {"nan": np.nan, "inf": np.inf, "wrong side": wrong}[probe]
    with pytest.raises(ValueError,
                       match=rf"^{name}(\[\d+\])? must be a finite real {op} {bound}, got "):
        call(value)


# (site, call with the probed count, parameter name, least value)
COUNT_SITES = [
    ("LaguerreIndex", lambda n: specfun.LaguerreIndex(n, 0.0, 1.0), "n", 0),
    ("laguerre_poly", lambda n: specfun.laguerre_poly(n, 0.3, 1.5), "n", 0),
    ("gaussian_coefficient", lambda n: laguerre.gaussian_coefficient(0.5, [1, n], 0.7),
     "n", 0),
    ("laguerre_analyze", lambda n: laguerre.laguerre_analyze(0.4, 1.0, _PROFILE, n_max=n),
     "n_max", 1),
    ("g_forward", lambda n: gtransform.g_forward(gtransform.TypePair(0.4, 0.25),
                                                 packet_plane(), n_max=n), "n_max", 1),
    ("TruncationPolicy.max_panels", lambda n: quadrature.TruncationPolicy(max_panels=n),
     "max_panels", 1),
    ("build_rule", lambda n: quadrature.build_rule(quadrature.TruncationPolicy(), n),
     "points_per_panel", 4),
    ("build_finite_rule", lambda n: quadrature.build_finite_rule(0.0, 1.0, 0.5, n),
     "points_per_panel", 4),
]


@pytest.mark.parametrize("call, name, least",
                         [pytest.param(*row[1:], id=row[0]) for row in COUNT_SITES])
@pytest.mark.parametrize("probe", ["nan", "inf", "fraction", "below"])
def test_count_rejected_with_name_and_least_value(call, name, least, probe):
    value = {"nan": np.nan, "inf": np.inf, "fraction": least + 1.5, "below": least - 1}[probe]
    with pytest.raises(ValueError, match=rf"^{name}(\[\d+\])? must be an integer >= {least}, "):
        call(value)


def test_nan_max_panels_does_not_lift_the_cap():
    policy = dict(abs_tol=1e-12, decay_hint="algebraic_oscillatory", freq_bound=500.0)
    with pytest.raises(quadrature.QuadratureError):
        quadrature.build_rule(quadrature.TruncationPolicy(max_panels=100, **policy))
    with pytest.raises(ValueError, match="^max_panels must be an integer >= 1, got nan"):
        quadrature.TruncationPolicy(max_panels=np.nan, **policy)


def test_non_integer_order_of_a_coefficient_raises():
    with pytest.raises(ValueError, match="^n must be an integer >= 0, got 2.5"):
        laguerre.gaussian_coefficient(0.5, 2.5, 0.7)


def test_integer_valued_counts_pass():
    assert specfun.laguerre_poly(2.0, 0.3, 1.5) == specfun.laguerre_poly(2, 0.3, 1.5)
    assert laguerre.gaussian_coefficient(0.5, 2.0, 0.7) \
        == laguerre.gaussian_coefficient(0.5, 2, 0.7)


# a "must be > 0", "must be finite reals >= 0" or "must be positive" message
_BOUND = re.compile(r"must be [\w ,]*?(positive|>=? -?\d)")


def _bound_message_sites():
    """module.function of every `raise ValueError(...)` in the package
    whose literal text states a numeric bound."""
    sites = set()
    for info in pkgutil.iter_modules(grushin.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"grushin.{info.name}")))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "ValueError"
                        and node.exc.args):
                    continue
                text = "".join(c.value for c in ast.walk(node.exc.args[0])
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if _BOUND.search(text):
                    sites.add(f"{info.name}.{fn.name}")
    return sites


def test_only_util_formats_bound_messages():
    # heat_kernel_weighted checks u and v jointly: u = v = 0 is its one
    # admissible point on the boundary
    sites = _bound_message_sites()
    assert {s for s in sites if not s.startswith("_util.")} == {"heat.heat_kernel_weighted"}
    assert "_util.thread_count" in sites  # the scan does see bound messages
