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
from grushin import diffop, gtransform, hankel, heat, laguerre, quadrature, specfun
from grushin.functions import packet_plane, power_gaussian_profile
from grushin.gtransform import SpectralData

_PROFILE = power_gaussian_profile(0.4)
_HEAT = heat.HeatParams(0.5, gtransform.TypePair(0.3, 0.45))


def _grid(r0):
    nodes = np.array([r0, 1.2, 1.4, 1.6, 1.8])
    return diffop.GridFunction2D(nodes, np.linspace(1.0, 2.0, 5), np.ones((5, 5)))


def _spectral(tau0, weight0):
    return SpectralData(0.0, 0.0, [tau0, 2.0, 3.0], [weight0, 1.0, 1.0], np.ones((2, 3)))


# (site, call with the probed value, parameter name, comparison, bound, a
# finite value on the wrong side of the bound)
REAL_SITES = [
    ("laguerre_eigenvalue", lambda v: specfun.laguerre_eigenvalue(v, 2), "order", ">", "-1",
     -1.0),
    ("TypePair", lambda v: gtransform.TypePair(0.0, v), "beta", ">", "-1", -1.5),
    ("log_gamma", lambda v: specfun.log_gamma(v), "x", ">", "0", 0.0),
    ("log_gamma array", lambda v: specfun.log_gamma([1.0, v]), "x", ">", "0", -2.0),
    ("bessel_j", lambda v: specfun.bessel_j(0.5, v), "x", ">=", "0", -1.0),
    ("bessel_j at a negative order", lambda v: specfun.bessel_j(-0.5, [1.0, v]),
     "x", ">", "0", 0.0),
    ("bessel_j_table", lambda v: specfun.bessel_j_table(0.25, v), "x", ">=", "0", -1.0),
    ("bessel_j_table at a negative order", lambda v: specfun.bessel_j_table(-0.5, [1.0, v]),
     "x", ">", "0", 0.0),
    ("bessel_i", lambda v: specfun.bessel_i(0.25, v), "x", ">=", "0", -1.0),
    ("bessel_i at nu < 0", lambda v: specfun.bessel_i(-0.25, v), "x", ">", "0", 0.0),
    ("bessel_j_normalized", lambda v: specfun.bessel_j_normalized(-0.5, [0.0, v]),
     "x", ">=", "0", -1e-3),
    ("bessel_i_normalized", lambda v: specfun.bessel_i_normalized(0.5, v),
     "x", ">=", "0", -1e-3),
    ("laguerre_fn_seq", lambda v: next(specfun.laguerre_fn_seq(0.3, [1.0, v], 3)),
     "x", ">", "0", 0.0),
    ("laguerre_fn_seq alpha", lambda v: specfun.laguerre_fn_seq(v, [1.0], 3),
     "alpha", "> -1 and <=", "10000", 2e4),
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
    ("build_finite_rule a", lambda v: quadrature.build_finite_rule(v, 1.0, 0.1),
     "a", ">=", "0", -0.5),
    ("build_finite_rule b", lambda v: quadrature.build_finite_rule(0.5, v, 0.1),
     "b", ">", "0.5", 0.5),
    ("build_finite_rule endpoint_exponent",
     lambda v: quadrature.build_finite_rule(0.0, 1.0, 0.1, endpoint_exponent=v),
     "endpoint_exponent", ">", "-1", -1.0),
    ("HalfLineFunction.endpoint_exponent",
     lambda v: hankel.HalfLineFunction(np.exp, endpoint_exponent=v),
     "endpoint_exponent", ">", "-1", -1.0),
    ("HalfLineFunction.rate",
     lambda v: hankel.HalfLineFunction(np.exp, support=(0.0, 1.0), rate=v), "rate", ">", "0",
     -1.0),
    ("HalfLineFunction.width", lambda v: quadrature.HalfLineFunction(np.exp, width=v),
     "width", ">", "0", 0.0),
    ("HalfLineFunction.width -inf", lambda v: quadrature.HalfLineFunction(np.exp, width=v),
     "width", ">", "0", -np.inf),
    ("HalfLineFunction.support lo",
     lambda v: quadrature.HalfLineFunction(np.exp, support=(v, 2.0)), "support", ">=", "0",
     -1.0),
    ("HalfLineFunction.support hi",
     lambda v: quadrature.HalfLineFunction(np.exp, support=(3.0, v)), "support", ">", "3", 1.0),
    ("PlaneFunction.support",
     lambda v: gtransform.PlaneFunction(np.add, support=((3.0, v), (1.0, 2.0))),
     r"support\[0\]", ">", "3", 1.0),
    ("HalfLineRule.upper_cut",
     lambda v: quadrature.HalfLineRule([0.5, 1.0], [1.0, 1.0], v), "upper_cut", ">=", "1", 0.9),
    ("default_tau_rule", lambda v: gtransform.default_tau_rule(upper=v), "upper", ">", "0", 0.0),
    ("default_tau_rule endpoint_exponent",
     lambda v: gtransform.default_tau_rule(endpoint_exponent=v), "endpoint_exponent", ">", "-1",
     -2.0),
    ("hankel_modified", lambda v: hankel.hankel_modified(0.4, _PROFILE, [1.0, v]),
     "tau", ">=", "0", -1.0),
    ("hankel_liouville", lambda v: hankel.hankel_liouville(0.25, _PROFILE, v),
     "tau", ">", "0", 0.0),
    ("gaussian_coefficient", lambda v: laguerre.gaussian_coefficient(0.5, 2, [0.5, v]),
     "tau", ">", "0", 0.0),
    ("SpectralData.tau_grid", lambda v: _spectral(v, 1.0), "tau_grid", ">", "0", 0.0),
    ("SpectralData.tau_weights", lambda v: _spectral(1.0, v), "tau_weights", ">", "0", -1.0),
    ("GridFunction2D", _grid, "r_nodes", ">", "0", 0.0),
    ("rule_for_function", lambda v: hankel.rule_for_function(_PROFILE, v), "freq", ">=", "0",
     -1.0),
    ("analysis_rule tau_lo", lambda v: laguerre.analysis_rule(0.4, (v, 12.0), _PROFILE, 8),
     "tau_lo", ">", "0", -1.0),
    ("analysis_rule tau_hi", lambda v: laguerre.analysis_rule(0.4, (1e-3, v), _PROFILE, 8),
     "tau_hi", ">=", "0.001", 5e-4),
    ("mehler_kernel alpha", lambda v: heat.mehler_kernel(v, 0.3, 1.1, 0.9, 1.4),
     "alpha", ">", "-1", -2.0),
    ("mehler_kernel t", lambda v: heat.mehler_kernel(0.6, v, 1.1, 0.9, 1.4), "t", ">", "0", -1.0),
    ("mehler_kernel tau", lambda v: heat.mehler_kernel(0.6, 0.3, v, 0.9, 1.4),
     "tau", ">", "0", -1.0),
    ("mehler_kernel r", lambda v: heat.mehler_kernel(0.6, 0.3, 1.1, v, 1.4), "r", ">", "0", -1.0),
    ("mehler_kernel u", lambda v: heat.mehler_kernel(0.6, 0.3, 1.1, 0.9, v), "u", ">", "0", 0.0),
    ("kernel_tau_rule", lambda v: heat.kernel_tau_rule(_HEAT, v), "freq", ">=", "0", -5.0),
    ("spectral_symbol", lambda v: gtransform.spectral_symbol(0.3, 2, [1.0, v]),
     "tau", ">", "0", -1.0),
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
    ("build_finite_rule", lambda n: quadrature.build_finite_rule(0.0, 1.0, 0.5, n),
     "points_per_panel", 4),
    ("laguerre_fn_seq", lambda n: next(specfun.laguerre_fn_seq(0.3, [1.0, 2.0], n)),
     "n_max", 1),
    ("default_tau_rule", lambda n: gtransform.default_tau_rule(panels=n), "panels", 1),
    ("GridFunction2D.interior", lambda n: _grid(1.0).interior(n), "margin", 1),
    ("laguerre_eigenvalue", lambda n: specfun.laguerre_eigenvalue(0.3, n), "n", 0),
    ("spectral_symbol", lambda n: gtransform.spectral_symbol(0.3, [1, n], 1.0), "n", 0),
]


@pytest.mark.parametrize("call, name, least",
                         [pytest.param(*row[1:], id=row[0]) for row in COUNT_SITES])
@pytest.mark.parametrize("probe", ["nan", "inf", "fraction", "below"])
def test_count_rejected_with_name_and_least_value(call, name, least, probe):
    value = {"nan": np.nan, "inf": np.inf, "fraction": least + 1.5, "below": least - 1}[probe]
    with pytest.raises(ValueError, match=rf"^{name}(\[\d+\])? must be an integer >= {least}, "):
        call(value)


def test_nan_max_panels_does_not_lift_the_cap():
    policy = dict(abs_tol=1e-12, decay_hint="exponential", freq_bound=500.0)
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
