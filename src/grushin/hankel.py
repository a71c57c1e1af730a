"""Hankel transforms on the half line.

Two unitarily equivalent forms are provided:

  modified form   H_a f(tau) = int f(u) J_a(tau u)/(tau u)^a  u^(2a+1) du
                  (self-inverse on L^2(u^(2a+1) du)),
  Liouville form  H'_b f(tau) = int f(u) (tau u)^(1/2) J_b(tau u) du
                  (self-inverse on L^2(du)).

They are conjugate through multiplication by u^(a+1/2):  the Liouville form
equals U_a H_a U_a^{-1} with U_a f = u^(a+1/2) f.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np
from scipy.special import gammaincc

from ._util import column_blocks, parallel_map, real_value
from .quadrature import (HalfLineFunction, HalfLineRule, TruncationPolicy, _sampled_values,
                         rule_for_function, truncation_point)
from .specfun import _bessel_j_scaled, _order_value

__all__ = [
    "hankel_modified",
    "hankel_liouville",
    "hankel_modified_inverse",
    "hankel_liouville_inverse",
]


def _liouville_kernel(beta, taus, pts):
    """(tau u)^(1/2) J_beta(tau u) as a (len(pts), len(taus)) matrix."""
    return _bessel_j_scaled(beta, taus[None, :] * pts[:, None], 0.5)


def _kernel_apply(kernel, nodes, weights, values, points):
    """out[i, ...] = sum_j kernel(u_j, p_i) w_j values[j, ...], kernel(nodes, points) being the
    (len(points), len(nodes)) matrix, in blocks of at least 64 points on the worker threads,
    so that a block times values stays a matrix product even when the nodes fill a block."""
    out = np.empty((len(points),) + values.shape[1:], np.result_type(weights, values))

    def block(cols):
        kb = kernel(nodes, points[cols])
        kb *= weights
        np.matmul(kb, values, out=out[cols])

    parallel_map(block, column_blocks(len(nodes), len(points), min_width=64))
    return out


# a rule from f's decay hint stops at the envelope's cut U whatever the weight u^(2a+1);
# the weighted envelope's share past U, Q(a+1, (rate U)^2/2) for a gaussian hint and
# Q(2a+2, rate U) for an exponential one, predicts its error and is held to verify's 1e-8
_TAIL_TOL = 1e-8


def _modified_rule(alpha, f: HalfLineFunction, freq):
    """rule_for_function's rule, once a rule from f's hint is known to reach."""
    x = f.rate * truncation_point(TruncationPolicy(decay_hint=f.decay, rate=f.rate))
    k, y = (1.0, 0.5 * x * x) if f.decay == "gaussian" else (2.0, x)
    if f.support is None and gammaincc(k * (alpha + 1.0), y) > _TAIL_TOL:
        from scipy.optimize import brentq  # the share grows with the order
        top = brentq(lambda a: gammaincc(k * (a + 1.0), y) - _TAIL_TOL, -1.0, alpha)
        raise ValueError(f"alpha must be <= {np.floor(top * 1e3) / 1e3:g} for a rule cut at "
                         f"u = {x / f.rate:g} by f's {f.decay} decay hint, got {alpha}")
    return rule_for_function(f, freq, 2.0 * alpha + 1.0)


def hankel_modified(alpha, f, taus, rule: Optional[HalfLineRule] = None):
    """Modified-form transform of f at the points taus (taus >= 0 allowed), as an
    array of the length of taus; raises where the rule from f's decay hint cannot reach."""
    alpha = _order_value(alpha)
    taus = real_value(np.atleast_1d(taus), "tau", closed=True)
    vals, rule = _sampled_values(
        f, rule, lambda hf: _modified_rule(alpha, hf, float(taus.max(initial=0.0))))
    return _kernel_apply(lambda u, t: _bessel_j_scaled(alpha, np.outer(t, u), -alpha), rule.nodes,
                         rule.weights * rule.nodes ** (2.0 * alpha + 1.0), vals, taus)


def hankel_liouville(beta, f, taus, rule: Optional[HalfLineRule] = None):
    """Liouville-form transform of f at the points taus (taus > 0), as an
    array of the length of taus."""
    beta = _order_value(beta)
    taus = real_value(np.atleast_1d(taus), "tau")
    # the kernel itself contributes u^(b+1/2) at the origin: a rule without
    # octaves (a declared profile's) absorbs all of it, one with octaves only
    # its singular part
    vals, rule = _sampled_values(f, rule, lambda hf: rule_for_function(
        hf, float(taus.max(initial=0.0)), beta + 0.5 if hf.endpoint_exponent is not None
        else min(beta + 0.5, 0.0)))
    return _kernel_apply(partial(_liouville_kernel, beta), rule.nodes, rule.weights, vals, taus)


# both forms are involutions on their L^2 spaces; the aliases let call sites
# say which direction they mean
hankel_modified_inverse = hankel_modified
hankel_liouville_inverse = hankel_liouville
