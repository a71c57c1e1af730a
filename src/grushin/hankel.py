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

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._util import column_blocks, real_value
from .quadrature import (HalfLineRule, TruncationPolicy, build_finite_rule, build_rule,
                         truncation_point)
from .specfun import bessel_j_normalized, bessel_j_table, _order_value

__all__ = [
    "HalfLineFunction",
    "hankel_modified",
    "hankel_liouville",
    "hankel_modified_inverse",
    "hankel_liouville_inverse",
    "profile_rule",
    "rule_for_function",
]

# hankel quadrature resolves the J_beta(tau u) oscillation with panel width
# <= pi/(4 tau_max); realized by passing 2*tau_max as the frequency bound
_FREQ_FACTOR = 2.0


@dataclass(frozen=True)
class HalfLineFunction:
    """Evaluable profile on (0, inf) with integration hints.

    fn must accept numpy arrays.  When support is None the decay hint and
    rate choose the truncation; endpoint_exponent declares a u^gamma factor
    at the origin.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: Optional[Tuple[float, float]] = None
    decay: str = "gaussian"
    rate: float = 1.0
    endpoint_exponent: float = 0.0

    def __call__(self, u):
        return self.fn(u)


def as_half_line_function(f) -> HalfLineFunction:
    if isinstance(f, HalfLineFunction):
        return f
    if callable(f):
        return HalfLineFunction(f)
    raise TypeError("expected a callable or HalfLineFunction")


def profile_rule(f: HalfLineFunction, width: float, extra_exponent: float = 0.0,
                 reach: float = np.inf, points_per_panel: int = 8) -> HalfLineRule:
    """Rule of points_per_panel Gauss points on panels of width <= width over f's
    support, else (0, min(cut of f's decay, reach)); from 0 it absorbs the power
    u^(f.endpoint_exponent + extra_exponent), extra_exponent being the kernel's."""
    lo, hi = f.support or (0.0, min(truncation_point(
        TruncationPolicy(decay_hint=f.decay, rate=f.rate)), reach))
    gamma = f.endpoint_exponent + extra_exponent if lo == 0.0 else 0.0
    return build_finite_rule(lo, hi, width, points_per_panel, endpoint_exponent=gamma)


def rule_for_function(f: HalfLineFunction, freq: float = 0.0,
                      extra_exponent: float = 0.0) -> HalfLineRule:
    """Quadrature rule adequate for f against a kernel of frequency <= freq."""
    if f.support is not None:
        a, b = f.support
        width = np.pi / (2.0 * _FREQ_FACTOR * freq) if freq > 0.0 else (b - a) / 8.0
        return profile_rule(f, width, extra_exponent)
    return build_rule(TruncationPolicy(
        decay_hint=f.decay, rate=f.rate, freq_bound=_FREQ_FACTOR * freq,
        endpoint_exponent=f.endpoint_exponent + extra_exponent))


def _sampled_values(f, rule, default_rule):
    """(values, rule) for f on the nodes of rule: f is either an array
    already sampled on an explicit rule, or a profile evaluated on rule
    (default_rule(profile) when rule is None)."""
    if isinstance(f, np.ndarray):
        if rule is None:
            raise ValueError("passing sampled values requires an explicit rule")
        if f.shape != rule.nodes.shape:
            raise ValueError("sampled values must match the rule nodes")
        return f, rule
    hf = as_half_line_function(f)
    if rule is None:
        rule = default_rule(hf)
    return np.asarray(hf(rule.nodes)), rule


def _values_and_rule(f, taus, rule, extra_exponent):
    return _sampled_values(f, rule, lambda hf: rule_for_function(
        hf, freq=float(taus.max(initial=0.0)), extra_exponent=extra_exponent))


def _liouville_kernel(beta, taus, pts):
    """(tau u)^(1/2) J_beta(tau u) as a (len(pts), len(taus)) matrix."""
    x = taus[None, :] * pts[:, None]
    return np.sqrt(x) * bessel_j_table(beta, x)


def _kernel_apply(taus, rule, weighted_vals, kernel):
    """sum_i kernel(tau_k, u_i) * weighted_vals_i, blocked over tau;
    kernel(tau_block, nodes) is the (len(tau_block), len(nodes)) matrix."""
    out = np.empty(len(taus), dtype=weighted_vals.dtype)
    for cols in column_blocks(len(rule.nodes), len(taus)):
        out[cols] = kernel(taus[cols], rule.nodes) @ weighted_vals
    return out


def hankel_modified(alpha, f, taus, rule: Optional[HalfLineRule] = None):
    """Modified-form transform of f at the points taus (taus >= 0 allowed),
    as an array of the length of taus."""
    alpha = _order_value(alpha)
    taus = real_value(np.atleast_1d(taus), "tau", closed=True)
    vals, rule = _values_and_rule(f, taus, rule, 2.0 * alpha + 1.0)
    weighted = rule.weights * vals * rule.nodes ** (2.0 * alpha + 1.0)
    return _kernel_apply(taus, rule, weighted,
                         lambda t, u: bessel_j_normalized(alpha, t[:, None] * u[None, :]))


def hankel_liouville(beta, f, taus, rule: Optional[HalfLineRule] = None):
    """Liouville-form transform of f at the points taus (taus > 0), as an
    array of the length of taus."""
    beta = _order_value(beta)
    taus = real_value(np.atleast_1d(taus), "tau")
    # the kernel itself contributes u^(b+1/2) at the origin
    vals, rule = _values_and_rule(f, taus, rule, min(beta + 0.5, 0.0))
    weighted = rule.weights * vals
    # the kernel depends on tau u only: as (tau block x nodes) it is the
    # (pts = tau, taus = u) table
    return _kernel_apply(taus, rule, weighted,
                         lambda t, u: _liouville_kernel(beta, u, t))


# both forms are involutions on their L^2 spaces; the aliases let call sites
# say which direction they mean
hankel_modified_inverse = hankel_modified
hankel_liouville_inverse = hankel_liouville
