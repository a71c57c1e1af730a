"""Closed-form heat kernel of the quarter-plane operator and its semigroup.

For t > 0 and type parameters a, b > -1 the semigroup exp(-t G) is an
integral operator with kernel

  K_t((r,s),(u,v)) = sqrt(rusv) * int_0^inf J_b(tau s) J_b(tau v)
        exp(-tau (r^2+u^2) / (2 tanh 2t tau))
        I_a(tau r u / sinh 2t tau) tau^2 / sinh(2t tau) d tau.

The exponential and the modified Bessel factor are evaluated as
exp(combined exponent) * I_a(x)/x^a with x = tau r u / sinh 2t tau.  The
exponent takes x^a, sqrt(r u) and tau^2 / sinh 2t tau from logs, so neither
e^x nor an underflowed r u is ever formed.  I_a(x)/x^a is its power series
below x = 15; past it, scipy's e^-x I_a(x) with e^x moved into the
exponent, where it meets the exponential in
-tau [(r^2+u^2) cosh(2t tau) - 2 r u] / (2 sinh 2t tau) <= 0.
The kernel is symmetric under (r,s) <-> (u,v) and obeys the parabolic scaling
K_t = t^(-3/2) K_1((r/sqrt t, s/t), (u/sqrt t, v/t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.special import gammainccinv

from ._util import column_blocks, parallel_map, real_value
from .gtransform import (DEFAULT_N_MAX, TypePair, _points_array, as_plane_function,
                         functional_calculus)
from .hankel import _kernel_apply, _liouville_kernel
from .quadrature import HalfLineRule, TruncationPolicy, build_rule, panel_width, profile_rule
from .specfun import _bessel_j_scaled, _order_value, bessel_i_normalized_exp

__all__ = [
    "HeatParams",
    "heat_kernel",
    "heat_kernel_half",
    "heat_apply",
    "heat_apply_grid",
    "heat_kernel_weighted",
    "kernel_at_origin",
    "diagonal_profile",
    "mehler_kernel",
]

_KERNEL_TOL = 1e-10


@dataclass(frozen=True)
class HeatParams:
    """Diffusion time t > 0 and the type pair."""

    t: float
    tp: TypePair

    def __post_init__(self):
        real_value(self.t, "t")

    @property
    def alpha(self) -> float:
        return self.tp.alpha

    @property
    def beta(self) -> float:
        return self.tp.beta


def kernel_tau_rule(hp: HeatParams, freq: float, point=None) -> HalfLineRule:
    """The one tau rule of the kernel integrals at s, v <= freq: panels for the
    wavenumber 2 freq of J_b(tau s) J_b(tau v) under the worst-case envelope
    e^(-_kernel_rate(hp) tau) to _KERNEL_TOL * 1e-4, the first absorbing the
    integrand's tau^(2b+1) when b < 0 (not for b >= 0, where the first panel's
    h^(2b+2) underflows past b ~ 33).  Given a point (r, u, power), the rule stops
    at the point's own cut (_point_cut) where that comes before the envelope's,
    with the point's envelope at the cut as its rate."""
    freq = real_value(freq, "freq", closed=True)
    rate, abs_tol = _kernel_rate(hp), _KERNEL_TOL * 1e-4
    if point is not None:
        cut, load = _point_cut(hp, *point, abs_tol)
        if cut * rate < math.log(1.0 / abs_tol):
            rate, abs_tol = load / cut, math.exp(-load)
    policy = TruncationPolicy(abs_tol=abs_tol, decay_hint="exponential", rate=rate,
                              freq_bound=2.0 * max(freq, 1e-6),
                              endpoint_exponent=2.0 * hp.beta + 1.0 if hp.beta < 0.0 else 0.0)
    return build_rule(policy)


def _kernel_rate(hp):
    # the kernel's envelope rate as r, u -> 0, where a < 0 adds growth e^(-2at tau)
    return 2.0 * hp.t * (1.0 + min(hp.alpha, 0.0))


def _point_cut(hp, r, u, power, abs_tol):
    """(U, X): the tau cut of the kernel integrand at r, u, whose tau power law is
    tau^power times I_a's, and X = U phi(U).

    With I_a(x) = e^x ive(a, x) the exponent splits exactly as
    -tau [(r-u)^2 coth(2t tau)/2 + r u tanh(t tau)], and tau coth(2t tau) =
    1/(2t) + tau L(2t tau), L(y) = coth y - 1/y.  So past its bulk the integrand
    is e^(-(r-u)^2/(4t)) times at most C tau^p exp(-tau phi(tau)),
      phi(tau) = rho + (r-u)^2 L(2t tau)/2 + r u tanh(t tau),
    rho = _kernel_rate(hp) (what tau^2/sinh(2t tau) ive(a, x) leaves as x -> 0,
    where ive ~ x^a), p = power + min(a, 0).  phi increases, so the share of that
    envelope's integral past U is at most Q(p+1, U phi(U)) / (1 - Q), Q the
    regularized upper incomplete gamma; U solves U phi(U) = X, Q(p+1, X) = abs_tol."""
    load = float(gammainccinv(power + min(hp.alpha, 0.0) + 1.0, abs_tol))
    t, rho, half_d2, ru = hp.t, _kernel_rate(hp), 0.5 * (r - u) ** 2, r * u

    def excess(w):
        # log(U phi(U) / X) at U = e^w: increasing, its slope 1 + U phi'/phi in [1, 2]
        y = 2.0 * t * math.exp(w)
        lang = y / 3.0 if y < 1e-4 else 1.0 / math.tanh(y) - 1.0 / y
        return w + math.log((rho + half_d2 * lang + ru * math.tanh(0.5 * y)) / load)

    # secant steps on log U from phi's floor rho, each slope clamped to [1, 2]
    w, slope = math.log(load / rho), 1.5
    f = excess(w)
    for _ in range(50):
        if abs(f) < 1e-12:
            break
        step = f / slope
        w, f_old = w - step, f
        f = excess(w)
        slope = min(max((f_old - f) / step, 1.0), 2.0)
    return math.exp(w), load


def _inv_sinh(y):
    # 1/sinh(y) without overflow; floored so arguments built from it stay > 0
    return np.where(y < 300.0, 1.0 / np.sinh(np.minimum(y, 300.0)),
                    2.0 * np.exp(-np.minimum(y, 700.0)))


def _coth(y):
    return np.where(y < 300.0, 1.0 / np.tanh(np.minimum(y, 300.0)), 1.0)


def _kernel_core(alpha, t, tau, r, u, log_scale, log_ru):
    """sqrt(r u) exp(-tau(r^2+u^2)/(2 tanh y)) I_a(x) exp(log_scale) / sinh y
    for y = 2 t tau, x = tau r u / sinh y and log_ru = log r + log u; the
    kernel's tau integrand without its two Liouville kernels at log_scale = log tau.
    log_ru = 0 leaves (r u)^(a+1/2) out, as the weighted kernel does.

    x^a sqrt(r u) / sinh y is taken from log tau + log_ru, so r u below the
    double range keeps its power law; x only enters the series of I_a(x)/x^a
    through x^2, so an underflow to 0 is exact and u = 0 gives the limit."""
    y = 2.0 * t * tau
    log_inv = math.log(2.0) - y - np.log(-np.expm1(-2.0 * y))  # log(1/sinh y), no overflow
    x = tau * np.exp(log_inv) * (r * u)
    expo = -0.5 * tau * _coth(y) * (r * r + u * u) \
        + (alpha * np.log(tau) + (alpha + 1.0) * log_inv + log_scale) \
        + (alpha + 0.5) * log_ru
    return bessel_i_normalized_exp(alpha, x, expo)


def heat_kernel(hp: HeatParams, r, s, u, v,
                rule: Optional[HalfLineRule] = None) -> float:
    """Kernel value K_t((r,s),(u,v)) by tau quadrature."""
    r, s, u, v = map(real_value, (r, s, u, v), "rsuv")
    if rule is None:
        rule = kernel_tau_rule(hp, max(s, v), (r, u, 2.0))
    # on the Liouville kernels, which carry tau sqrt(s v) of tau^2 sqrt(s v) J_b J_b
    return float(_tau_sum(hp, r, s, u, v, rule, 0.5, np.log(rule.nodes), np.log(r) + np.log(u)))


def _tau_sum(hp, r, s, u, v, rule, shift, log_scale, log_ru):
    # the one tau sum of every kernel value and profile point: x^shift J_b(x) at
    # x = tau s and tau v (one table when v is s), times the core at log_scale,
    # contracted with the rule's weights; at shift 1/2 each factor is the
    # Liouville kernel, whose magnitude tracks K's as s, v -> 0 for every b
    tau = rule.nodes
    js = _bessel_j_scaled(hp.beta, tau * s, shift)
    jv = js if v is s else _bessel_j_scaled(hp.beta, tau * v, shift)
    return (js * jv * _kernel_core(hp.alpha, hp.t, tau, r, u, log_scale, log_ru)) @ rule.weights


def heat_kernel_half(t: float, r, s, u, v, variant: str = "cosh") -> float:
    """Closed form of the kernel at type parameters (-1/2, -1/2).

    The half-integer identity I_{-1/2}(y) = sqrt(2/(pi y)) cosh(y) makes
    "cosh" the variant that agrees with the general kernel; the "sinh"
    variant is kept behind this switch for comparison and differs measurably.
    """
    if variant not in ("cosh", "sinh"):
        raise ValueError("variant must be 'cosh' or 'sinh'")
    r, s, u, v = map(real_value, (r, s, u, v), "rsuv")
    hp = HeatParams(t, TypePair(-0.5, -0.5))
    rule = kernel_tau_rule(hp, freq=max(s, v))
    tau = rule.nodes
    y = 2.0 * t * tau
    x = tau * r * u * _inv_sinh(y)
    a = 0.5 * tau * (r * r + u * u) * _coth(y)
    sign = 1.0 if variant == "cosh" else -1.0
    hyper = 0.5 * (np.exp(x - a) + sign * np.exp(-x - a))
    integrand = np.cos(tau * s) * np.cos(tau * v) * hyper \
        * np.sqrt(tau * _inv_sinh(y))
    return float((2.0 / np.pi) ** 1.5 * np.dot(rule.weights, integrand))


def heat_kernel_weighted(hp: HeatParams, r, s, u, v,
                         rule: Optional[HalfLineRule] = None) -> float:
    """Kernel against the weighted measure u^(2a+1) v^(2b+1) du dv:
    (ru)^(-a-1/2) (sv)^(-b-1/2) K_t, written with normalized Bessel kernels
    so that it extends continuously to u = v = 0."""
    if not (0.0 <= u < np.inf and 0.0 <= v < np.inf):
        raise ValueError(f"u, v must be finite reals >= 0, got {u}, {v}")
    if (u == 0.0) != (v == 0.0):
        raise ValueError("only the joint limit u = v = 0 is defined")
    r, s = map(real_value, (r, s), "rs")
    if rule is None:
        # (sv)^-b J_b J_b grows like tau^(-2b-1) at large tau when b < -1/2
        rule = kernel_tau_rule(hp, max(s, v), (r, u, max(2.0 * hp.beta + 2.0, 1.0)))
    # (s v)^-b J_b(tau s) J_b(tau v) = tau^(2b) g_b(tau s) g_b(tau v), g_b = J_b/x^b finite at 0
    return float(_tau_sum(hp, r, s, u, v, rule, -hp.beta,
                          (2.0 * hp.beta + 2.0) * np.log(rule.nodes), 0.0))


def kernel_at_origin(hp: HeatParams, r, s) -> float:
    """Continuous extension of the weighted kernel at (u, v) = (0, 0)."""
    return heat_kernel_weighted(hp, r, s, 0.0, 0.0)


def mehler_kernel(alpha, t, tau, r, u) -> float:
    """Closed form of sum_n e^(-4 t tau n) l_n^a(sqrt(tau) u) l_n^a(sqrt(tau) r):

        e^(2 t tau (a+1)) / sinh(2 t tau) * exp(-tau(r^2+u^2)/(2 tanh 2t tau))
        * sqrt(tau r u) * I_a(tau r u / sinh 2t tau).
    """
    alpha = _order_value(alpha, "alpha")
    t, tau, r, u = map(real_value, (t, tau, r, u), ("t", "tau", "r", "u"))
    log_scale = 2.0 * t * tau * (alpha + 1.0) + 0.5 * np.log(tau)
    return float(_kernel_core(alpha, t, tau, r, u, log_scale, np.log(r) + np.log(u)))


def heat_apply(hp: HeatParams, f, points, route: str = "kernel", n_max: int = DEFAULT_N_MAX):
    """Apply the heat semigroup to f at the given (r, s) points; one value
    per point as an (m,) array.

    route "kernel" integrates the closed-form kernel against f over the
    quarter plane; route "spectral" damps the transform by e^(-t lam_n^a tau)
    and inverts.  The two must agree.
    """
    f = as_plane_function(f)
    pts = _points_array(points)
    if route == "spectral":
        return functional_calculus(hp.tp, lambda y: np.exp(-hp.t * y), f, pts, n_max=n_max)
    if route != "kernel":
        raise ValueError("route must be 'kernel' or 'spectral'")

    # the tau envelope drops below ~2e-8 past tau_half; the u and v rules need to resolve
    # gaussian width 1/sqrt(tau) and, by the panel law, wavenumber tau up to there, on
    # panels no wider than f's own widths, and absorb the kernel's u^(a+1/2) and
    # v^(b+1/2) at the origin
    tau_half = 18.0 / _kernel_rate(hp)
    urule = profile_rule(f.axis_profile(0), 3.0 / np.sqrt(tau_half), hp.alpha + 0.5)
    vrule = profile_rule(f.axis_profile(1), panel_width(tau_half), hp.beta + 0.5)
    fvals = np.asarray(f(urule.nodes[:, None], vrule.nodes[None, :]))
    return heat_apply_grid(hp, fvals, urule, vrule, pts)


def heat_apply_grid(hp: HeatParams, fvals, urule: HalfLineRule,
                    vrule: HalfLineRule, points):
    """Kernel route for a function known by its values on the tensor of the
    two rules (e.g. the output of a previous application); an (m,) array."""
    fvals = np.asarray(fvals)
    if fvals.shape != (len(urule.nodes), len(vrule.nodes)):
        raise ValueError("fvals must be sampled on urule.nodes x vrule.nodes")
    pts = _points_array(points)
    if not len(pts):
        return np.empty(0)
    trule = kernel_tau_rule(hp, freq=max(float(pts[:, 1].max()), 1.0))
    return _kernel_route(hp, fvals, urule, vrule, pts, trule)


def _kernel_route(hp, fvals, urule, vrule, pts, trule):
    tau = trule.nodes
    liouville = partial(_liouville_kernel, hp.beta)
    # h(tau, u) = w_u sum_v w_v (tau v)^(1/2) J_b(tau v) f(u, v) first, shared by every point
    h = _kernel_apply(liouville, vrule.nodes, vrule.weights, fvals.T, tau)  # (K, n_u)
    h *= urule.weights

    def contract_core(r):
        b = np.empty(len(tau), h.dtype)
        log_ru = np.log(r) + np.log(urule.nodes[None, :])
        # blocks of at most BLOCK doubles (column_blocks' own reach twice that):
        # the core's temporaries are several times its block
        for rows in column_blocks(2 * len(urule.nodes), len(tau)):
            tau_rows = tau[rows, None]
            core = _kernel_core(hp.alpha, hp.t, tau_rows, r, urule.nodes[None, :],
                                2.0 * np.log(tau_rows), log_ru)
            np.vecdot(core, h[rows], out=b[rows])
        return b

    # b(tau) of every distinct r, then for blocks of distinct s the tau -> s step
    # of all of them at once, keeping each block's own points (no (n_s, n_r)
    # table); w_tau / tau takes back the tau^(1/2) of the two Liouville kernels
    r_unique, r_col = np.unique(pts[:, 0], return_inverse=True)
    s_unique, s_col = np.unique(pts[:, 1], return_inverse=True)
    b = np.stack(parallel_map(contract_core, r_unique), axis=1)  # (K, n_r)
    out = np.empty(len(pts), b.dtype)
    for cols in column_blocks(len(r_unique), len(s_unique), min_width=64):
        idx = np.flatnonzero((s_col >= cols.start) & (s_col < cols.stop))
        vals = _kernel_apply(liouville, tau, trule.weights / tau, b, s_unique[cols])
        out[idx] = vals[s_col[idx] - cols.start, r_col[idx]]
    return out


def diagonal_profile(kind: str, tp: TypePair, x_grid) -> np.ndarray:
    """Diagonal kernel sections at t = 1/2 used to tell extensions apart.

    F1(s) = int J_b(tau s)^2 e^(-tau coth tau) I_a(tau/sinh tau) tau^2/sinh tau
    F2(r) = same with J_b(tau)^2, arguments tau r^2 in the exponential and I_a.

    As the argument tends to 0, F1 scales like s^(2b) and F2 like r^(2a).
    F1(s) = K((1,s),(1,s))/s and F2(r) = K((r,1),(r,1))/r: at each point _tau_sum on
    heat_kernel's rule but on bare J_b, with the 1/x in the exponent, so that F1 ~ s^(2b)
    and F2 ~ r^(2a) hold below the double range's square root.
    """
    if kind not in ("F1", "F2"):
        raise ValueError("kind must be 'F1' or 'F2'")
    x_grid = real_value(np.atleast_1d(x_grid), "x_grid")
    hp = HeatParams(0.5, tp)
    out = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        r, s = (1.0, x) if kind == "F1" else (x, 1.0)
        rule = kernel_tau_rule(hp, s, (r, r, 2.0))
        out[i] = _tau_sum(hp, r, s, r, s, rule, 0.0, 2.0 * np.log(rule.nodes) - np.log(r),
                          2.0 * np.log(r))
    return out
