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
from typing import Optional

import numpy as np

from ._util import column_blocks, parallel_map, real_value
from .gtransform import (Multiplier, TypePair, _points_array, as_plane_function,
                         functional_calculus)
from .hankel import profile_rule
from .quadrature import HalfLineRule, TruncationPolicy, build_rule
from .specfun import bessel_i_normalized_exp, bessel_j_normalized, bessel_j_table

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
    "kernel_tau_rule",
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


def kernel_tau_rule(hp: HeatParams, freq: float) -> HalfLineRule:
    """tau rule for the kernel integrals: oscillation at frequency <= freq
    under the exponential envelope of rate 2t(1 + min(alpha, 0)), absorbing
    the integrand's factor tau^(2b+1) at tau -> 0 when b < 0."""
    rate = 2.0 * hp.t * (1.0 + min(hp.alpha, 0.0))
    policy = TruncationPolicy(abs_tol=_KERNEL_TOL * 1e-4, decay_hint="exponential",
                              rate=rate, freq_bound=max(freq, 1e-6),
                              endpoint_exponent=_tau_exponent(hp.beta))
    return build_rule(policy)


def _tau_exponent(beta):
    # the tau integrand goes as tau^(2b+1) at 0, with an unbounded derivative
    # when b < 0; for b >= 0 the first panel's h^(2b+2) underflows past b ~ 33
    return 2.0 * beta + 1.0 if beta < 0.0 else 0.0


def _inv_sinh(y):
    # 1/sinh(y) without overflow; floored so arguments built from it stay > 0
    return np.where(y < 300.0, 1.0 / np.sinh(np.minimum(y, 300.0)),
                    2.0 * np.exp(-np.minimum(y, 700.0)))


def _coth(y):
    return np.where(y < 300.0, 1.0 / np.tanh(np.minimum(y, 300.0)), 1.0)


def _log_inv_sinh(y):
    # log(1/sinh y) for y > 0, also where sinh overflows
    return math.log(2.0) - y - np.log(-np.expm1(-2.0 * y))


def _kernel_core(alpha, t, tau, r, u, log_scale):
    """sqrt(r u) exp(-tau(r^2+u^2)/(2 tanh y)) I_a(x) exp(log_scale) / sinh y
    for y = 2 t tau and x = tau r u / sinh y; the kernel's tau integrand
    without its J_b factors at log_scale = log tau^2.  Broadcasts over tau,
    r, u and log_scale.

    x^a sqrt(r u) / sinh y is taken from log tau + log r + log u, so r u
    below the double range keeps its power law; x itself only enters the
    series of I_a(x)/x^a through x^2, where an underflow to 0 is exact."""
    y = 2.0 * t * tau
    log_inv = _log_inv_sinh(y)
    log_ru = np.log(r) + np.log(u)
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
        rule = kernel_tau_rule(hp, freq=max(s, v))
    tau = rule.nodes
    integrand = bessel_j_table(hp.beta, tau * s) * bessel_j_table(hp.beta, tau * v) \
        * _kernel_core(hp.alpha, hp.t, tau, r, u, 2.0 * np.log(tau))
    return float(np.sqrt(s * v) * np.dot(rule.weights, integrand))


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
    return _weighted_kernel(hp, r, s, u, v, rule)


def kernel_at_origin(hp: HeatParams, r, s) -> float:
    """Continuous extension of the weighted kernel at (u, v) = (0, 0)."""
    return _weighted_kernel(hp, r, s, 0.0, 0.0, None)


def _weighted_kernel(hp, r, s, u, v, rule):
    r, s = map(real_value, (r, s), "rs")
    if rule is None:
        rule = kernel_tau_rule(hp, freq=max(s, v))
    tau = rule.nodes
    y = 2.0 * hp.t * tau
    inv = _inv_sinh(y)
    # at u = v = 0 the normalized Bessel factors take their limits
    # 2^-b/Gamma(b+1) and 2^-a/Gamma(a+1)
    expo = -0.5 * tau * (r * r + u * u) * _coth(y)
    integrand = bessel_j_normalized(hp.beta, tau * s) \
        * bessel_j_normalized(hp.beta, tau * v) \
        * bessel_i_normalized_exp(hp.alpha, tau * r * u * inv, expo) \
        * (tau * inv) ** (hp.alpha + 1.0) * tau ** (2.0 * hp.beta + 1.0)
    return float(np.dot(rule.weights, integrand))


def mehler_kernel(alpha, t, tau, r, u) -> float:
    """Closed form of sum_n e^(-4 t tau n) l_n^a(sqrt(tau) u) l_n^a(sqrt(tau) r):

        e^(2 t tau (a+1)) / sinh(2 t tau) * exp(-tau(r^2+u^2)/(2 tanh 2t tau))
        * sqrt(tau r u) * I_a(tau r u / sinh 2t tau).
    """
    log_scale = 2.0 * t * tau * (alpha + 1.0) + 0.5 * np.log(tau)
    return float(_kernel_core(alpha, t, tau, r, u, log_scale))


def heat_apply(hp: HeatParams, f, points, route: str = "kernel", n_max: int = 96):
    """Apply the heat semigroup to f at the given (r, s) points; one value
    per point as an (m,) array.

    route "kernel" integrates the closed-form kernel against f over the
    quarter plane; route "spectral" damps the transform by e^(-t lam_n^a tau)
    and inverts.  The two must agree.
    """
    f = as_plane_function(f)
    pts = _points_array(points)
    if route == "spectral":
        phi = Multiplier(lambda y: np.exp(-hp.t * y))
        return functional_calculus(hp.tp, phi, f, pts, n_max=n_max)
    if route != "kernel":
        raise ValueError("route must be 'kernel' or 'spectral'")

    # the tau envelope drops below ~2e-8 past tau_half; the u and v rules only
    # need to resolve gaussian width 1/sqrt(tau) and frequency tau up to there,
    # and absorb the kernel's factors u^(a+1/2) and v^(b+1/2) at the origin
    rate = 2.0 * hp.t * (1.0 + min(hp.alpha, 0.0))
    tau_half = 18.0 / rate
    urule = profile_rule(f.axis_profile(0), min(0.15, 1.5 / np.sqrt(tau_half)), hp.alpha + 0.5)
    vrule = profile_rule(f.axis_profile(1), min(0.15, np.pi / (2.0 * tau_half)), hp.beta + 0.5)
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
    trule = kernel_tau_rule(hp, freq=max(float(pts[:, 1].max()), 1.0))
    return _kernel_route(hp, fvals, urule, vrule, pts, trule)


def _kernel_route(hp, fvals, urule, vrule, pts, trule):
    tau = trule.nodes
    un, uw = urule.nodes, urule.weights
    vn, vw = vrule.nodes, vrule.weights

    # the Hankel transform in s first, shared by every point:
    # h(tau, u) = w_u sum_v w_v sqrt(v) J_b(tau v) f(u, v), in tau-row
    # blocks of at least 64 rows, so that a block times f stays a matrix
    # product even when n_v alone fills a block
    h = np.empty((len(tau), len(un)))
    weighted_v = np.sqrt(vn) * vw

    def hankel_rows(rows):
        jv_rows = bessel_j_table(hp.beta, tau[rows, None] * vn[None, :])
        jv_rows *= weighted_v
        h[rows] = jv_rows @ fvals.T

    parallel_map(hankel_rows, column_blocks(len(vn), len(tau), min_width=64))
    h *= uw

    # the s kernel columns are shared by every r group
    s_unique, s_col = np.unique(pts[:, 1], return_inverse=True)
    j_s = bessel_j_table(hp.beta, tau[:, None] * s_unique[None, :]) \
        * np.sqrt(s_unique)[None, :] * trule.weights[:, None]  # (K, nsu)
    core_rows = column_blocks(len(un), len(tau))
    out = np.empty(len(pts))

    def run_group(item):
        r, idxs = item
        b = np.empty(len(tau))
        for rows in core_rows:
            tau_rows = tau[rows, None]
            core = _kernel_core(hp.alpha, hp.t, tau_rows, r, un[None, :],
                                2.0 * np.log(tau_rows))
            b[rows] = np.einsum("ij,ij->i", core, h[rows])
        vals = b @ j_s                                         # (nsu,)
        out[idxs] = vals[s_col[idxs]]

    groups: dict[float, list[int]] = {}
    for idx, (r, _) in enumerate(pts):
        groups.setdefault(float(r), []).append(idx)
    parallel_map(run_group, [(r, np.asarray(idxs)) for r, idxs in groups.items()])
    return out


def diagonal_profile(kind: str, tp: TypePair, x_grid) -> np.ndarray:
    """Diagonal kernel sections at t = 1/2 used to tell extensions apart.

    F1(s) = int J_b(tau s)^2 e^(-tau coth tau) I_a(tau/sinh tau) tau^2/sinh tau
    F2(r) = same with J_b(tau)^2, arguments tau r^2 in the exponential and I_a.

    As the argument tends to 0, F1 scales like s^(2b) and F2 like r^(2a).
    Both are the kernel core at t = 1/2 (r = u = 1 for F1, r = u for F2)
    times J_b^2, tabulated over blocks of grid points.
    """
    if kind not in ("F1", "F2"):
        raise ValueError("kind must be 'F1' or 'F2'")
    x_grid = real_value(np.atleast_1d(x_grid), "x_grid")
    # envelope: exp(-tau) from coth, tau^2/sinh ~ e^(-tau), and for a < 0 the
    # Bessel factor contributes growth e^(|a| tau) through its small argument
    rate = (2.0 if kind == "F1" else 1.0) + min(tp.alpha, 0.0)
    freq = 2.0 * max(float(x_grid.max()), 1.0)
    policy = TruncationPolicy(abs_tol=1e-12, decay_hint="exponential", rate=rate,
                              freq_bound=freq, endpoint_exponent=_tau_exponent(tp.beta))
    rule = build_rule(policy)
    tau = rule.nodes
    log_tau2 = 2.0 * np.log(tau)
    out = np.empty(len(x_grid))
    for cols in column_blocks(len(tau), len(x_grid)):
        x = x_grid[cols, None]
        s, r = (x, 1.0) if kind == "F1" else (1.0, x)
        # the core carries sqrt(r u) = r, which F2 leaves out
        table = bessel_j_table(tp.beta, tau * s) ** 2 \
            * _kernel_core(tp.alpha, 0.5, tau, r, r, log_tau2 - np.log(r))
        out[cols] = table @ rule.weights
    return out
