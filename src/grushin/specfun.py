"""Special functions used by every transform and kernel.

Bessel J_nu and I_nu for real order nu > -1, their small-argument normalized
forms J_nu(x)/x^nu and I_nu(x)/x^nu, Laguerre polynomials, and the
(scaled) Laguerre functions of Hermite type

    l_n^a(x)      = c_{n,a} L_n^a(x^2) exp(-x^2/2) x^(a+1/2),
    l_{n,tau}^a(r) = tau^(1/4) l_n^a(sqrt(tau) r),

with c_{n,a} = (2 Gamma(n+1)/Gamma(n+a+1))^(1/2).  The scaled functions form
an orthonormal basis of L^2(0, inf) and are eigenfunctions of
-d^2/dr^2 + (a^2-1/4)/r^2 + tau^2 r^2 with eigenvalues lam_n^a * tau,
lam_n^a = 2(2n+a+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy import special as sp
from scipy.special import ive, jv

from ._util import column_blocks, count_value, real_value

__all__ = [
    "Order",
    "LaguerreIndex",
    "log_gamma",
    "bessel_j",
    "bessel_j_table",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_j_normalized",
    "bessel_i_normalized",
    "laguerre_poly",
    "laguerre_fn",
    "laguerre_fn_seq",
    "laguerre_eigenvalue",
]


@dataclass(frozen=True)
class Order:
    """Real order parameter, restricted to nu > -1."""

    nu: float

    def __post_init__(self):
        _order_value(self.nu)


@dataclass(frozen=True)
class LaguerreIndex:
    """Index (n, alpha, tau) of a scaled Laguerre function of Hermite type."""

    n: int
    alpha: float
    tau: float

    def __post_init__(self):
        count_value(self.n, "n", 0)
        _order_value(self.alpha, "alpha")
        real_value(self.tau, "tau")


def _order_value(nu, name="order") -> float:
    return real_value(nu.nu if isinstance(nu, Order) else nu, name, -1.0)


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    out = sp.gammaln(real_value(x, "x"))
    return float(out) if out.ndim == 0 else out


def laguerre_eigenvalue(alpha, n):
    """Eigenvalue lam_n^a = 2(2n + a + 1) of the Laguerre-type operator."""
    alpha = _order_value(alpha)
    return 2.0 * (2.0 * np.asarray(n) + alpha + 1.0)


def _bessel_args(nu, x, normalized=False):
    # x >= 0, but x > 0 where J_nu and I_nu diverge at 0 (nu < 0); the
    # normalized forms J_nu(x)/x^nu and I_nu(x)/x^nu are finite there
    nu = _order_value(nu)
    return nu, np.asarray(real_value(x, "x", 0.0, closed=normalized or nu >= 0.0))


def _at_zero(nu, x, values):
    # limit value at x = 0: 1 for nu = 0, 0 for nu > 0 (nu < 0 rejected earlier)
    if np.any(x == 0.0):
        values = np.where(x == 0.0, 1.0 if nu == 0.0 else 0.0, values)
    return values


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x), nu > -1, x >= 0.

    Always scipy's value: the independent reference for `bessel_j_table`."""
    nu, x = _bessel_args(nu, x)
    out = _at_zero(nu, x, jv(nu, x))
    return float(out) if np.ndim(out) == 0 else out


# Hankel's expansion (DLMF 10.17.3) is used past this argument, with enough
# terms that the first neglected ones are below _HANKEL_TOL relative to the
# amplitude sqrt(2/(pi x)); orders that would need more than
# _HANKEL_MAX_TERMS terms in each series stay on scipy
_HANKEL_CUT = 30.0
_HANKEL_TOL = 2.0**-53
_HANKEL_MAX_TERMS = 12


@lru_cache(maxsize=64)
def _hankel_coefficients(nu):
    """Signed coefficients (-1)^k a_2k(nu) and (-1)^k a_2k+1(nu) of P and Q in
    Hankel's expansion, as polynomials in 1/x^2, highest power first; None
    when the order needs more than _HANKEL_MAX_TERMS terms.

    Both series stop at the same m >= |nu| - 1/2 terms, from which each
    remainder is bounded by its first neglected term (DLMF 10.17(iii)); m is
    the least such count whose neglected terms a_2m/x^2m and a_2m+1/x^2m+1
    are below _HANKEL_TOL at x = _HANKEL_CUT.  That is 7-8 terms for |nu| <= 5
    and 12 at nu = 12; every |nu| <= 12.5 fits, no larger order does."""
    mu = 4.0 * nu * nu
    a = [1.0]
    for k in range(1, 2 * _HANKEL_MAX_TERMS + 2):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))

    def small(m):
        return all(abs(a[k]) / _HANKEL_CUT**k < _HANKEL_TOL for k in (2 * m, 2 * m + 1))

    m = max(1, math.ceil(abs(nu) - 0.5))
    while m <= _HANKEL_MAX_TERMS and not small(m):
        m += 1
    if m > _HANKEL_MAX_TERMS:
        return None
    p = tuple((-1) ** k * a[2 * k] for k in reversed(range(m)))
    q = tuple((-1) ** k * a[2 * k + 1] for k in reversed(range(m)))
    return p, q


def _hankel_expansion(nu, x):
    """J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (nu/2 + 1/4) pi,
    with cos w and sin w expanded so that only cos x and sin x of the exact
    argument are taken (no phase lost to rounding x - w)."""
    pc, qc = _hankel_coefficients(nu)
    y = x * x
    np.reciprocal(y, out=y)
    p = np.full_like(x, pc[0])
    q = np.full_like(x, qc[0])
    for cp, cq in zip(pc[1:], qc[1:]):
        p *= y
        p += cp
        q *= y
        q += cq
    q /= x
    w = (0.5 * nu + 0.25) * np.pi
    cw, sw = math.cos(w), math.sin(w)
    # cos x (P cos w + Q sin w) + sin x (P sin w - Q cos w)
    out = p * cw
    out += q * sw
    out *= np.cos(x)
    p *= sw
    q *= cw
    p -= q
    p *= np.sin(x)
    out += p
    np.divide(2.0 / np.pi, x, out=y)
    out *= np.sqrt(y, out=y)
    return out


def _half_order(nu, x):
    # J_1/2(x) = sqrt(2/(pi x)) sin x,  J_-1/2(x) = sqrt(2/(pi x)) cos x
    trig = np.sin(x) if nu > 0.0 else np.cos(x)
    return np.sqrt((2.0 / np.pi) / x) * trig


def bessel_j_table(nu, x):
    """J_nu(x) for the kernel tables; x > 0 (zero is passed on to scipy).

    Three branches: the closed forms at nu = +-1/2 for every x > 0; Hankel's
    expansion past x = 30 with an order-dependent number of terms, for
    |nu| <= 12.5 only; scipy's jv for the rest.  The expansion agrees with
    scipy within 2e-15 absolute, the closed forms with mpmath to rounding.
    The shape of x is kept."""
    nu = _order_value(nu)
    x = np.asarray(x, dtype=float)
    if abs(nu) == 0.5:
        fast_fn, cut = _half_order, 0.0
    elif _hankel_coefficients(nu) is not None:
        fast_fn, cut = _hankel_expansion, _HANKEL_CUT
    else:
        fast_fn, cut = None, np.inf
    flat = x.ravel()
    out = np.empty_like(flat)
    # blocks keep the branch temporaries cache-resident
    for cols in column_blocks(1, flat.size):
        xb, ob = flat[cols], out[cols]
        # zero and non-finite arguments go to scipy
        fast = xb > cut
        fast &= xb < np.inf
        if not fast.any():
            ob[:] = jv(nu, xb)
        elif fast.all():
            ob[:] = fast_fn(nu, xb)
        else:
            ob[fast] = fast_fn(nu, xb[fast])
            slow = ~fast
            ob[slow] = jv(nu, xb[slow])
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def bessel_i(nu, x):
    """Modified Bessel function of the first kind I_nu(x), nu > -1, x >= 0."""
    nu, x = _bessel_args(nu, x)
    out = _at_zero(nu, x, sp.iv(nu, x))
    return float(out) if np.ndim(out) == 0 else out


def bessel_i_scaled(nu, x):
    """Overflow-safe exp(-x) I_nu(x); pairs with decaying exponentials."""
    nu, x = _bessel_args(nu, x)
    out = _at_zero(nu, x, sp.ive(nu, x))
    return float(out) if np.ndim(out) == 0 else out


_SMALL_ARG = 1e-6


def _j_normalized_series(nu, x):
    # J_nu(x)/x^nu = 2^-nu/Gamma(nu+1) (1 - y/(nu+1) + y^2/(2(nu+1)(nu+2)) - ...),
    # y = x^2/4; three terms leave a relative error ~ y^3/6 < 1e-40 for x < 1e-6
    y = 0.25 * x * x
    c0 = np.exp(-nu * np.log(2.0) - sp.gammaln(nu + 1.0))
    return c0 * (1.0 - y / (nu + 1.0) + y * y / (2.0 * (nu + 1.0) * (nu + 2.0)))


def bessel_j_normalized(nu, x):
    """J_nu(x)/x^nu, extended by continuity to 2^-nu/Gamma(nu+1) at x = 0."""
    nu, x = _bessel_args(nu, x, normalized=True)
    small = x < _SMALL_ARG
    xs = np.where(small, 1.0, x)
    out = np.where(small, _j_normalized_series(nu, x), bessel_j_table(nu, xs) / xs**nu)
    return float(out) if out.ndim == 0 else out


def bessel_i_normalized(nu, x):
    """I_nu(x)/x^nu, extended by continuity to 2^-nu/Gamma(nu+1) at x = 0."""
    nu, x = _bessel_args(nu, x, normalized=True)
    out = bessel_i_normalized_exp(nu, x, 0.0)
    return float(out) if out.ndim == 0 else out


# I_nu(x)/x^nu is summed as its power series up to this argument and taken
# from scipy's ive past it
_I_SERIES_CUT = 15.0


def _i_series_terms(nu, q):
    """Least n for which the terms of sum_k q^k / (k! (nu+1)_k) from the
    n-th on add up to at most 2^-53 of the first n.  Once the ratio
    q/((n+1)(nu+n+1)) of successive terms is <= 1/2 (it falls with n), that
    remainder is at most twice the n-th term.  n grows with q."""
    n, term, total = 1, 1.0, 1.0
    while True:
        term *= q / (n * (nu + n))
        if term <= 2.0**-54 * total and q <= 0.5 * (n + 1) * (nu + n + 1):
            return n
        total += term
        n += 1


@lru_cache(maxsize=64)
def _i_series_coefficients(nu):
    """1/(k! (nu+1)_k) for every k the series needs up to x = _I_SERIES_CUT."""
    coef = [1.0]
    for k in range(1, _i_series_terms(nu, 0.25 * _I_SERIES_CUT**2)):
        coef.append(coef[-1] / (k * (nu + k)))
    return tuple(coef)


def _i_series(nu, x, log_factor):
    # Horner's rule on the terms the largest x needs; every term is
    # positive, so the sum has no cancellation
    coef = _i_series_coefficients(nu)
    q = 0.25 * x * x
    # the count for the largest q, capped at the cut's (an x = -inf passes
    # the mask) and at len(coef) (the count grows with q only up to rounding)
    q_max = min(float(q.max(initial=0.0)), 0.25 * _I_SERIES_CUT**2)
    n = min(_i_series_terms(nu, q_max), len(coef))
    s = np.full_like(q, coef[n - 1])
    for c in reversed(coef[:n - 1]):
        s *= q
        s += c
    s *= np.exp(log_factor - nu * math.log(2.0) - math.lgamma(nu + 1.0))
    return s


def bessel_i_normalized_exp(nu, x, log_factor):
    """I_nu(x)/x^nu * exp(log_factor) for x >= 0 and a real order nu > -1
    (not validated here); x and log_factor broadcast together.

    Up to x = _I_SERIES_CUT, the power series of I_nu(x)/x^nu, with its
    prefactor 2^-nu/Gamma(nu+1) folded into exp(log_factor): no e^x is
    formed, so nothing overflows, and x = 0 gives the limit.  The number of
    terms follows from the largest x taken (at most 30 at the cut).  Past
    the cut, scipy's ive(nu, x) exp(log_factor + x - nu log x).

    A caller whose x may underflow passes it as it is and adds nu log x,
    summed from finite logs, to log_factor: the series only needs x^2."""
    x, log_factor = np.broadcast_arrays(np.asarray(x, dtype=float),
                                        np.asarray(log_factor, dtype=float))
    series = x <= _I_SERIES_CUT
    if series.all():
        return _i_series(nu, x, log_factor)
    out = np.empty(x.shape)
    big = ~series
    out[big] = ive(nu, x[big]) * np.exp(log_factor[big] + x[big] - nu * np.log(x[big]))
    if series.any():
        out[series] = _i_series(nu, x[series], log_factor[series])
    return out


def laguerre_poly(n, alpha, x):
    """Laguerre polynomial L_n^alpha(x) by the three-term recurrence in n."""
    n = count_value(n, "n", 0)
    alpha = _order_value(alpha)
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(n):
        prev, cur = cur, ((2 * k + alpha + 1.0 - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return float(cur) if cur.ndim == 0 else cur


def laguerre_fn_seq(alpha, x, n_max) -> Iterator[np.ndarray]:
    """Yield l_0^a(x), ..., l_{n_max-1}^a(x) for an array of arguments x > 0.

    Runs the orthonormal three-term recurrence directly on the weighted
    functions, carrying a per-element log-scale so that intermediate values
    neither overflow nor underflow; entries whose true magnitude is below
    the double-precision floor come out as exact zeros.

    Each yielded array is freshly allocated and safe to retain.
    """
    alpha = _order_value(alpha)
    x = np.asarray(real_value(x, "x"))
    x2 = x * x
    g0 = 0.5 * np.log(2.0) - 0.5 * sp.gammaln(alpha + 1.0) - 0.5 * x2 \
        + (alpha + 0.5) * np.log(x)
    off = np.where(g0 < -600.0, g0 + 300.0, 0.0)
    scale = np.exp(off)
    # three rotating buffers; the in-place steps keep the operation order of
    # ((2n + a + 1 - x^2) cur - c_dn prev) / c_up, so every value is unchanged
    prev = np.zeros_like(x2)
    cur = np.asarray(np.exp(g0 - off))  # an array even for a scalar x
    del g0  # the generator's frame would hold it through every order
    nxt = np.empty_like(x2)
    rescale = 300.0 * np.log(10.0)
    for n in range(int(n_max)):
        yield cur * scale
        c_up = np.sqrt((n + 1.0) * (n + alpha + 1.0))
        c_dn = np.sqrt(n * (n + alpha)) if n > 0 else 0.0
        np.subtract(2 * n + alpha + 1.0, x2, out=nxt)
        nxt *= cur
        prev *= c_dn
        nxt -= prev
        nxt /= c_up
        prev, cur, nxt = cur, nxt, prev
        if max(cur.max(initial=0.0), -cur.min(initial=0.0)) > 1e150:
            big = np.abs(cur) > 1e150
            np.multiply(prev, 1e-300, out=prev, where=big)
            np.multiply(cur, 1e-300, out=cur, where=big)
            np.add(off, rescale, out=off, where=big)
            scale = np.exp(off)


def laguerre_fn(idx: LaguerreIndex, r):
    """Scaled Laguerre function of Hermite type l_{n,tau}^{a}(r), r > 0."""
    x = np.sqrt(idx.tau) * np.asarray(r, dtype=float)
    for n, val in enumerate(laguerre_fn_seq(idx.alpha, x, idx.n + 1)):
        if n == idx.n:
            out = idx.tau**0.25 * val
            return float(out) if out.ndim == 0 else out
    raise AssertionError("unreachable")
