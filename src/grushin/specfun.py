"""Special functions used by every transform and kernel.

Bessel J_nu and I_nu for real order nu > -1, their normalized forms
J_nu(x)/x^nu and I_nu(x)/x^nu, finite at x = 0 (every J_nu value, bessel_j's
too, is read by _bessel_j_scaled; bessel_i is scipy's iv), Laguerre
polynomials, and the (scaled) Laguerre functions of Hermite type

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
from decimal import Decimal, localcontext
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy import special as sp
from scipy.special import ive, jv

from ._util import column_blocks, count_value, real_value

__all__ = [
    "LaguerreIndex",
    "log_gamma",
    "bessel_j",
    "bessel_i",
    "bessel_j_normalized",
    "bessel_i_normalized",
    "laguerre_poly",
    "laguerre_fn",
    "laguerre_fn_seq",
    "laguerre_eigenvalue",
]


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


def _order_value(nu, name="order", upper=math.inf) -> float:
    return real_value(nu, name, -1.0, upper=upper)


def _laguerre_alpha(alpha) -> float:
    """The order of the Laguerre recurrence, in (-1, 1e4].  Its start takes
    lnGamma(a+1), whose rounding grows with a: at the peak x^2 = a + 1/2, l_0^a
    is off by 3.1e-12 relative at a = 1e4 and 9.7e-10 at 1e6."""
    return _order_value(alpha, "alpha", 1e4)


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    out = sp.gammaln(real_value(x, "x"))
    return float(out) if out.ndim == 0 else out


def laguerre_eigenvalue(alpha, n):
    """Eigenvalue lam_n^a = 2(2n + a + 1) of the Laguerre-type operator."""
    alpha = _order_value(alpha)
    return 2.0 * (2.0 * np.asarray(count_value(n, "n", 0)) + alpha + 1.0)


def _bessel_args(nu, x, normalized=False):
    # x >= 0, but x > 0 where J_nu and I_nu diverge at 0 (nu < 0); the
    # normalized forms J_nu(x)/x^nu and I_nu(x)/x^nu are finite there
    nu = _order_value(nu)
    return nu, np.asarray(real_value(x, "x", 0.0, closed=normalized or nu >= 0.0))


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


def _hankel_expansion(nu, x, shift):
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
    return _times_power(out, x, nu, shift)


def _half_order(nu, x, shift):
    # J_1/2(x) = sqrt(2/(pi x)) sin x,  J_-1/2(x) = sqrt(2/(pi x)) cos x: kept as
    # the fast path of the (-1/2, -1/2) kernels, 22 ns a value against 26-29 ns for
    # the Taylor table (x <= 30) and 24-25 against 62-63 ns for Hankel's (x > 30)
    trig = np.sin(x) if nu > 0.0 else np.cos(x)
    return _times_power(np.sqrt((2.0 / np.pi) / x) * trig, x, nu, shift)


def _scipy_jv(nu, x, shift):
    # jv is looked up at each call, so that a rebinding of specfun.jv is seen
    return _times_power(jv(nu, x), x, nu, shift)


def _times_power(j, x, nu, shift):
    # x^shift J_nu(x) from a fresh array j of J_nu(x): g as J_nu(x)/x^nu, the
    # other forms as J_nu(x) x^shift (x^1/2 is numpy's sqrt)
    if shift == -nu != 0.0:
        j /= x ** nu
    elif shift:
        j *= x ** shift
    return j


# Up to _HANKEL_CUT, J_nu(x) = x^nu g(x) with g = J_nu/x^nu entire, and g is
# its Taylor polynomial of this degree about the nearest integer; the
# coefficients are taken in decimal arithmetic at _TAYLOR_DIGITS digits
_TAYLOR_DEGREE = 15
_TAYLOR_DIGITS = 50
# log sqrt(2 pi), and the Bernoulli numbers B_2, B_4, ..., B_20 of Stirling's series
_LOG_SQRT_2PI = Decimal("0.9189385332046727417803297364056176398613974736377834128")
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))


def _decimal_log_gamma(z):
    """log Gamma(z) for a decimal z > 0 in the current decimal context:
    Stirling's series at z + 40 with ten terms (the first neglected one is
    below 3e-33), shifted back by Gamma(z + 40) = z (z+1) ... (z+39) Gamma(z)."""
    w = z + 40
    log = (w - Decimal("0.5")) * w.ln() - w + _LOG_SQRT_2PI
    for k, (num, den) in enumerate(_BERNOULLI, 1):
        log += Decimal(num) / (den * 2 * k * (2 * k - 1) * w ** (2 * k - 1))
    rise = Decimal(1)
    for i in range(40):
        rise *= z + i
    return log - rise.ln()


@lru_cache(maxsize=64)
def _taylor_coefficients(nu):
    """Taylor coefficients of g(x) = J_nu(x)/x^nu about c = 0, 1, ...,
    _HANKEL_CUT, as a (_TAYLOR_DEGREE + 1, cut + 1) table, lowest degree
    first; the polynomial about c serves |x - c| <= 1/2.

    Each is rounded to a float once, from _TAYLOR_DIGITS-digit decimals with
    the prefactor 2^-nu/Gamma(nu+1) folded in.  g(c) and c g'(c) are summed
    from the power series sum_k (-c^2/4)^k/(k! (nu+1)_k), whose terms grow to
    about e^c before they cancel; the higher coefficients a_j follow from
    x g'' + (2 nu + 1) g' + x g = 0, which about c reads

        c (j+1)(j+2) a_j+2 = -(j+1)(j+2 nu+1) a_j+1 - c a_j - a_j-1

    and about 0 a_j+2 = -a_j/((j+2)(j+2+2 nu)).  The recurrence loses at most
    15 digits (at c = 1); the terms past the degree add up to less than 2e-17
    of sum_j |a_j| 2^-j on every panel for -1 < nu <= 150, as the
    coefficients fall faster the larger the order."""
    with localcontext() as ctx:
        ctx.prec = _TAYLOR_DIGITS
        n = Decimal(nu)
        # in logs: past nu = 2e5, Gamma(nu+1) would overflow the decimals
        prefactor = (-n * Decimal(2).ln() - _decimal_log_gamma(n + 1)).exp()
        eps = Decimal(10) ** -_TAYLOR_DIGITS
        table = []
        for c in map(Decimal, range(int(_HANKEL_CUT) + 1)):
            q = c * c / 4
            # the terms rise and then fall, so the first one below eps times
            # the largest ends the sum
            term, k, g, cdg, big = Decimal(1), 0, Decimal(0), Decimal(0), Decimal(1)
            while abs(term) >= eps * big:
                g += term
                cdg += 2 * k * term
                k += 1
                term *= -q / (k * (n + k))
                big = max(big, abs(term))
            a = [g, cdg / c if c else Decimal(0)]
            for j in range(_TAYLOR_DEGREE - 1):
                if c:
                    a.append(-((j + 1) * (j + 2 * n + 1) * a[j + 1] + c * a[j]
                               + (a[j - 1] if j else 0)) / (c * (j + 1) * (j + 2)))
                else:
                    a.append(-a[j] / ((j + 2) * (j + 2 + 2 * n)))
            table.append([float(v * prefactor) for v in a])
    table = np.array(table).T
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _taylor_table(nu, x, shift):
    """x^shift J_nu(x) = x^(nu + shift) g(x) for 0 <= x <= _HANKEL_CUT, g by
    Horner's rule on the Taylor coefficients of each argument's nearest
    integer; no power at all for g itself."""
    centre = (x + 0.5).astype(np.intp)
    a = np.take(_taylor_coefficients(nu), centre, axis=1)
    t = x - centre
    out = a[-1]
    for row in a[-2::-1]:
        out *= t
        out += row
    if nu + shift:
        out *= x ** (nu + shift)
    return out


def _fill(out, take, fn, nu, x, shift):
    # out[take] = fn(nu, x[take], shift), without the copies when take is all or none
    if take.all():
        out[:] = fn(nu, x, shift)
    elif take.any():
        out[take] = fn(nu, x[take], shift)


# the largest double: no branch interval lo < x <= hi holds inf or nan
_FINITE_MAX = np.finfo(float).max
_TINY = np.finfo(float).tiny


def _bessel_j_scaled(nu, x, shift):
    """x^shift J_nu(x) for an order nu > -1 (not validated here), the shape
    of x kept: J_nu at shift 0, g = J_nu/x^nu at -nu, sqrt(x) J_nu at 1/2.

    Up to x = 30 at every order, x^(nu + shift) g(x) from the Taylor table;
    past 30, Hankel's expansion for |nu| <= 12.5; at nu = +-1/2, the closed
    forms for every x > 0.  scipy's jv takes the rest.  From nu = 149.9 on,
    the table's g(0) = 2^-nu/Gamma(nu+1) is subnormal, so only g itself is
    read from it: x^(nu + shift) could not bring back the digits lost."""
    p = nu + shift
    x = np.asarray(x, dtype=float)
    half = abs(nu) == 0.5
    # the table's (lo, hi] holds x = 0 where x^p is finite there; at
    # nu = +-1/2 only g is read from it, and only at x = 0
    lo = -math.ulp(0.0) if p >= 0.0 else 0.0
    taylor = p == 0.0 or not half and _taylor_coefficients(nu)[0, 0] >= _TINY
    branches = [(_taylor_table, lo, 0.0 if half else _HANKEL_CUT)] if taylor else []
    if half:
        branches.append((_half_order, 0.0, _FINITE_MAX))
    elif _hankel_coefficients(nu) is not None:
        branches.append((_hankel_expansion, _HANKEL_CUT, _FINITE_MAX))
    flat = x.ravel()
    out = np.empty_like(flat)
    # a block's gathered Taylor coefficients, if any, fill about BLOCK
    # doubles; blocks of >= 4096 values, so that each branch runs in bulk
    rows = _TAYLOR_DEGREE + 1 if taylor else 1
    for cols in column_blocks(rows, flat.size, min_width=4096):
        xb, ob = flat[cols], out[cols]
        rest = np.ones(xb.shape, dtype=bool)
        for fn, lo, hi in branches:
            take = xb > lo
            take &= xb <= hi
            _fill(ob, take, fn, nu, xb, shift)
            rest &= ~take
        _fill(ob, rest, _scipy_jv, nu, xb, shift)
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x), nu > -1, x >= 0, the shape
    of x kept: _bessel_j_scaled at shift 0, the table every kernel reads.
    Against 30-digit mpmath, J_nu is within 2e-15 absolute and sqrt(x) J_nu(x)
    on [1e-4, 30] within 4e-15 (scipy's jv is off by up to 5e-14 there at
    non-integer orders)."""
    return _bessel_j_scaled(*_bessel_args(nu, x), 0.0)


def bessel_i(nu, x):
    """Modified Bessel function of the first kind I_nu(x), nu > -1, x >= 0.

    scipy's iv, on purpose: x^nu bessel_i_normalized_exp(nu, x, 0) is up to
    5.8e-14 from 30-digit mpmath on [1e-6, 700] (ive past the series cut is
    3-4e-14 off on (15, 20], and exp of a rounded argument costs up to 5e-14
    near x = 700), where iv is within 1.4e-15."""
    out = sp.iv(*_bessel_args(nu, x))  # the limit at x = 0 too: 1 at nu = 0, else 0
    return float(out) if out.ndim == 0 else out


def bessel_j_normalized(nu, x):
    """J_nu(x)/x^nu, extended by continuity to 2^-nu/Gamma(nu+1) at x = 0:
    the Taylor table's g itself up to x = 30, at every order."""
    nu, x = _bessel_args(nu, x, normalized=True)
    return _bessel_j_scaled(nu, x, -nu)


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


_RESCALE_PERIOD = 8


def _laguerre_steps(alpha, x, n_max) -> Iterator[tuple]:
    """Yield (cur, scale) with l_n^a(x) = cur * scale for n < n_max, x > 0: the
    orthonormal three-term recurrence (DLMF 18.9.1) run directly on the
    weighted functions, with a per-element log-scale so that no intermediate
    value overflows or underflows.  cur is a rotating buffer that the next
    step overwrites; scale is exactly 1 where no entry was rescaled, and a
    new array only after a rescale.  The arguments are checked at the call.

    A step is ((2n + a + 1 - x^2) cur - c_dn prev) * (1/c_up).  Overflow is
    tested at order 0 and then every _RESCALE_PERIOD orders, on cur and
    prev: where either passes 1e150 both are multiplied by 1e-300.  The
    schedule depends on n alone, so an entry rescales at the same orders
    whatever its block.  Between two tests an entry grows by at most
    prod rho_n, rho_n = (|2n + a + 1 - x^2| + c_dn)/c_up, and a step's products
    by c_up rho_n more; from 1e150, eight steps stay below 10^306.7 < DBL_MAX
    for every x^2 <= X = 1e19 + 4a and every double a in (-1, 1e4] (the range
    of _laguerre_alpha), the worst case being n = 0 at a = -1 + 2^-53, where
    c_up = sqrt(1 + a).  So x is clamped to sqrt(X).  That moves no value:
    there l_0^a < e^(-4.9e18), so the scale exp(off) is 0 and stays 0 (off
    gains at most 690.8 per test) for any n_max that can run, and past the
    turning point x^2 = 4n + 2a + 2 |l_n^a| falls with x; every l_n^a at or
    past the clamp is an exact zero."""
    alpha = _laguerre_alpha(alpha)
    x = np.minimum(real_value(x, "x"), math.sqrt(1e19 + 4.0 * alpha))
    return _recurrence(alpha, x, count_value(n_max, "n_max", 1))


def _recurrence(alpha, x, n_max) -> Iterator[tuple]:
    """_laguerre_steps on checked arguments.  A generator of its own, so that
    _laguerre_steps, a plain function, checks them at the call, not at the
    first order asked for."""
    x2 = x * x
    g0 = 0.5 * np.log(2.0) - 0.5 * sp.gammaln(alpha + 1.0) - 0.5 * x2 \
        + (alpha + 0.5) * np.log(x)
    off = np.where(g0 < -600.0, g0 + 300.0, 0.0)
    scale = np.exp(off)
    # three rotating buffers, stepped in place
    prev = np.zeros_like(x2)
    cur = np.asarray(np.exp(g0 - off))  # an array even for a scalar x
    del g0, x  # the generator's frame would hold them through every order
    nxt = np.empty_like(x2)
    rescale = 300.0 * np.log(10.0)
    for n in range(n_max):
        if n % _RESCALE_PERIOD == 0 and max(cur.max(initial=0.0), -cur.min(initial=0.0),
                                            prev.max(initial=0.0),
                                            -prev.min(initial=0.0)) > 1e150:
            big = (np.abs(cur) > 1e150) | (np.abs(prev) > 1e150)
            np.multiply(prev, 1e-300, out=prev, where=big)
            np.multiply(cur, 1e-300, out=cur, where=big)
            np.add(off, rescale, out=off, where=big)
            scale = np.exp(off)
        yield cur, scale
        if n + 1 == n_max:
            return
        c_dn = math.sqrt(n * (n + alpha)) if n else 0.0
        np.subtract(2 * n + alpha + 1.0, x2, out=nxt)
        nxt *= cur
        prev *= c_dn
        nxt -= prev
        nxt *= 1.0 / math.sqrt((n + 1.0) * (n + alpha + 1.0))
        prev, cur, nxt = cur, nxt, prev


def laguerre_fn_seq(alpha, x, n_max) -> Iterator[np.ndarray]:
    """Yield l_0^a(x), ..., l_{n_max-1}^a(x) for an array of arguments x > 0,
    each freshly allocated and safe to retain; entries whose true magnitude
    is below the double-precision floor come out as exact zeros.  The
    arguments are checked at the call, before any order is asked for."""
    return (cur * scale for cur, scale in _laguerre_steps(alpha, x, n_max))


def laguerre_fn(idx: LaguerreIndex, r):
    """Scaled Laguerre function of Hermite type l_{n,tau}^{a}(r), r > 0."""
    x = np.sqrt(idx.tau) * np.asarray(r, dtype=float)
    for val in laguerre_fn_seq(idx.alpha, x, idx.n + 1):
        pass  # the last order is l_n^a
    out = idx.tau**0.25 * val
    return float(out) if out.ndim == 0 else out
