"""Executable verification suites.

Each check reproduces one of the exact identities of the transform/kernel
machinery at desk scale and reports pass/fail with a measured error.  The
CLI `verify` subcommand prints one line per check; the test suite asserts
them.  A check registers itself with its suite, criterion, printed name and
tolerance on its decorator line, and runs at that tolerance: no option
loosens it.  J_nu is checked on the kernels' own table and the Laguerre
coefficients on g_forward's analysis kernel; I_nu is scipy's iv (see
specfun.bessel_i).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from . import diffop, gtransform, heat, hankel, laguerre, quadrature, specfun
from .functions import (bump_plane, grid_plane, packet_plane, power_gaussian,
                        power_gaussian_profile, smooth_bump, wave_packet)
from .gtransform import TypePair

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass
class CheckResult:
    criterion: str
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


# suite name -> its checks, in the order they are defined below
SUITES: dict = {}


def _in_suite(suite):
    """Append a check, called as check() -> CheckResult, to a suite."""
    def register(check):
        SUITES.setdefault(suite, []).append(check)
        return check
    return register


def _check(suite, criterion, name, tol, budget=None):
    """Register a check whose body takes no arguments and returns its error,
    or (error, note).  It passes when error <= tol and, given a budget, when
    it finishes in less than budget seconds."""
    def wrap(body):
        @functools.wraps(body)
        def check():
            t0 = time.time()
            out = body()
            err, note = out if isinstance(out, tuple) else (out, "")
            seconds = time.time() - t0
            detail = f"max err {err:.3e} (tol {tol:.1e})" + (f"; {note}" if note else "")
            passed = bool(err <= tol)
            if budget is not None and seconds >= budget:
                passed = False
                detail += f"; over the {budget:g} s budget"
            return CheckResult(criterion, name, passed, detail, seconds)
        check.criterion, check.title = criterion, name
        return _in_suite(suite)(check)
    return wrap


def _rel_l2(got, want, weights=None):
    w = np.ones_like(np.asarray(want, dtype=float)) if weights is None else weights
    num = np.sqrt(np.sum(w * np.abs(got - want) ** 2))
    den = np.sqrt(np.sum(w * np.abs(want) ** 2))
    return num / den


@_check("specfun", "specfun", "half-integer Bessel identities", tol=1e-10)
def check_half_integer_bessel():
    y = np.linspace(0.1, 20.0, 120)
    # for I the difference is taken in exponentially scaled form: the plain
    # difference at y = 20 sits at I ~ 4e7 where doubles cannot express an
    # absolute 1e-10 agreement
    return max(
        np.max(np.abs(specfun.bessel_j(0.5, y) - np.sqrt(2 / (np.pi * y)) * np.sin(y))),
        np.max(np.abs(specfun.bessel_j(-0.5, y) - np.sqrt(2 / (np.pi * y)) * np.cos(y))),
        np.max(np.abs(specfun.bessel_i(0.5, y) - np.sqrt(2 / (np.pi * y)) * np.sinh(y))
               * np.exp(-y)),
        np.max(np.abs(specfun.bessel_i(-0.5, y) - np.sqrt(2 / (np.pi * y)) * np.cosh(y))
               * np.exp(-y)),
    )


@_check("specfun", "specfun", "small-argument power laws", tol=1e-4)
def check_small_argument_laws():
    y = np.linspace(1e-6, 1e-3, 50)
    errs = []
    for nu in (-0.5, 0.3, 0.7, 1.2):
        cj = specfun.bessel_j(nu, y) / y**nu
        ci = specfun.bessel_i(nu, y) / y**nu
        const = np.exp(-nu * np.log(2.0) - specfun.log_gamma(nu + 1.0))
        errs.append(np.max(np.abs(cj / const - 1.0)))
        errs.append(np.max(np.abs(ci / const - 1.0)))
    return max(errs)


@_check("specfun", "specfun", "basis Gram matrix = identity", tol=1e-8)
def check_laguerre_orthonormality():
    errs = []
    for alpha, tau in ((-0.5, 1.0), (0.3, 1.7), (1.2, 0.4)):
        lam = specfun.laguerre_eigenvalue(alpha, 10)
        upper = np.sqrt(lam / tau) + 8.0   # past the classical turning point
        rule = quadrature.build_finite_rule(0.0, upper, np.pi / np.sqrt(lam * tau),
                                            endpoint_exponent=2.0 * alpha + 1.0)
        x = np.sqrt(tau) * rule.nodes
        tab = np.array(list(specfun.laguerre_fn_seq(alpha, x, 11))) * tau**0.25
        gram = (tab * rule.weights) @ tab.T
        errs.append(np.max(np.abs(gram - np.eye(11))))
    return max(errs)


_H_SWEEP = (1.0 / 128, 1.0 / 256, 1.0 / 512)


def _order_sweep(residuals):
    """Measured order over the whole halving sweep, plus per-step ratios."""
    steps = [float(np.log2(a / b)) for a, b in zip(residuals[:-1], residuals[1:])]
    overall = float(np.log2(residuals[0] / residuals[-1]) / (len(residuals) - 1))
    return overall, steps


@_check("specfun", "specfun", "oscillator eigen-relation residual order", tol=0.1)
def check_laguerre_ode_residual():
    alpha, tau, n = 0.3, 1.7, 2
    lam = gtransform.spectral_symbol(alpha, n, tau)
    residuals = []
    for h in _H_SWEEP:
        r = np.arange(0.25, 4.0 + 0.5 * h, h)
        vals = specfun.laguerre_fn(specfun.LaguerreIndex(n, alpha, tau), r)
        _, lv = diffop.apply_radial_operator(alpha, tau, r, vals)
        residuals.append(np.max(np.abs(lv - lam * vals[1:-1])) / np.max(np.abs(vals)))
    steps = _order_sweep(residuals)[1]
    return max(2.0 - min(steps), 0.0), f"orders {['%.2f' % o for o in steps]}"


@_check("hankel", "hankel", "self-inverse on smooth bumps", tol=1e-5)
def check_hankel_self_inverse():
    g = smooth_bump(1.5, 1.0)
    prof = hankel.HalfLineFunction(g, support=(0.5, 2.5))
    errs = []
    for beta in (-0.5, 0.0, 0.5, 1.3):
        trule = quadrature.build_finite_rule(0.0, 150.0, np.pi / (4.0 * 2.5))
        forward = hankel.hankel_liouville(beta, prof, trule.nodes)
        xrule = quadrature.build_finite_rule(0.05, 3.5, 0.02)
        back = hankel.hankel_liouville_inverse(beta, forward, xrule.nodes, rule=trule)
        errs.append(_rel_l2(back, g(xrule.nodes), xrule.weights))
    return max(errs)


@_check("hankel", "hankel", "Plancherel identity", tol=1e-6)
def check_hankel_unitarity():
    g = smooth_bump(1.5, 0.5)
    prof = hankel.HalfLineFunction(g, support=(1.0, 2.0))
    errs = []
    for beta in (-0.5, 0.0, 0.7, 1.3):
        trule = quadrature.build_finite_rule(0.0, 150.0, np.pi / (4.0 * 2.0))
        fw = hankel.hankel_liouville(beta, prof, trule.nodes)
        n2_in = quadrature.integrate(lambda u: g(u) ** 2,
                                     hankel.rule_for_function(prof, freq=0.0))
        n2_out = quadrature.integrate(fw**2, trule)
        errs.append(abs(n2_out - n2_in) / n2_in)
    return max(errs)


@_check("hankel", "hankel", "Liouville = conjugated modified form", tol=1e-8)
def check_hankel_conjugation():
    g = smooth_bump(1.5, 0.8)
    taus = np.array([0.3, 1.0, 2.7, 5.0])
    errs = []
    for alpha in (-0.5, 0.4, 1.1):
        rule = quadrature.build_finite_rule(0.7, 2.3, np.pi / (4.0 * taus.max()))
        lv = hankel.hankel_liouville(
            alpha, hankel.HalfLineFunction(g, support=(0.7, 2.3)), taus, rule=rule)
        inner = hankel.hankel_modified(
            alpha,
            hankel.HalfLineFunction(lambda u: g(u) * u ** (-alpha - 0.5),
                                    support=(0.7, 2.3)),
            taus, rule=rule)
        conj = taus ** (alpha + 0.5) * np.asarray(inner)
        errs.append(np.max(np.abs(conj - lv)))
    return max(errs)


@_check("laguerre", "1", "gaussian coefficients match closed form", tol=1e-8, budget=10)
def check_gaussian_coefficients():
    errs = []
    for alpha in (-0.5, 0.0, 0.5, 1.7):
        prof = power_gaussian_profile(alpha)
        for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
            got = laguerre.laguerre_analyze(alpha, tau, prof, 21).values
            want = laguerre.gaussian_coefficient(alpha, np.arange(21), tau)
            errs.append(np.max(np.abs(got - want)))
    return max(errs)


@_check("laguerre", "1", "truncated Parseval sum at N=200", tol=1e-6)
def check_gaussian_parseval():
    errs = []
    for alpha in (-0.5, 0.0, 0.5, 1.7):
        prof = power_gaussian_profile(alpha)
        for tau in (0.3, 1.0, 2.5):
            coeffs = laguerre.laguerre_analyze(alpha, tau, prof, 200)
            total = float(np.sum(coeffs.values**2))
            want = 0.5 * np.exp(specfun.log_gamma(alpha + 1.0))
            errs.append(abs(total - want))
    return max(errs)


@_check("gtransform", "2", "squared norm = Gamma(a+1)Gamma(b+1)/4", tol=1e-5, budget=30)
def check_plancherel_gaussian():
    errs = []
    for a in (0.0, 0.5):
        for b in (0.0, 0.5):
            # n_max=256: the n-tail of the norm at N=96 sits around 1.4e-5,
            # above the tolerance; 256 brings it to ~2e-6
            sd = gtransform.g_forward(TypePair(a, b), power_gaussian(a, b), n_max=256)
            got = gtransform.plancherel_norm(sd) ** 2
            want = 0.25 * np.exp(specfun.log_gamma(a + 1.0) + specfun.log_gamma(b + 1.0))
            errs.append(abs(got - want) / want)
    return max(errs)


# s-side carriers and widths keep the tau-content of each packet well inside
# the default grid (0, 12) and away from tau = 0, where a truncated expansion
# converges slowly
ROUND_TRIP_PACKETS = (
    dict(r_center=2.0, r_width=0.6, r_freq=3.0, s_center=3.2, s_width=0.9, s_freq=5.5),
    dict(r_center=1.6, r_width=0.5, r_freq=4.0, s_center=3.4, s_width=1.0, s_freq=6.0),
    dict(r_center=2.4, r_width=0.7, r_freq=2.0, s_center=3.6, s_width=1.1, s_freq=5.0),
)


@_check("gtransform", "3", "inverse(forward f) = f on wave packets", tol=1e-3)
def check_round_trips():
    tp = TypePair(0.4, 0.25)
    errs = []
    for spec_kw in ROUND_TRIP_PACKETS:
        f = packet_plane(**spec_kw)
        sd = gtransform.g_forward(tp, f, n_max=96)
        (r_lo, r_hi), (s_lo, s_hi) = f.axis_profile(0).support, f.axis_profile(1).support
        rr = quadrature.build_finite_rule(r_lo, r_hi, 0.4)
        ss = quadrature.build_finite_rule(s_lo, s_hi, 0.4)
        rec = gtransform.g_inverse_grid(sd, rr.nodes, ss.nodes)
        want = f(rr.nodes[:, None], ss.nodes[None, :])
        errs.append(_rel_l2(rec, want, rr.weights[:, None] * ss.weights[None, :]))
    return max(errs)


@_check("gtransform", "4", "Hankel-first = Laguerre-first transform", tol=1e-5)
def check_hat_variant():
    tp = TypePair(0.5, 0.5)
    f = power_gaussian(tp.alpha, tp.beta)
    tau_rule = gtransform.default_tau_rule(upper=10.0, panels=24)
    a = gtransform.g_forward(tp, f, n_max=48, tau_rule=tau_rule)
    b = gtransform.g_forward_hat(tp, f, n_max=48, tau_rule=tau_rule)
    return np.max(np.abs(a.values - b.values)) / np.max(np.abs(a.values))


@_check("gtransform", "5", "transform of applied operator = symbol * transform", tol=1e-3)
def check_intertwining():
    tp = TypePair(0.6, 0.4)
    phi = bump_plane(1.7, 0.9, 2.2, 1.1)
    grid = diffop.grid_from_function(phi, (0.25, 4.0), (0.25, 4.0), 1.0 / 256)
    gphi = diffop.apply_G_circ(tp.alpha, tp.beta, grid)
    box = ((0.8, 2.6), (1.1, 3.3))
    n_max = 64
    lhs = gtransform.g_forward(tp, grid_plane(gphi, support=box), n_max=n_max)
    rhs = gtransform.g_forward(tp, gtransform.PlaneFunction(fn=phi.fn, support=box),
                               n_max=n_max)
    symbol = gtransform.spectral_symbol(tp.alpha, np.arange(n_max)[:, None],
                                        rhs.tau_grid[None, :])
    w = rhs.tau_weights[None, :] * np.ones((n_max, 1))
    return _rel_l2(lhs.values, symbol * rhs.values, w)


@_check("heat", "6", "kernel symmetric in (r,s)<->(u,v)", tol=1e-12)
def check_kernel_symmetry():
    tp = TypePair(0.3, 0.45)
    rng = np.random.default_rng(7)
    errs = []
    for t in (0.25, 2.0):
        hp = heat.HeatParams(t, tp)
        for _ in range(20):
            r, s, u, v = rng.uniform(0.5, 2.5, size=4)
            rule = heat.kernel_tau_rule(hp, freq=max(s, v))
            k1 = heat.heat_kernel(hp, r, s, u, v, rule=rule)
            k2 = heat.heat_kernel(hp, u, v, r, s, rule=rule)
            errs.append(abs(k1 - k2) / max(abs(k1), 1e-300))
    return max(errs)


@_check("heat", "6", "parabolic scaling K_t = t^-3/2 K_1(scaled)", tol=1e-6)
def check_kernel_scaling():
    tp = TypePair(0.3, 0.45)
    rng = np.random.default_rng(11)
    errs = []
    for t in (0.25, 2.0):
        hp = heat.HeatParams(t, tp)
        hp1 = heat.HeatParams(1.0, tp)
        rt = np.sqrt(t)
        for _ in range(20):
            r, s, u, v = rng.uniform(0.5, 2.5, size=4)
            k_t = heat.heat_kernel(hp, r, s, u, v)
            k_1 = heat.heat_kernel(hp1, r / rt, s / t, u / rt, v / t)
            errs.append(abs(k_t - t**-1.5 * k_1) / abs(k_t))
    return max(errs)


MEHLER_PROBES = ((0.25, 0.8, 1.2, 0.9), (0.5, 1.5, 0.7, 1.8),
                 (1.0, 2.5, 1.1, 1.3), (0.4, 0.3, 2.0, 2.4),
                 (2.0, 1.0, 0.5, 0.6))


@_check("heat", "7", "eigenfunction sum matches closed kernel factor", tol=1e-8)
def check_mehler_sum():
    errs = []
    for alpha in (-0.5, 0.3, 1.2):
        for (t, tau, r, u) in MEHLER_PROBES:
            n_terms = int(np.ceil(20.0 / (4.0 * t * tau))) + 50
            x = np.sqrt(tau) * np.array([r, u])
            total = 0.0
            for n, q in enumerate(specfun.laguerre_fn_seq(alpha, x, n_terms)):
                total += np.exp(-4.0 * t * tau * n) * q[0] * q[1]
            want = heat.mehler_kernel(alpha, t, tau, r, u)
            errs.append(abs(total - want))
    return max(errs)


ROUTE_BETAS = (-0.5, 0.0, 0.7)


def route_test_function():
    """Wave-packet product whose s^(b+1/2)-moments vanish for the three b
    values under test.

    The moment is the amplitude of the spectral data at tau -> 0, where the
    heat factor cannot damp high orders and the truncated calculus converges
    slowly; zeroing it (via a cubic correction with solved coefficients)
    pushes the small-tau content to higher order, leaving both routes to
    agree at the quadrature level.
    """
    s_c, s_w, s_k = 3.0, 0.9, 3.5
    base = wave_packet(s_c, s_w, s_k)
    s_hi = s_c + 5.5 * s_w
    rule = quadrature.build_finite_rule(0.0, s_hi, 0.01)
    sn, sw = rule.nodes, rule.weights
    mat = np.zeros((3, 3))
    rhs = np.zeros(3)
    for i, b in enumerate(ROUTE_BETAS):
        m = sw * base(sn) * sn ** (b + 0.5)
        rhs[i] = -np.sum(m)
        for j in range(3):
            mat[i, j] = np.sum(m * sn ** (j + 1))
    coef = np.linalg.solve(mat, rhs)

    def psi(s):
        return base(s) * (1.0 + coef[0] * s + coef[1] * s * s + coef[2] * s**3)

    # both factors declared from 0, smooth there, as functions.packet_plane's are
    fr = quadrature.HalfLineFunction(wave_packet(2.0, 0.6, 3.0), (0.0, 5.3), endpoint_exponent=0.0,
                                     width=min(quadrature.panel_width(3.0), 0.6))
    fs = quadrature.HalfLineFunction(psi, (0.0, s_hi), endpoint_exponent=0.0,
                                     width=min(quadrature.panel_width(s_k), s_w))
    return gtransform.PlaneFunction(fn=lambda r, s: fr(r) * fs(s), profiles=(fr, fs))


@_check("heat", "8", "kernel route = spectral route", tol=1e-3)
def check_route_agreement():
    f = route_test_function()
    pts = np.array([[1.6, 2.4], [2.0, 3.0], [2.4, 3.6], [1.8, 2.2]])
    errs = []
    for a in ROUTE_BETAS:
        for b in ROUTE_BETAS:
            hp = heat.HeatParams(0.5, TypePair(a, b))
            kern = heat.heat_apply(hp, f, pts, route="kernel")
            spec = heat.heat_apply(hp, f, pts, route="spectral")
            errs.append(np.max(np.abs(kern - spec) / np.abs(kern)))
    return max(errs)


@_check("heat", "9", "semigroup composition", tol=1e-3)
def check_semigroup():
    tp = TypePair(0.0, 0.5)
    t1 = t2 = 0.25
    f = packet_plane()
    # evaluate e^{-t2 G} f on the integration grid of the outer application,
    # then push through e^{-t1 G}; compare with e^{-(t1+t2) G} f directly.
    # The intermediate function is heat-smoothed, so panels of width 0.25
    # resolve it; its grid only needs to span the kernel reach (~2.5 at this
    # t) around the output probe box.
    rr = quadrature.build_finite_rule(1.2, 3.0, 0.45)
    ss = quadrature.build_finite_rule(1.6, 3.6, 0.45)
    mid_u = quadrature.build_finite_rule(1e-3, 3.0 + 2.4, 0.25)
    mid_v = quadrature.build_finite_rule(1e-3, 3.6 + 2.8, 0.25)
    hp2 = heat.HeatParams(t2, tp)
    mid_pts = np.stack(np.meshgrid(mid_u.nodes, mid_v.nodes, indexing="ij"),
                       axis=-1).reshape(-1, 2)
    mid_vals = np.asarray(heat.heat_apply(hp2, f, mid_pts, route="kernel"))
    mid_vals = mid_vals.reshape(len(mid_u.nodes), len(mid_v.nodes))

    pts = np.stack(np.meshgrid(rr.nodes, ss.nodes, indexing="ij"),
                   axis=-1).reshape(-1, 2)
    hp1 = heat.HeatParams(t1, tp)
    composed = heat.heat_apply_grid(hp1, mid_vals, mid_u, mid_v, pts)
    hp12 = heat.HeatParams(t1 + t2, tp)
    direct = np.asarray(heat.heat_apply(hp12, f, pts, route="kernel"))
    w = (rr.weights[:, None] * ss.weights[None, :]).ravel()
    # normalized by ||f||, matching the operator-identity statement
    (r_lo, r_hi), (s_lo, s_hi) = f.axis_profile(0).support, f.axis_profile(1).support
    urule = quadrature.build_finite_rule(r_lo, r_hi, 0.05)
    vrule = quadrature.build_finite_rule(s_lo, s_hi, 0.05)
    norm_f = np.sqrt(np.sum(urule.weights[:, None] * vrule.weights[None, :]
                            * f(urule.nodes[:, None], vrule.nodes[None, :]) ** 2))
    return np.sqrt(np.sum(w * (composed - direct) ** 2)) / norm_f


@_check("heat", "10", "cosh variant matches general kernel", tol=1e-6)
def check_half_integer_kernel():
    tp = TypePair(-0.5, -0.5)
    rng = np.random.default_rng(3)
    errs = []
    for t in (0.5, 1.0):
        hp = heat.HeatParams(t, tp)
        for _ in range(5):
            r, s, u, v = rng.uniform(0.6, 2.2, size=4)
            general = heat.heat_kernel(hp, r, s, u, v)
            closed = heat.heat_kernel_half(t, r, s, u, v, variant="cosh")
            errs.append(abs(closed - general) / abs(general))
    return max(errs)


@_in_suite("heat")
def check_half_integer_kernel_sinh():
    t0 = time.time()
    hp = heat.HeatParams(0.5, TypePair(-0.5, -0.5))
    general = heat.heat_kernel(hp, 1.0, 1.0, 1.0, 1.0)
    sinh_v = heat.heat_kernel_half(0.5, 1.0, 1.0, 1.0, 1.0, variant="sinh")
    rel = abs(sinh_v - general) / abs(general)
    # pass condition: the variant printed with sinh differs measurably
    passed = rel > 1e-3
    return CheckResult("10", "sinh variant demonstrably differs", passed,
                       f"rel difference {rel:.3e} (must exceed 1e-03)",
                       time.time() - t0)


def _fit_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@_check("heat", "11", "log-log slopes equal 2b and 2a", tol=0.1)
def check_profile_exponents():
    xs = np.logspace(-3, -2, 25)
    errs = []
    details = []
    for beta in (0.4, -0.4):
        slope = _fit_slope(xs, heat.diagonal_profile("F1", TypePair(0.25, beta), xs))
        errs.append(abs(slope - 2.0 * beta))
        details.append(f"F1(b={beta}): {slope:.3f}")
    for alpha in (0.6, -0.6):
        slope = _fit_slope(xs, heat.diagonal_profile("F2", TypePair(alpha, 0.25), xs))
        errs.append(abs(slope - 2.0 * alpha))
        details.append(f"F2(a={alpha}): {slope:.3f}")
    return max(errs), "; ".join(details)


@_check("heat", "14", "short-time diagonal remainder order >= 1.9", tol=0.0)
def check_short_time_diagonal():
    # 4 pi t r K_t((r,s),(r,s)) = 1 + a1 t + O(t^2) (Minakshisundaram-Pleijel): the
    # metric dr^2 + ds^2/r^2 has scalar curvature -4/r^2, and on half-densities G
    # is -Laplacian + V - 3/(4r^2), so a1 = 1/(12 r^2) - V with V = (a^2-1/4)/r^2
    # + r^2 (b^2-1/4)/s^2; the remainder's order is fitted over a t sweep in all
    # four sign quadrants
    ts = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    orders = []
    for a, b in ((0.4, 0.25), (-0.6, 0.25), (0.4, -0.9), (-0.6, -0.7)):
        for r, s in ((1.0, 1.0), (2.0, 0.7), (0.3, 0.45)):
            a1 = 1.0 / (12.0 * r * r) - (a * a - 0.25) / r**2 - r * r * (b * b - 0.25) / s**2
            k = np.array([heat.heat_kernel(heat.HeatParams(t, TypePair(a, b)), r, s, r, s)
                          for t in ts])
            orders.append(_fit_slope(ts, np.abs(4.0 * np.pi * ts * r * k - 1.0 - a1 * ts)))
    return max(1.9 - min(orders), 0.0), f"orders {min(orders):.2f}-{max(orders):.2f}"


@_check("diffop", "12", "eigenfunction residual order >= 1.9", tol=0.0)
def check_eigenfunction_residual():
    tp = TypePair(0.6, 0.4)
    n, tau = 3, 1.3
    lam = gtransform.spectral_symbol(tp.alpha, n, tau)

    def psi(r, s):
        rr = np.broadcast_to(r, np.broadcast_shapes(np.shape(r), np.shape(s)))
        lag = specfun.laguerre_fn(specfun.LaguerreIndex(n, tp.alpha, tau), rr)
        return lag * np.sqrt(tau * s) * jv(tp.beta, tau * s)

    residuals = []
    for h in _H_SWEEP:
        g = diffop.grid_from_function(psi, (0.25, 4.0), (0.25, 4.0), h)
        out = diffop.apply_G_circ(tp.alpha, tp.beta, g)
        want = lam * g.values[1:-1, 1:-1]
        residuals.append(np.max(np.abs(out.values - want)) / np.max(np.abs(g.values)))
    order, steps = _order_sweep(residuals)
    return max(1.9 - order, 0.0), f"order {order:.2f}, steps {['%.2f' % o for o in steps]}"


@_check("diffop", "12", "delta factorization residual order >= 1.9", tol=0.0)
def check_factorization_residual():
    tp = TypePair(0.6, 0.4)
    bump = bump_plane(1.7, 1.1, 2.1, 1.0)
    residuals = []
    for h in _H_SWEEP:
        g = diffop.grid_from_function(bump, (0.25, 4.0), (0.25, 4.0), h)
        residuals.append(diffop.delta_factorization_residual(tp.alpha, tp.beta, g))
    order, steps = _order_sweep(residuals)
    return max(1.9 - order, 0.0), f"order {order:.2f}, steps {['%.2f' % o for o in steps]}"


def _intertwining_residual(alpha, beta, g):
    lhs = diffop.conjugation_map("U_alphabeta", alpha, beta,
                                 diffop.apply_G_weighted(alpha, beta, g))
    rhs = diffop.apply_G_circ(alpha, beta,
                              diffop.conjugation_map("U_alphabeta", alpha, beta, g))
    return np.max(np.abs(lhs.values - rhs.values))


def _v_conjugation_residual(alpha, beta, g, kind):
    if kind == "V_alphabeta":
        a2, b2 = -alpha, -beta
        va, vb = alpha, beta
    elif kind == "V_alpha0":
        a2, b2 = -alpha, beta
        va, vb = alpha, 0.0
    else:
        a2, b2 = alpha, -beta
        va, vb = 0.0, beta
    lhs = diffop.apply_G_weighted(alpha, beta,
                                  diffop.conjugation_map("V_alphabeta", va, vb, g))
    rhs = diffop.conjugation_map("V_alphabeta", va, vb,
                                 diffop.apply_G_weighted(a2, b2, g))
    return np.max(np.abs(lhs.values - rhs.values))


@_check("diffop", "13", "conjugation identities at order >= 1.9", tol=0.0)
def check_conjugation_orders():
    alpha, beta = 0.7, 0.35
    bump = bump_plane(1.6, 1.0, 2.3, 1.2)
    grids = [diffop.grid_from_function(bump, (0.25, 4.0), (0.25, 4.0), h) for h in _H_SWEEP]
    orders = [_order_sweep([_intertwining_residual(alpha, beta, g) for g in grids])[0]]
    for kind in ("V_alphabeta", "V_alpha0", "V_0beta"):
        res = [_v_conjugation_residual(alpha, beta, g, kind) for g in grids]
        orders.append(_order_sweep(res)[0])
    return max(1.9 - min(orders), 0.0), f"orders {['%.2f' % o for o in orders]}"


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite (or 'all'); returns the individual check results."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{['all', *SUITES]}")
    return [check() for suite in names for check in SUITES[suite]]
