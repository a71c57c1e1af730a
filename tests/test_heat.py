"""Heat-kernel tests: stability of the closed form, weighted variant,
origin limit, slice integrability, positivity probes."""

import dataclasses

import numpy as np
import pytest
from scipy.special import iv

from grushin import heat, quadrature
from grushin.functions import bump_plane
from grushin.gtransform import TypePair
from grushin.heat import HeatParams
from grushin.quadrature import QuadratureError, build_finite_rule
from grushin.specfun import bessel_j_table


class TestKernelBasics:
    def test_positive_at_samples(self):
        hp = HeatParams(0.5, TypePair(0.3, 0.45))
        rng = np.random.default_rng(2)
        for _ in range(6):
            r, s, u, v = rng.uniform(0.3, 2.5, 4)
            assert heat.heat_kernel(hp, r, s, u, v) > 0.0

    def test_rejects_nonpositive_coordinates(self):
        hp = HeatParams(0.5, TypePair(0.0, 0.0))
        with pytest.raises(ValueError):
            heat.heat_kernel(hp, 0.0, 1.0, 1.0, 1.0)

    def test_time_validation(self):
        with pytest.raises(ValueError):
            HeatParams(0.0, TypePair(0.0, 0.0))
        with pytest.raises(ValueError):
            HeatParams(-1.0, TypePair(0.0, 0.0))

    def test_large_time_stability(self):
        # sinh(2 t tau) overflows long before the rule's upper cut; the
        # guarded evaluation must stay finite
        hp = HeatParams(40.0, TypePair(-0.5, 0.3))
        val = heat.heat_kernel(hp, 1.0, 1.0, 1.0, 1.0)
        assert np.isfinite(val)

    def test_panel_cap_error_names_the_policy(self):
        hp = HeatParams(1e-4, TypePair(0.3, 0.45))
        with pytest.raises(QuadratureError) as excinfo:
            heat.heat_kernel(hp, 1, 1, 1, 1)
        for field in ("decay_hint=", "rate=", "freq_bound=", "abs_tol=", "max_panels="):
            assert field in str(excinfo.value)

    def test_negative_alpha_small_time(self):
        hp = HeatParams(0.05, TypePair(-0.9, -0.9))
        val = heat.heat_kernel(hp, 1.0, 1.0, 1.2, 0.8)
        assert np.isfinite(val) and val > 0.0


class TestTinyCoordinates:
    """K_t((e,1),(e,1)) ~ C e^(2a+1) as e -> 0, down to r u below the double
    range; tolerance fixed before the code: 1e-12 relative."""

    @pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.3, 0.45), (0.4, -0.9),
                                    (-0.9, 0.5), (0.0, 0.0)])
    def test_power_law(self, ab):
        hp = HeatParams(0.5, TypePair(*ab))
        power = 2.0 * ab[0] + 1.0

        def scaled(eps):
            return heat.heat_kernel(hp, eps, 1.0, eps, 1.0) / eps**power

        want = scaled(1e-8)
        # every eps at which the true value is a normal double
        epss = [eps for eps in (1e-60, 1e-120, 1e-160, 1e-170)
                if abs(want) * eps**power > np.finfo(float).tiny]
        assert len(epss) == 4
        for eps in epss:
            assert scaled(eps) == pytest.approx(want, rel=1e-12), eps


class TestHalfIntegerKernel:
    def test_scaling_law_inherited(self):
        t = 0.7
        r, s, u, v = 1.1, 0.9, 1.4, 1.2
        k_t = heat.heat_kernel_half(t, r, s, u, v)
        rt = np.sqrt(t)
        k_1 = heat.heat_kernel_half(1.0, r / rt, s / t, u / rt, v / t)
        assert k_t == pytest.approx(t**-1.5 * k_1, rel=1e-6)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            heat.heat_kernel_half(0.5, 1, 1, 1, 1, variant="tanh")


class TestWeightedKernel:
    def test_consistency_with_plain_kernel(self):
        # algebraic identity K_weighted (ru)^(a+1/2) (sv)^(b+1/2) = K, checked
        # with a shared rule so only rounding separates the two paths
        tp = TypePair(0.4, 0.7)
        hp = HeatParams(0.6, tp)
        rng = np.random.default_rng(4)
        for _ in range(5):
            r, s, u, v = rng.uniform(0.4, 2.0, 4)
            rule = heat.kernel_tau_rule(hp, freq=max(s, v))
            plain = heat.heat_kernel(hp, r, s, u, v, rule=rule)
            weighted = heat.heat_kernel_weighted(hp, r, s, u, v, rule=rule)
            recon = weighted * (r * u) ** (tp.alpha + 0.5) \
                * (s * v) ** (tp.beta + 0.5)
            assert abs(recon - plain) / abs(plain) < 1e-12

    def test_weighted_homogeneity(self):
        # K_t = t^-(a+2b+3) K_1 at parabolically scaled arguments
        tp = TypePair(0.4, 0.7)
        r, s, u, v = 1.2, 0.8, 0.9, 1.5
        for t in (0.5, 2.0):
            hp = HeatParams(t, tp)
            k_t = heat.heat_kernel_weighted(hp, r, s, u, v)
            rt = np.sqrt(t)
            k_1 = heat.heat_kernel_weighted(HeatParams(1.0, tp),
                                            r / rt, s / t, u / rt, v / t)
            want = t ** -(tp.alpha + 2 * tp.beta + 3) * k_1
            assert k_t == pytest.approx(want, rel=1e-6)

    def test_origin_limit(self):
        tp = TypePair(0.4, 0.7)
        hp = HeatParams(0.6, tp)
        r, s = 1.3, 0.9
        at_origin = heat.kernel_at_origin(hp, r, s)
        eps = 1e-6
        near = heat.heat_kernel_weighted(hp, r, s, eps, eps)
        assert near == pytest.approx(at_origin, rel=1e-4)
        assert at_origin > 0.0

    def test_origin_dispatch(self):
        tp = TypePair(0.2, 0.1)
        hp = HeatParams(0.5, tp)
        direct = heat.heat_kernel_weighted(hp, 1.0, 1.0, 0.0, 0.0)
        assert direct == pytest.approx(heat.kernel_at_origin(hp, 1.0, 1.0))
        with pytest.raises(ValueError):
            heat.heat_kernel_weighted(hp, 1.0, 1.0, 0.0, 1.0)

    def test_origin_scaling(self):
        tp = TypePair(0.3, 0.2)
        r, s, t = 1.1, 0.7, 0.8
        k_t = heat.kernel_at_origin(HeatParams(t, tp), r, s)
        rt = np.sqrt(t)
        k_1 = heat.kernel_at_origin(HeatParams(1.0, tp), r / rt, s / t)
        assert k_t == pytest.approx(t ** -(tp.alpha + 2 * tp.beta + 3) * k_1,
                                    rel=1e-6)


class TestSliceIntegrability:
    def test_kernel_slice_is_square_integrable(self):
        # quadrature of |K((r,s),.)|^2 over the quarter plane is finite and
        # stable under grid refinement
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        r0, s0 = 1.0, 1.0
        rule = heat.kernel_tau_rule(hp, freq=9.0)

        def slice_norm(width, points):
            urule = build_finite_rule(1e-3, 6.0, width, points_per_panel=points)
            vrule = build_finite_rule(1e-3, 8.0, width, points_per_panel=points)
            vals = np.array([
                [heat.heat_kernel(hp, r0, s0, u, v, rule=rule)
                 for v in vrule.nodes]
                for u in urule.nodes])
            return np.sum(urule.weights[:, None] * vrule.weights[None, :]
                          * vals**2)

        coarse = slice_norm(1.5, 4)
        fine = slice_norm(0.75, 4)
        assert np.isfinite(coarse) and np.isfinite(fine)
        assert abs(fine - coarse) / fine < 0.01


class TestHeatApply:
    def test_positivity_probe(self):
        # empirical sign check on a nonnegative input
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        f = bump_plane()
        pts = np.array([[1.5, 2.0], [2.0, 2.4], [1.0, 1.2], [2.8, 3.4]])
        out = heat.heat_apply(hp, f, pts, route="kernel")
        assert np.all(np.asarray(out) >= -1e-10)

    def test_route_argument_validation(self):
        hp = HeatParams(0.5, TypePair(0.0, 0.0))
        with pytest.raises(ValueError):
            heat.heat_apply(hp, bump_plane(), [[1.0, 1.0]], route="magic")

    def test_grid_variant_matches_callable(self):
        hp = HeatParams(0.4, TypePair(0.2, 0.3))
        f = bump_plane()
        (r_lo, r_hi), (s_lo, s_hi) = f.support
        urule = build_finite_rule(r_lo, r_hi, 0.1)
        vrule = build_finite_rule(s_lo, s_hi, 0.1)
        fvals = f(urule.nodes[:, None], vrule.nodes[None, :])
        pts = np.array([[1.4, 2.0], [2.1, 2.5]])
        a = heat.heat_apply(hp, f, pts, route="kernel")
        b = heat.heat_apply_grid(hp, fvals, urule, vrule, pts)
        assert np.allclose(a, b, rtol=1e-6)

    @pytest.mark.parametrize("route", ["kernel", "spectral"])
    def test_one_point_gives_one_element_array(self, route):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        out = heat.heat_apply(hp, bump_plane(), [[1.5, 2.0]], route=route, n_max=16)
        assert isinstance(out, np.ndarray) and out.shape == (1,)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        f = bump_plane()
        pts = np.array([[1.5, 2.0], [2.0, 2.4], [1.0, 1.2], [2.8, 3.4]])
        monkeypatch.setenv("GRUSHIN_THREADS", "1")
        serial = heat.heat_apply(hp, f, pts, route="kernel")
        monkeypatch.setenv("GRUSHIN_THREADS", "4")
        threaded = heat.heat_apply(hp, f, pts, route="kernel")
        assert np.array_equal(serial, threaded)


def test_kernel_route_memory_stays_below_one_tau_by_v_table(monkeypatch):
    # the route contracts f with the J_b(tau v) columns in tau-row blocks,
    # so no (K, n_v) table is ever formed (K tau nodes, n_v v nodes)
    import tracemalloc

    from grushin.functions import packet_plane
    sizes = {}
    route = heat._kernel_route

    def recording_route(hp, fvals, urule, vrule, pts, trule):
        sizes["K"], sizes["n_v"] = len(trule.nodes), len(vrule.nodes)
        return route(hp, fvals, urule, vrule, pts, trule)

    monkeypatch.setattr(heat, "_kernel_route", recording_route)
    hp = HeatParams(0.3, TypePair(-0.5, 0.5))
    tracemalloc.start()
    try:
        out = heat.heat_apply(hp, packet_plane(), [[1.5, 2.0], [2.5, 3.0]], route="kernel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    assert (sizes["K"], sizes["n_v"]) == (1776, 2496)
    assert peak < 8 * sizes["K"] * sizes["n_v"]


def diagonal_profile_per_x_reference(kind, tp, x_grid):
    """One tau quadrature per grid point with the unscaled I_a: the form
    diagonal_profile had before it was tabulated on the kernel core.  Its
    F2 turns NaN once I_a overflows (tau r^2 / sinh tau > 700, r > 26.5)."""
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    rate = (2.0 if kind == "F1" else 1.0) + min(tp.alpha, 0.0)
    policy = quadrature.TruncationPolicy(abs_tol=1e-12, decay_hint="exponential",
                                         rate=rate,
                                         freq_bound=2.0 * max(float(x_grid.max()), 1.0))
    rule = quadrature.build_rule(policy)
    tau = rule.nodes
    inv = heat._inv_sinh(tau)
    coth = heat._coth(tau)
    out = np.empty(len(x_grid))
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "F1":
            base = np.exp(-tau * coth) * iv(tp.alpha, tau * inv) * tau * tau * inv
            for i, s in enumerate(x_grid):
                out[i] = np.dot(rule.weights, bessel_j_table(tp.beta, tau * s) ** 2 * base)
        else:
            jbase = bessel_j_table(tp.beta, tau) ** 2 * tau * tau * inv
            for i, r in enumerate(x_grid):
                arg = tau * r * r
                out[i] = np.dot(rule.weights,
                                jbase * np.exp(-arg * coth) * iv(tp.alpha, arg * inv))
    return out


class TestDiagonalProfiles:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            heat.diagonal_profile("F3", TypePair(0.0, 0.0), [0.01])
        with pytest.raises(ValueError):
            heat.diagonal_profile("F1", TypePair(0.0, 0.0), [0.0])

    def test_values_positive(self):
        xs = np.logspace(-3, -1, 7)
        for kind in ("F1", "F2"):
            vals = heat.diagonal_profile(kind, TypePair(0.25, 0.25), xs)
            assert np.all(vals > 0.0)

    @pytest.mark.parametrize("ab", [(0.25, 0.25), (-0.9, 0.5), (0.4, -0.9), (1.3, 0.7)])
    @pytest.mark.parametrize("kind", ["F1", "F2"])
    def test_matches_per_x_reference(self, kind, ab):
        # wherever the reference is finite.  Below x = 15 the kernel core
        # sums the power series of I_a(x)/x^a with exp(combined exponent);
        # past it, scipy's ive with exp.  The reference takes the unscaled
        # iv, and the exponent rounds tau r u and tau (r^2 + u^2)/2
        # separately.  F2's Bessel argument is about r^2, so past r = 1 it
        # may move by a few 1e-14 (measured <= 3.9e-14 up to r = 20); F1's
        # argument stays below 1
        tp = TypePair(*ab)
        xs = np.logspace(-3, np.log10(20.0), 40)
        want = diagonal_profile_per_x_reference(kind, tp, xs)
        got = heat.diagonal_profile(kind, tp, xs)
        rel = np.abs(got - want) / np.abs(want)
        small = xs <= 1.0 if kind == "F2" else np.ones(len(xs), dtype=bool)
        assert np.all(np.isfinite(want))
        assert rel[small].max() < 1e-14
        assert rel.max() < 1e-13

    def test_large_r_is_finite_and_cut_stable(self, monkeypatch):
        # the unscaled I_a overflows there and the old per-x form gave NaN
        tp = TypePair(0.25, 0.25)
        rs = np.array([30.0, 40.0])
        assert np.all(np.isnan(diagonal_profile_per_x_reference("F2", tp, rs)))
        got = heat.diagonal_profile("F2", tp, rs)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        # squaring abs_tol doubles the tau cut of the exponential envelope
        build_rule = quadrature.build_rule
        monkeypatch.setattr(heat, "build_rule", lambda policy: build_rule(
            dataclasses.replace(policy, abs_tol=policy.abs_tol ** 2)))
        doubled = heat.diagonal_profile("F2", tp, rs)
        assert np.allclose(got, doubled, rtol=1e-11, atol=0.0)


def test_mehler_kernel_probe():
    # spot value against a direct high-precision style sum
    from grushin.specfun import laguerre_fn_seq
    alpha, t, tau, r, u = 0.6, 0.3, 1.1, 0.9, 1.4
    x = np.sqrt(tau) * np.array([r, u])
    total = 0.0
    for n, q in enumerate(laguerre_fn_seq(alpha, x, 120)):
        total += np.exp(-4 * t * tau * n) * q[0] * q[1]
    assert heat.mehler_kernel(alpha, t, tau, r, u) == pytest.approx(total,
                                                                    abs=1e-12)


class TestCoordinateValidation:
    """NaN, infinite or non-positive coordinates fail before any quadrature."""

    @pytest.mark.parametrize("coords, named", [
        ((np.nan, 1.0, 1.0, 1.0), "r"), ((1.0, np.inf, 1.0, 1.0), "s"),
        ((1.0, 1.0, -1.0, 1.0), "u"), ((1.0, 1.0, 1.0, 0.0), "v")])
    def test_heat_kernel(self, coords, named):
        hp = HeatParams(0.5, TypePair(0.3, 0.45))
        with pytest.raises(ValueError, match=f"^{named} must be a finite real > 0"):
            heat.heat_kernel(hp, *coords)

    @pytest.mark.parametrize("coords, named", [
        ((-1.0, 1.0, 1.0, 1.0), "r"), ((1.0, 0.0, 1.0, 1.0), "s"),
        ((1.0, 1.0, np.nan, 1.0), "u")])
    def test_heat_kernel_half(self, coords, named):
        with pytest.raises(ValueError, match=f"^{named} must be a finite real > 0"):
            heat.heat_kernel_half(0.5, *coords)

    @pytest.mark.parametrize("u, v", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0)])
    def test_weighted_kernel_rejects_nonfinite_u_v(self, u, v):
        hp = HeatParams(0.5, TypePair(0.3, 0.45))
        with pytest.raises(ValueError, match="^u, v must be finite reals >= 0"):
            heat.heat_kernel_weighted(hp, 1.0, 1.0, u, v)

    def test_weighted_kernel_rejects_nan_r(self):
        hp = HeatParams(0.5, TypePair(0.3, 0.45))
        with pytest.raises(ValueError, match="^r must be a finite real > 0, got nan"):
            heat.kernel_at_origin(hp, np.nan, 1.0)

    @pytest.mark.parametrize("route", ["kernel", "spectral"])
    def test_heat_apply_names_coordinate_and_index(self, route):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        with pytest.raises(ValueError, match=r"^r\[1\] must be a finite real > 0, got -1.0"):
            heat.heat_apply(hp, bump_plane(), [[1.5, 2.0], [-1.0, 1.0]], route=route)

    def test_heat_apply_grid(self):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        rule = build_finite_rule(0.5, 1.5, 0.5)
        fvals = np.ones((len(rule.nodes), len(rule.nodes)))
        with pytest.raises(ValueError, match=r"^s\[0\] must be a finite real > 0, got nan"):
            heat.heat_apply_grid(hp, fvals, rule, rule, [[1.0, np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_diagonal_profile(self, bad):
        with pytest.raises(ValueError, match=r"^x_grid\[1\] must be a finite real > 0"):
            heat.diagonal_profile("F1", TypePair(0.3, 0.2), [0.5, bad, 1.0])
