"""Heat-kernel tests: stability of the closed form, weighted variant,
origin limit, slice integrability, positivity probes."""

import dataclasses

import numpy as np
import pytest
from scipy.special import iv

from grushin import _util, heat, quadrature
from grushin.functions import bump_plane
from grushin.gtransform import TypePair
from grushin.heat import HeatParams
from grushin.quadrature import QuadratureError, build_finite_rule
from grushin.specfun import bessel_j


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
        # the kernel route's worst-case rule at t = 1e-4 needs 20,538 panels
        hp = HeatParams(1e-4, TypePair(0.3, 0.45))
        with pytest.raises(QuadratureError) as excinfo:
            heat.kernel_tau_rule(hp, 1.0)
        for field in ("decay_hint=", "rate=", "freq_bound=", "abs_tol=", "max_panels="):
            assert field in str(excinfo.value)

    def test_large_s_and_v_under_the_panel_cap(self):
        # at s = v = 1e3 the tau rule takes 4217 panels, under the cap of
        # 8192; the value agrees with 6 times narrower panels on the same cut
        hp = HeatParams(0.5, TypePair(0.3, 0.45))
        val = heat.heat_kernel(hp, 1.0, 1e3, 1.0, 1e3)
        cut = heat.kernel_tau_rule(hp, 1e3).upper_cut
        fine = build_finite_rule(0.0, cut, 5.0 * np.pi / (6.0 * 2e3), 16)
        assert val == pytest.approx(heat.heat_kernel(hp, 1.0, 1e3, 1.0, 1e3, rule=fine),
                                    rel=1e-13)
        assert val == pytest.approx(0.1568443784119, rel=1e-12)

    def test_negative_alpha_small_time(self):
        hp = HeatParams(0.05, TypePair(-0.9, -0.9))
        val = heat.heat_kernel(hp, 1.0, 1.0, 1.2, 0.8)
        assert np.isfinite(val) and val > 0.0


class TestEdgeProbes:
    """t = 1e-4, s = v = 1e3 and a = -0.9999: each value is finite, moves by
    at most 1e-13 relative when its tau cut doubles, and obeys the parabolic
    scaling K_t = t^(-3/2) K_1((r/sqrt t, s/t), (u/sqrt t, v/t)) to 1e-12
    relative (tolerances fixed before the cut from the point's envelope)."""

    PROBES = [(1e-4, (0.3, 0.45), (1.0, 1.0, 1.0, 1.0)),
              (0.5, (0.3, 0.45), (1.0, 1e3, 1.0, 1e3)),
              (0.5, (-0.9999, 0.45), (1.0, 1.0, 1.0, 1.0))]
    IDS = ["t1e-4", "s=v=1e3", "a-0.9999"]

    @pytest.mark.parametrize("t, ab, x", PROBES, ids=IDS)
    def test_cut_doubling(self, t, ab, x, monkeypatch):
        # doubling the cut with the nodes below it kept adds the integral over
        # (U, 2U), taken on panels a quarter of the panel law's width
        hp = HeatParams(t, TypePair(*ab))
        rules = []
        build_rule = quadrature.build_rule
        monkeypatch.setattr(heat, "build_rule", lambda policy: rules.append(
            build_rule(policy)) or rules[-1])
        val = heat.heat_kernel(hp, *x)
        assert np.isfinite(val) and val > 0.0
        cut = rules[0].upper_cut
        tail = build_finite_rule(cut, 2.0 * cut, quadrature.panel_width(2.0 * max(x[1], x[3])) / 4,
                                 16)
        assert abs(heat.heat_kernel(hp, *x, rule=tail)) <= 1e-13 * val

    @pytest.mark.parametrize("t, ab, x", PROBES, ids=IDS)
    def test_parabolic_scaling(self, t, ab, x):
        r, s, u, v = x
        k_t = heat.heat_kernel(HeatParams(t, TypePair(*ab)), r, s, u, v)
        rt = np.sqrt(t)
        k_1 = heat.heat_kernel(HeatParams(1.0, TypePair(*ab)), r / rt, s / t, u / rt, v / t)
        assert k_t == pytest.approx(t**-1.5 * k_1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [1.0, 2.0, 5.0, 15.0])
def test_large_ru_against_a_refined_rule(r):
    # at large r u the core's own scale e^(-r u t tau^2) is far narrower than
    # J_b's panels; the cut from the point's envelope narrows them with it.
    # Refined: panels of 0.05 on (0, 60).  Tolerance fixed before the code
    hp = HeatParams(0.5, TypePair(1.3, 0.7))
    fine = build_finite_rule(0.0, 60.0, 0.05, 16)
    want = heat.heat_kernel(hp, r, 1.0, r, 1.0, rule=fine)
    assert heat.heat_kernel(hp, r, 1.0, r, 1.0) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestTinyCoordinates:
    """K_t((e,1),(e,1)) ~ C e^(2a+1) and K_t((1,e),(1,e)) ~ C e^(2b+1) as
    e -> 0, down to r u and s v below the double range; tolerance fixed before
    the code: 1e-12 relative."""

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

    # at (0.3, -0.9), s = v = 1e-170 a bare product J_b(tau s) J_b(tau v) leaves
    # the double range though K ~ 7.8e134 does not; any overflow warning fails
    # the test (filterwarnings = error)
    @pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.3, 0.0), (-0.9, -0.2), (0.3, -0.9)])
    def test_power_law_in_s(self, ab):
        hp = HeatParams(0.5, TypePair(*ab))
        power = 2.0 * ab[1] + 1.0

        def scaled(eps):
            return heat.heat_kernel(hp, 1.0, eps, 1.0, eps) / eps**power

        want = scaled(1e-8)
        for eps in (1e-60, 1e-120, 1e-160, 1e-170):
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


# the first 20 draws of rng(4), one (r, s, u, v) point per row
_WEIGHTED_POINTS = np.random.default_rng(4).uniform(0.4, 2.0, (5, 4))


class TestWeightedKernel:
    @pytest.mark.parametrize("t, ab, points", [
        pytest.param(0.6, (0.4, 0.7), _WEIGHTED_POINTS, id="t0.6-a0.4-b0.7"),
        pytest.param(0.6, (-0.9, 0.5), _WEIGHTED_POINTS, id="t0.6-a-0.9-b0.5"),
        pytest.param(0.6, (0.4, -0.9), _WEIGHTED_POINTS, id="t0.6-a0.4-b-0.9"),
        pytest.param(0.6, (-0.6, -0.7), _WEIGHTED_POINTS, id="t0.6-a-0.6-b-0.7"),
        # y = 2 t tau passes 700 inside this rule
        pytest.param(40.0, (-0.99, 0.3), [(1.0, 1.0, 1.0, 1.0)], id="t40-a-0.99-b0.3")])
    def test_consistency_with_plain_kernel(self, t, ab, points):
        # algebraic identity K_weighted (ru)^(a+1/2) (sv)^(b+1/2) = K, checked
        # with a shared rule so only rounding separates the two paths
        tp = TypePair(*ab)
        hp = HeatParams(t, tp)
        for r, s, u, v in points:
            rule = heat.kernel_tau_rule(hp, freq=max(s, v))
            plain = heat.heat_kernel(hp, r, s, u, v, rule=rule)
            weighted = heat.heat_kernel_weighted(hp, r, s, u, v, rule=rule)
            recon = weighted * (r * u) ** (tp.alpha + 0.5) \
                * (s * v) ** (tp.beta + 0.5)
            assert abs(recon - plain) / abs(plain) < 1e-12

    @pytest.mark.parametrize("ab, t", [((0.4, -0.9), 0.05), ((0.4, -0.9), 0.1),
                                       ((0.4, -0.9), 0.5), ((0.3, -0.6), 0.5),
                                       ((-0.5, -0.95), 0.5)])
    def test_consistency_with_default_rules(self, ab, t):
        # each call builds its own tau rule; the integrand carries
        # tau^(2b+1) at tau -> 0, which both rules must absorb when b < -1/2.
        # Tolerance fixed before the code: 1e-12 relative.  The points keep
        # the tau sum free of heavy cancellation (sum |w_k g_k| <= 15 |sum|),
        # so that rounding in the two integrands stays below it
        tp = TypePair(*ab)
        hp = HeatParams(t, tp)
        for r, s, u, v in ((1.0, 1.0, 1.0, 1.0), (0.7, 1.3, 1.1, 0.6), (1.2, 0.8, 0.9, 1.5)):
            plain = heat.heat_kernel(hp, r, s, u, v)
            recon = heat.heat_kernel_weighted(hp, r, s, u, v) \
                * (r * u) ** (tp.alpha + 0.5) * (s * v) ** (tp.beta + 0.5)
            assert abs(recon - plain) / abs(plain) < 1e-12, (r, s, u, v)

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

    @pytest.mark.parametrize("t, ab, r, s, eps, rel", [
        pytest.param(0.6, (0.4, 0.7), 1.3, 0.9, 1e-6, 1e-4, id="t0.6-a0.4-b0.7"),
        # y = 2 t tau passes 700 inside the default rule
        pytest.param(40.0, (-0.99, 0.3), 1.0, 1.0, 1e-5, 1e-8, id="t40-a-0.99-b0.3")])
    def test_origin_limit(self, t, ab, r, s, eps, rel):
        tp = TypePair(*ab)
        hp = HeatParams(t, tp)
        at_origin = heat.kernel_at_origin(hp, r, s)
        near = heat.heat_kernel_weighted(hp, r, s, eps, eps)
        assert near == pytest.approx(at_origin, rel=rel)
        plain = heat.heat_kernel(hp, r, s, eps, eps) \
            / ((r * eps) ** (tp.alpha + 0.5) * (s * eps) ** (tp.beta + 0.5))
        assert plain == pytest.approx(at_origin, rel=rel)
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

    @pytest.mark.parametrize("route", ["kernel", "spectral"])
    def test_no_points_give_an_empty_array(self, route):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        for pts in (np.empty((0, 2)), []):  # [] used to raise "points must have shape (m, 2)"
            out = heat.heat_apply(hp, bump_plane(), pts, route=route, n_max=16)
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_grid_variant_with_no_points_gives_an_empty_array(self):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        rule = build_finite_rule(0.5, 3.0, 0.5)
        fvals = np.ones((len(rule.nodes), len(rule.nodes)))
        out = heat.heat_apply_grid(hp, fvals, rule, rule, np.empty((0, 2)))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        with pytest.raises(ValueError, match="fvals"):
            heat.heat_apply_grid(hp, fvals[1:], rule, rule, np.empty((0, 2)))

    def test_thread_count_does_not_change_results(self, monkeypatch):
        hp = HeatParams(0.5, TypePair(0.3, 0.2))
        f = bump_plane()
        pts = np.array([[1.5, 2.0], [2.0, 2.4], [1.0, 1.2], [2.8, 3.4]])
        monkeypatch.setenv("GRUSHIN_THREADS", "1")
        serial = heat.heat_apply(hp, f, pts, route="kernel")
        monkeypatch.setenv("GRUSHIN_THREADS", "4")
        threaded = heat.heat_apply(hp, f, pts, route="kernel")
        assert np.array_equal(serial, threaded)


def test_kernel_route_absorbs_the_endpoint_exponents():
    # power_gaussian(-0.9, 0.5) carries u^(a+1/2) = u^-0.4 at u -> 0, and the
    # kernel another u^(a+1/2); the u rule must absorb both.  Tolerance
    # fixed before the code: 1e-6 of the largest value
    from grushin.functions import power_gaussian
    hp = HeatParams(0.5, TypePair(-0.9, 0.5))
    f = power_gaussian(-0.9, 0.5)
    pts = np.array([[0.5, 0.5], [1.0, 1.0], [1.5, 0.8], [0.8, 1.5]])
    kern = heat.heat_apply(hp, f, pts, route="kernel")
    spec = heat.heat_apply(hp, f, pts, route="spectral")
    assert np.max(np.abs(kern - spec)) / np.max(np.abs(spec)) < 1e-6


def _recorded_rules(monkeypatch):
    """The u and v rules of heat_apply's kernel route and the r and s rules of
    g_forward, recorded as they are built."""
    from grushin import gtransform
    rules = {}

    def recording(key, build):
        def call(*args, **kwargs):
            rules[key] = build(*args, **kwargs)
            return rules[key]
        return call

    route = heat._kernel_route

    def recording_route(hp, fvals, urule, vrule, pts, trule):
        rules["u"], rules["v"] = urule, vrule
        return route(hp, fvals, urule, vrule, pts, trule)

    monkeypatch.setattr(heat, "_kernel_route", recording_route)
    monkeypatch.setattr(gtransform, "analysis_rule", recording("r", gtransform.analysis_rule))
    monkeypatch.setattr(gtransform, "rule_for_function",
                        recording("s", gtransform.rule_for_function))
    return rules


def _heat_workload_points(seed):
    # the heat workload's points: 16 r on (1, 3) x 16 s on (1.8, 4.6), each
    # lattice shifted by one seeded offset within a cell
    rng = np.random.default_rng([seed, 3])
    r = 1.0 + 2.0 * (np.arange(16) + rng.uniform()) / 16
    s = 1.8 + 2.8 * (np.arange(16) + rng.uniform()) / 16
    return np.stack(np.meshgrid(r, s, indexing="ij"), axis=-1).reshape(-1, 2)


class TestDeclaredWidths:
    """Every plane's profiles own their panel widths, so the kernel route takes the
    panel law's rules, capped by those widths."""

    def test_packet_route_matches_its_refined_rule(self):
        # the packet's u^(a+1/2) and v^(b+1/2) are absorbed from 0, so the
        # panel law's rules land on the refined rule (widths 0.05 and 0.025).
        # Tolerance fixed before the code: 1e-12 of the largest value
        from grushin.functions import packet_plane
        hp, f = HeatParams(0.5, TypePair(0.4, 0.25)), packet_plane()
        pts = _heat_workload_points(1)
        got = heat.heat_apply(hp, f, pts, route="kernel")
        urule = quadrature.profile_rule(f.axis_profile(0), 0.05, hp.alpha + 0.5)
        vrule = quadrature.profile_rule(f.axis_profile(1), 0.025, hp.beta + 0.5)
        want = heat.heat_apply_grid(hp, f(urule.nodes[:, None], vrule.nodes[None, :]),
                                    urule, vrule, pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_packet_node_counts(self, monkeypatch):
        # u: (0, 5.3) on panels of the packet's 0.6; v: (0, 8.15) on the panel
        # law's 5 pi/18 (the caps gave 288 x 880)
        from grushin.functions import packet_plane
        rules = _recorded_rules(monkeypatch)
        heat.heat_apply(HeatParams(0.5, TypePair(0.4, 0.25)), packet_plane(), [[1.5, 2.0]])
        assert (len(rules["u"]), len(rules["v"])) == (144, 160)

    @pytest.mark.parametrize("plane", ["bump", "grid"])
    @pytest.mark.parametrize("t, ab", [(0.5, (0.4, 0.25)), (2.0, (-0.5, 0.7))])
    def test_undeclared_profiles_keep_their_rules(self, monkeypatch, plane, t, ab):
        # node for node the rules of the widths these planes own: an eighth of each
        # bump's half-width (0.125 in r, 0.15 in s) and 8 steps of the grid (0.8),
        # no wider than each kernel's own panels: heat's u and v rules, g_forward's
        # Laguerre r rule of the top tau octave and its Hankel s rule
        from grushin import gtransform
        from grushin.diffop import GridFunction2D
        from grushin.functions import grid_plane, wave_packet
        from grushin.specfun import laguerre_eigenvalue
        r, s = np.arange(0.05, 5.35, 0.1), np.arange(0.05, 8.2, 0.1)
        values = wave_packet(2.0, 0.6, 3.0)(r)[:, None] * wave_packet(3.2, 0.9, 5.5)(s)[None, :]
        f = {"bump": bump_plane, "grid": lambda: grid_plane(GridFunction2D(r, s, values))}[plane]()
        hp = HeatParams(t, TypePair(*ab))
        rules = _recorded_rules(monkeypatch)
        heat.heat_apply(hp, f, [[1.5, 2.0]])
        gtransform.g_forward(TypePair(0.4, 0.25), f, n_max=96)
        fu, fv = f.axis_profile(0), f.axis_profile(1)
        wu, wv = {"bump": (1.0 / 8.0, 1.2 / 8.0), "grid": (0.8, 0.8)}[plane]
        assert (fu.width, fv.width) == pytest.approx((wu, wv), 1e-12)
        tau_half = 18.0 / heat._kernel_rate(hp)
        tau = gtransform.default_tau_rule().nodes
        lam = laguerre_eigenvalue(0.4, 95)
        # both supports start past 0, so every rule is one even split
        want = {"u": (fu.support, min(wu, 3.0 / np.sqrt(tau_half))),
                "v": (fv.support, min(wv, 5 * np.pi / tau_half)),
                "r": (fu.support, min(wu, 5 * np.pi / np.sqrt(lam * tau[-1]))),
                "s": (fv.support, min(wv, 5 * np.pi / 12.0))}
        for key, ((lo, hi), width) in want.items():
            rule = quadrature.build_finite_rule(lo, hi, width, 16)
            assert np.array_equal(rules[key].nodes, rule.nodes), key
            assert np.array_equal(rules[key].weights, rule.weights), key
        counts = {"bump": (256, 272, 256, 272),
                  "grid": (128 if t == 0.5 else 112, 176, 368, 176)}[plane]
        assert tuple(len(rules[key]) for key in "uvrs") == counts

    @pytest.mark.parametrize("b", [-0.5, 0.0, 0.7])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.7])
    def test_route_test_function_matches_a_quarter_width_rule(self, a, b):
        # check 8's plane is declared from 0, so the kernel route absorbs its
        # u^(a+1/2) and v^(b+1/2) and lands on the rules of a quarter of its
        # widths (when it was clamped at 1e-8 it was 3.0e-8 off at b = 0).
        # Tolerance fixed before the code: 1e-12 of the largest value
        from grushin.verify import route_test_function
        hp, f = HeatParams(0.5, TypePair(a, b)), route_test_function()
        pts = np.array([[1.6, 2.4], [2.0, 3.0], [2.4, 3.6], [1.8, 2.2]])
        got = heat.heat_apply(hp, f, pts, route="kernel")
        tau_half = 18.0 / heat._kernel_rate(hp)
        fu, fv = f.axis_profile(0), f.axis_profile(1)
        urule = quadrature.profile_rule(fu, min(3.0 / np.sqrt(tau_half), fu.width) / 4, a + 0.5)
        vrule = quadrature.profile_rule(fv, min(5 * np.pi / tau_half, fv.width) / 4, b + 0.5)
        want = heat.heat_apply_grid(hp, f(urule.nodes[:, None], vrule.nodes[None, :]),
                                    urule, vrule, pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("route", ["kernel", "spectral"])
    def test_bump_routes_match_a_64th_of_their_supports(self, route):
        # the bump's width, an eighth of its half-width, holds both routes within
        # 1e-12 of the max of rules on a 64th of each support (they were 4.2e-10
        # and 7.7e-11 off on the caps).  Tolerance fixed before the code
        from grushin.gtransform import PlaneFunction
        hp, f = HeatParams(0.4, TypePair(0.2, 0.3)), bump_plane()
        fine = PlaneFunction(f.fn, profiles=tuple(
            dataclasses.replace(f.axis_profile(axis), width=(hi - lo) / 64.0)
            for axis, (lo, hi) in enumerate(f.support)))
        pts = np.array([[1.4, 2.0], [2.1, 2.5], [1.0, 1.5], [2.6, 3.2], [1.8, 2.2]])
        got = heat.heat_apply(hp, f, pts, route=route)
        want = heat.heat_apply(hp, fine, pts, route=route)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("t, ab", [(0.5, (0.4, 0.25)), (2.0, (-0.5, 0.7))])
    def test_declared_power_gaussian(self, monkeypatch, t, ab):
        # power_gaussian declares the width 3.5/8 that its envelope already caps
        # its rules at (quadrature's envelope cap at the cut u = 8 of its decay):
        # g_forward's r rule over the whole tau grid and its s rule are the
        # undeclared profile's, node for node, and the kernel route's u and v
        # rules take the smaller of that width and the kernel's
        from grushin import gtransform
        from grushin.functions import power_gaussian
        from grushin.laguerre import analysis_rule
        f, hp = power_gaussian(*ab), HeatParams(t, TypePair(*ab))
        fu, fv = f.axis_profile(0), f.axis_profile(1)
        policy = quadrature.TruncationPolicy(decay_hint=fu.decay, rate=fu.rate)
        cap = quadrature._envelope_cap(policy, np.inf)(quadrature.truncation_point(policy))
        assert fu.width == fv.width == cap == 3.5 / 8.0
        bare_u, bare_v = (dataclasses.replace(p, width=None) for p in (fu, fv))
        tau = gtransform.default_tau_rule().nodes
        for n_max, count in ((96, 560), (256, 912)):
            got = analysis_rule(0.4, (tau[0], tau[-1]), fu, n_max)
            want = analysis_rule(0.4, (tau[0], tau[-1]), bare_u, n_max)
            assert len(got) == count
            assert np.array_equal(got.nodes, want.nodes)
            assert np.array_equal(got.weights, want.weights)
        rules = _recorded_rules(monkeypatch)
        gtransform.g_forward(TypePair(0.4, 0.25), f, n_max=96)
        want_s = quadrature.profile_rule(bare_v, 5 * np.pi / 12.0, 0.75)
        assert len(rules["s"]) == 304
        assert np.array_equal(rules["s"].nodes, want_s.nodes)
        assert np.array_equal(rules["s"].weights, want_s.weights)

        pts = _heat_workload_points(1)
        got = heat.heat_apply(hp, f, pts)
        tau_half = 18.0 / heat._kernel_rate(hp)
        want = {"u": quadrature.profile_rule(bare_u, min(3.5 / 8.0, 3.0 / np.sqrt(tau_half)),
                                             ab[0] + 0.5),
                "v": quadrature.profile_rule(bare_v, min(3.5 / 8.0, 5 * np.pi / tau_half),
                                             ab[1] + 0.5)}
        for key in "uv":
            assert np.array_equal(rules[key].nodes, want[key].nodes), key
            assert np.array_equal(rules[key].weights, want[key].weights), key
        # within 1e-14 of max of the route on rules of width 0.05 (tolerance
        # fixed before the code)
        urule = quadrature.profile_rule(fu, 0.05, ab[0] + 0.5)
        vrule = quadrature.profile_rule(fv, 0.05, ab[1] + 0.5)
        refined = heat.heat_apply_grid(hp, f(urule.nodes[:, None], vrule.nodes[None, :]),
                                       urule, vrule, pts)
        assert np.max(np.abs(got - refined)) <= 1e-14 * np.max(np.abs(refined))


def test_kernel_route_keeps_the_imaginary_part():
    # the route is linear over the complex numbers: on (1+1j) times the packet
    # it returns (1+1j) times the packet's values, and agrees with the
    # spectral route to check 8's 1e-3.  Tolerance fixed before the code:
    # 1e-15 of the largest value
    from grushin.functions import packet_plane
    from grushin.gtransform import PlaneFunction
    hp = HeatParams(0.5, TypePair(0.3, 0.2))
    packet = packet_plane()
    f = PlaneFunction(lambda r, s: (1 + 1j) * packet(r, s), profiles=packet.profiles)
    pts = np.array([[1.6, 2.4], [2.0, 3.0], [2.4, 3.6], [1.8, 2.2]])
    kern = heat.heat_apply(hp, f, pts, route="kernel")
    want = (1 + 1j) * heat.heat_apply(hp, packet, pts, route="kernel")
    assert kern.dtype == complex
    assert np.max(np.abs(kern - want)) <= 1e-15 * np.max(np.abs(want))
    spec = heat.heat_apply(hp, f, pts, route="spectral")
    assert np.max(np.abs(kern - spec) / np.abs(kern)) < 1e-3


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
    # at t = 0.05 the tau envelope reaches 360 and the (K, n_v) table outweighs
    # the route's own arrays; at t = 0.3 the panel law leaves it 944 x 512
    hp = HeatParams(0.05, TypePair(-0.5, 0.5))
    tracemalloc.start()
    try:
        out = heat.heat_apply(hp, packet_plane(), [[1.5, 2.0], [2.5, 3.0]], route="kernel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    assert (sizes["K"], sizes["n_v"]) == (4176, 2992)
    assert peak < 8 * sizes["K"] * sizes["n_v"]


def test_kernel_route_memory_stays_below_the_s_by_r_and_tau_by_s_tables(monkeypatch):
    # scattered points with more distinct s than tau nodes: the tau -> s step
    # contracts the b(tau) of every distinct r in blocks of distinct s, each
    # keeping the entries of its own points, so neither a (K, n_s) nor an
    # (n_s, n_r) table is formed (n_s distinct s, n_r distinct r)
    import tracemalloc
    sizes = {}
    route = heat._kernel_route

    def recording_route(hp, fvals, urule, vrule, pts, trule):
        sizes["K"] = len(trule.nodes)
        return route(hp, fvals, urule, vrule, pts, trule)

    monkeypatch.setattr(heat, "_kernel_route", recording_route)
    # the bound holds for two workers' blocks at a time
    monkeypatch.setenv("GRUSHIN_THREADS", "2")
    hp, f = HeatParams(2.0, TypePair(0.4, 0.25)), bump_plane()
    n_s, n_r = 4000, 200
    pts = np.stack([np.repeat(np.linspace(1.0, 2.5, n_r), n_s // n_r),
                    np.linspace(0.5, 1.0, n_s)], axis=-1)
    tracemalloc.start()
    try:
        out = heat.heat_apply(hp, f, pts, route="kernel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes["K"] == 464
    assert peak < 8 * min(sizes["K"] * n_s, n_s * n_r)
    # each point keeps its own (r, s) entry: the same points one at a time
    # share the tau rule (it follows max(s, 1) = 1) and differ by rounding
    few = pts[::997]
    alone = np.concatenate([heat.heat_apply(hp, f, [p], route="kernel") for p in few])
    assert np.allclose(out[::997], alone, rtol=1e-13, atol=0.0)


def diagonal_profile_per_x_reference(kind, tp, x_grid):
    """One tau quadrature per grid point with the unscaled I_a, each on the
    point kernel's rule for that section (heat.kernel_tau_rule).  Its F2 turns
    NaN once I_a overflows (tau r^2 / sinh tau > 700, r > 26.5)."""
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    hp = HeatParams(0.5, tp)
    out = np.empty(len(x_grid))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(x_grid):
            r, s = (1.0, x) if kind == "F1" else (x, 1.0)
            rule = heat.kernel_tau_rule(hp, s, (r, r, 2.0))
            tau = rule.nodes
            inv = heat._inv_sinh(tau)
            arg = tau * r * r
            out[i] = np.dot(rule.weights, bessel_j(tp.beta, tau * s) ** 2
                            * tau * tau * inv * np.exp(-arg * heat._coth(tau))
                            * iv(tp.alpha, arg * inv))
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

    @pytest.mark.parametrize("ab", [(0.4, -0.9), (0.25, -0.4), (0.25, 0.25), (-0.9, 0.5)])
    def test_sections_of_the_point_kernel(self, ab):
        # s F1(s) = K_1/2((1,s),(1,s)) and r F2(r) = K_1/2((r,1),(r,1)), each
        # side on its own tau rule.  Tolerance fixed before the code: 1e-8
        # relative
        tp = TypePair(*ab)
        hp = HeatParams(0.5, tp)
        xs = np.array([1e-3, 0.1, 1.0, 5.0])
        f1 = xs * heat.diagonal_profile("F1", tp, xs)
        f2 = xs * heat.diagonal_profile("F2", tp, xs)
        k1 = np.array([heat.heat_kernel(hp, 1.0, x, 1.0, x) for x in xs])
        k2 = np.array([heat.heat_kernel(hp, x, 1.0, x, 1.0) for x in xs])
        assert np.max(np.abs(f1 - k1) / np.abs(k1)) < 1e-8
        assert np.max(np.abs(f2 - k2) / np.abs(k2)) < 1e-8

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

    @pytest.mark.parametrize("ab", [(0.25, 0.4), (-0.6, 0.25), (-0.9, 0.5), (0.4, -0.9),
                                    (0.25, -0.4), (-0.99, -0.99)])
    @pytest.mark.parametrize("kind", ["F1", "F2"])
    def test_matches_a_refined_rule(self, monkeypatch, kind, ab):
        # refined: abs_tol 1e-28, half the rate and three times the frequency bound
        tp = TypePair(*ab)
        xs = np.logspace(-3, np.log10(20.0), 40)
        got = heat.diagonal_profile(kind, tp, xs)
        build_rule = quadrature.build_rule
        monkeypatch.setattr(heat, "build_rule", lambda policy: build_rule(dataclasses.replace(
            policy, abs_tol=1e-28, rate=policy.rate / 2, freq_bound=3 * policy.freq_bound,
            max_panels=1 << 17)))
        want = heat.diagonal_profile(kind, tp, xs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    @pytest.mark.parametrize("kind, ab", [("F1", (0.25, 0.5)), ("F2", (0.5, 0.25))])
    def test_power_law_below_the_square_root_of_the_double_range(self, kind, ab):
        # F1 ~ C s^(2b) and F2 ~ C r^(2a) down to x where x F = K, here ~ x^2,
        # has left the double range; tolerance fixed before the code: 1e-12
        # relative
        xs = np.array([1e-150, 1e-160, 1e-170])
        power = 2.0 * (ab[1] if kind == "F1" else ab[0])
        scaled = heat.diagonal_profile(kind, TypePair(*ab), xs) / xs**power
        assert np.all(np.isfinite(scaled)) and np.all(scaled > 0.0)
        assert np.max(np.abs(scaled / scaled[0] - 1.0)) < 1e-12


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

    @pytest.mark.parametrize("u, v", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (-1.0, 1.0)])
    def test_weighted_kernel_rejects_nonfinite_u_v(self, u, v):
        hp = HeatParams(0.5, TypePair(0.3, 0.45))
        named = "v" if u == 1.0 else "u"
        with pytest.raises(ValueError, match=f"^{named} must be a finite real >= 0, got "):
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


def mpmath_kernel(t, ab, r, s, u, v):
    """K_t((r,s),(u,v)) by mpmath's tanh-sinh quadrature at 20 digits, on
    unit intervals out to where the integrand's envelope
    exp(-tau((r^2+u^2)/2 + 2t(a+1))) falls below 1e-17."""
    import mpmath
    with mpmath.workdps(20):
        t, a, b, r, s, u, v = map(mpmath.mpf, (t, *ab, r, s, u, v))

        def integrand(tau):
            y = 2 * t * tau
            return (mpmath.besselj(b, tau * s) * mpmath.besselj(b, tau * v)
                    * mpmath.exp(-tau * (r * r + u * u) / (2 * mpmath.tanh(y)))
                    * mpmath.besseli(a, tau * r * u / mpmath.sinh(y))
                    * tau**2 / mpmath.sinh(y))

        top = int(40 / ((r * r + u * u) / 2 + 2 * t * (a + 1))) + 1
        return float(mpmath.sqrt(r * s * u * v) * mpmath.quad(integrand, range(top + 1)))


class TestTauExponentForNegativeB:
    # for -1/2 < b < 0 the tau integrand goes as tau^(2b+1) with an unbounded
    # derivative at 0; the rules absorb it.  Tolerances fixed before the
    # code; the unabsorbed rules were off by 1.8e-11 to 4.6e-8 (kernel) and
    # 6.4e-10 to 1.0e-8 (profiles)

    @pytest.mark.parametrize("ab,t,point", [
        ((0.25, -0.4), 0.5, (1.0, 1.0, 1.0, 1.0)),
        ((0.25, -0.4), 0.1, (0.7, 1.3, 1.1, 0.6)),
        ((0.3, -0.2), 0.5, (1.2, 0.8, 0.9, 1.5)),
    ])
    def test_heat_kernel_against_mpmath(self, ab, t, point):
        got = heat.heat_kernel(HeatParams(t, TypePair(*ab)), *point)
        want = mpmath_kernel(t, ab, *point)
        assert abs(got - want) / abs(want) < 1e-12

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_diagonal_profiles_against_mpmath(self, x):
        # s F1(s) = K_1/2((1,s),(1,s)) and r F2(r) = K_1/2((r,1),(r,1))
        ab = (0.25, -0.4)
        f1 = x * heat.diagonal_profile("F1", TypePair(*ab), [x])[0]
        f2 = x * heat.diagonal_profile("F2", TypePair(*ab), [x])[0]
        k1 = mpmath_kernel(0.5, ab, 1.0, x, 1.0, x)
        k2 = mpmath_kernel(0.5, ab, x, 1.0, x, 1.0)
        assert abs(f1 - k1) / abs(k1) < 1e-11
        assert abs(f2 - k2) / abs(k2) < 1e-11


@pytest.mark.xfail(strict=True, reason="the tau cut treats the integrand as tau^2 e^(-tau phi), "
                   "but J_b(tau s) J_b(tau v) grows like tau^(2b) while tau max(s, v) < b: "
                   "at b > 1 with small s, v the rule stops too early")
@pytest.mark.parametrize("t, ab, point", [
    (0.782, (-0.18, 2.85), (0.09, 0.102, 0.0701, 0.0167)),
    (1.55, (-0.289, 2.454), (0.612, 0.0975, 0.248, 0.0124)),
])
def test_heat_kernel_at_large_b_against_mpmath(t, ab, point):
    # the kernel's own aim, heat._KERNEL_TOL = 1e-10 relative
    got = heat.heat_kernel(HeatParams(t, TypePair(*ab)), *point)
    want = mpmath_kernel(t, ab, *point)
    assert abs(got - want) / abs(want) < 1e-10
