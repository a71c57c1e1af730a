"""Heat-kernel tests: stability of the closed form, weighted variant,
origin limit, slice integrability, positivity probes."""

import numpy as np
import pytest

from grushin import heat
from grushin.functions import bump_plane
from grushin.gtransform import TypePair
from grushin.heat import HeatParams
from grushin.quadrature import QuadratureError, build_finite_rule


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
