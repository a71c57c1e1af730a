"""Combined-transform tests: exact spectral data, Plancherel, inverses,
functional calculus."""

import numpy as np
import pytest
from scipy.special import gammaln

from grushin import _util, diffop, gtransform
from grushin.functions import packet_plane, power_gaussian, smooth_bump
from grushin.gtransform import (Multiplier, PlaneFunction, SpectralData,
                                TypePair, default_tau_rule)
from grushin.hankel import HalfLineFunction
from grushin.laguerre import gaussian_coefficient
from grushin.quadrature import build_finite_rule
from grushin.specfun import laguerre_eigenvalue


class TestForward:
    def test_separated_gaussian_closed_form(self):
        # the transform of r^(a+1/2) s^(b+1/2) e^{-(r^2+s^2)/2} factors into
        # the gaussian Laguerre coefficient times tau^(b+1/2) e^{-tau^2/2}
        tp = TypePair(0.5, 0.3)
        sd = gtransform.g_forward(tp, power_gaussian(tp.alpha, tp.beta), n_max=12)
        taus = sd.tau_grid
        for n in (0, 1, 5, 11):
            want = gaussian_coefficient(tp.alpha, n, taus) \
                * taus ** (tp.beta + 0.5) * np.exp(-taus**2 / 2)
            assert np.max(np.abs(sd.values[n] - want)) < 1e-9

    def test_separated_matches_full(self):
        tp = TypePair(0.4, 0.6)
        f1 = HalfLineFunction(lambda r: np.exp(-((r - 1.8) / 0.7) ** 2),
                              support=(0.2, 3.4))
        f2 = HalfLineFunction(lambda s: np.exp(-((s - 2.2) / 0.8) ** 2)
                              * np.cos(3.0 * (s - 2.2)), support=(0.2, 4.2))
        full = gtransform.g_forward(
            tp, PlaneFunction(fn=lambda r, s: f1(r) * f2(s),
                              support=((0.2, 3.4), (0.2, 4.2))), n_max=24)
        sep = gtransform.g_forward_separated(tp, f1, f2, n_max=24)
        scale = np.max(np.abs(full.values))
        assert np.max(np.abs(full.values - sep.values)) / scale < 1e-9

    def test_zero_factor_gives_zero_data(self):
        tp = TypePair(0.0, 0.0)
        zero = HalfLineFunction(lambda r: np.zeros_like(r), support=(0.5, 1.5))
        f2 = HalfLineFunction(lambda s: np.exp(-s), decay="exponential")
        sd = gtransform.g_forward_separated(tp, zero, f2, n_max=8)
        assert np.all(sd.values == 0.0)

    def test_basis_factor_selects_a_row(self):
        # with f1 a basis function at a grid tau, the column there is the
        # unit vector e_2 times the Hankel factor
        from grushin.specfun import LaguerreIndex, laguerre_fn
        from grushin.hankel import hankel_liouville
        tp = TypePair(0.4, 0.3)
        rule = default_tau_rule()
        k_star = np.searchsorted(rule.nodes, 2.0)
        tau_star = float(rule.nodes[k_star])
        f1 = HalfLineFunction(
            lambda r: laguerre_fn(LaguerreIndex(2, tp.alpha, tau_star), r),
            decay="gaussian", rate=np.sqrt(tau_star),
            endpoint_exponent=tp.alpha + 0.5)
        f2 = HalfLineFunction(lambda s: np.exp(-((s - 2.0) / 0.8) ** 2),
                              support=(1e-8, 6.0))
        sd = gtransform.g_forward_separated(tp, f1, f2, n_max=8)
        h2 = hankel_liouville(tp.beta, f2, [tau_star])
        col = sd.values[:, k_star]
        want = np.zeros(8)
        want[2] = h2[0]
        # the reference value is computed with an independent rule
        assert np.max(np.abs(col - want)) < 1e-6


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.2])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 1.2])
def test_plancherel_on_packets(alpha, beta):
    """Norm preservation across the type-parameter grid."""
    from grushin.verify import route_test_function
    tp = TypePair(alpha, beta)
    f = route_test_function()
    sd = gtransform.g_forward(tp, f, n_max=96)
    got = gtransform.plancherel_norm(sd) ** 2
    (r_lo, r_hi), (s_lo, s_hi) = f.support
    rr = build_finite_rule(r_lo, r_hi, 0.02)
    ss = build_finite_rule(s_lo, s_hi, 0.02)
    want = np.sum(rr.weights[:, None] * ss.weights[None, :]
                  * f(rr.nodes[:, None], ss.nodes[None, :]) ** 2)
    assert abs(got - want) / want < 1e-5


def test_plancherel_near_boundary_orders():
    """Strongly negative type parameters exercise the singular tau weight."""
    tp = TypePair(-0.9, -0.8)
    f = packet_plane()
    sd = gtransform.g_forward(tp, f, n_max=96)
    got = gtransform.plancherel_norm(sd) ** 2
    (r_lo, r_hi), (s_lo, s_hi) = f.support
    rr = build_finite_rule(r_lo, r_hi, 0.02)
    ss = build_finite_rule(s_lo, s_hi, 0.02)
    want = np.sum(rr.weights[:, None] * ss.weights[None, :]
                  * f(rr.nodes[:, None], ss.nodes[None, :]) ** 2)
    assert abs(got - want) / want < 1e-4


def test_plancherel_power_gaussian_at_negative_alpha():
    """The declared profiles let both rules absorb r^(2a+1) and s^(2b+1)."""
    a, b = -0.9, 0.5
    sd = gtransform.g_forward(TypePair(a, b), power_gaussian(a, b), n_max=96)
    want = 0.25 * np.exp(gammaln(a + 1.0) + gammaln(b + 1.0))
    assert abs(gtransform.plancherel_norm(sd) ** 2 - want) / want < 1e-7


class TestAxisProfiles:
    F1 = HalfLineFunction(lambda r: r * np.exp(-r), decay="exponential",
                          endpoint_exponent=1.0)
    F2 = HalfLineFunction(lambda s: np.exp(-((s - 2.2) / 0.8) ** 2), support=(0.2, 4.2))

    def plane(self, **kw):
        return PlaneFunction(fn=lambda r, s: self.F1(r) * self.F2(s), **kw)

    def test_axis_profile_returns_the_declared_profile(self):
        f = self.plane(profiles=(self.F1, self.F2))
        assert f.axis_profile(0) is self.F1 and f.axis_profile(1) is self.F2

    def test_without_profiles_only_the_support_is_kept(self):
        prof = self.plane(support=((0.1, 2.0), (0.3, 4.0))).axis_profile(1)
        assert prof.support == (0.3, 4.0) and prof.endpoint_exponent == 0.0

    def test_support_and_profiles_together_are_rejected(self):
        with pytest.raises(ValueError, match="support.*profiles"):
            self.plane(support=((0.1, 2.0), (0.3, 4.0)), profiles=(self.F1, self.F2))

    @pytest.mark.parametrize("bad", [
        "pair", [F1, F2], (F1,), (F1, F2, F2), (F1, lambda s: s)])
    def test_bad_profiles_are_rejected(self, bad):
        with pytest.raises(TypeError, match="profiles"):
            self.plane(profiles=bad)

    @pytest.mark.parametrize("alpha, beta", [(0.4, 0.6), (-0.9, 0.5)])
    def test_separated_is_forward_of_the_product(self, alpha, beta):
        tp = TypePair(alpha, beta)
        sep = gtransform.g_forward_separated(tp, self.F1, self.F2, n_max=12)
        full = gtransform.g_forward(tp, self.plane(profiles=(self.F1, self.F2)), n_max=12)
        assert np.array_equal(sep.tau_grid, full.tau_grid)
        assert np.array_equal(sep.values, full.values)


class TestInverse:
    def test_zero_data_gives_zero(self):
        rule = default_tau_rule()
        sd = SpectralData(0.0, 0.0, rule.nodes, rule.weights,
                          np.zeros((4, len(rule.nodes))))
        out = gtransform.g_inverse(sd, [[1.0, 1.0], [2.0, 0.5]])
        assert np.all(out == 0.0)
        assert gtransform.plancherel_norm(sd) == 0.0

    def test_one_point_gives_one_element_array(self):
        sd = gtransform.g_forward(TypePair(0.3, 0.2), packet_plane(), n_max=16)
        for pts in ([[1.0, 1.0]], [1.0, 1.0]):
            out = gtransform.g_inverse(sd, pts)
            assert isinstance(out, np.ndarray) and out.shape == (1,)
        two = gtransform.g_inverse(sd, [[1.0, 1.0], [2.0, 0.5]])
        assert out[0] == pytest.approx(two[0], rel=1e-12)

    def test_grid_and_scattered_agree(self):
        tp = TypePair(0.3, 0.2)
        sd = gtransform.g_forward(tp, packet_plane(), n_max=32)
        rs = np.array([1.5, 2.0])
        ss = np.array([2.5, 3.1, 3.6])
        grid = gtransform.g_inverse_grid(sd, rs, ss)
        pts = np.stack(np.meshgrid(rs, ss, indexing="ij"), axis=-1).reshape(-1, 2)
        scattered = gtransform.g_inverse(sd, pts).reshape(2, 3)
        assert np.allclose(grid, scattered, rtol=1e-12)


class TestLaguerreBlocks:
    """Column blocks and worker threads leave every bit of the result alone."""

    def test_independent_of_block_size_and_threads(self, monkeypatch):
        tp = TypePair(0.3, -0.4)
        f = packet_plane()
        rs = np.linspace(0.4, 3.5, 7)
        ss = np.linspace(0.5, 4.5, 5)
        pts = np.stack([np.linspace(0.5, 3.0, 9), np.linspace(4.0, 0.7, 9)], axis=-1)

        def run():
            sd = gtransform.g_forward(tp, f, n_max=20)
            return (sd.values, gtransform.g_inverse(sd, pts),
                    gtransform.g_inverse_grid(sd, rs, ss))

        # the whole table as one block, on one thread
        monkeypatch.setattr(_util, "BLOCK", 10**12)
        monkeypatch.setenv("GRUSHIN_THREADS", "1")
        want = run()
        # two columns per block, then a few columns per block
        for block in (1, 5000):
            monkeypatch.setattr(_util, "BLOCK", block)
            for threads in ("1", "4"):
                monkeypatch.setenv("GRUSHIN_THREADS", threads)
                for got, ref in zip(run(), want):
                    assert np.array_equal(got, ref), (block, threads)


def _truncated_spectral_fixture(tp, tau_rule):
    """Smooth compactly supported data on the discretized spectrum.

    The tau profile is a gaussian under a smooth window: effectively analytic,
    so the inverse decays fast in s and a finite integration box captures it.
    """
    taus = tau_rule.nodes
    psi = np.exp(-(taus - 3.5) ** 2) * smooth_bump(3.5, 1.5)(taus)
    weights = np.array([1.0, -0.7, 0.4, 0.2, -0.1])
    values = weights[:, None] * psi[None, :]
    return SpectralData(tp.alpha, tp.beta, taus, tau_rule.weights, values)


def _plane_from_spectral(sd, support):
    def fn(r, s):
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        if r.ndim == 2 and s.ndim == 2 and r.shape[1] == 1 and s.shape[0] == 1:
            return gtransform.g_inverse_grid(sd, r.ravel(), s.ravel())
        rb, sb = np.broadcast_arrays(r, s)
        flat = gtransform.g_inverse(sd, np.stack([rb.ravel(), sb.ravel()], axis=-1))
        return np.asarray(flat).reshape(rb.shape)
    return PlaneFunction(fn=fn, support=support)


class TestRoundTripFromSpectrum:
    def test_forward_of_inverse_recovers_data(self):
        # inverse first, forward second, on data truncated in n and supported
        # inside the tau grid
        tp = TypePair(0.4, 0.3)
        tau_rule = default_tau_rule()
        sd = _truncated_spectral_fixture(tp, tau_rule)
        f = _plane_from_spectral(sd, ((1e-8, 9.0), (1e-8, 16.0)))
        back = gtransform.g_forward(tp, f, n_max=8, tau_rule=tau_rule)
        # compare on the occupied rows plus the truncation tail
        scale = np.max(np.abs(sd.values))
        err = np.max(np.abs(back.values[:5] - sd.values)) / scale
        tail = np.max(np.abs(back.values[5:])) / scale
        assert err < 1e-3
        assert tail < 1e-3

    def test_inverse_isometry(self):
        tp = TypePair(0.4, 0.3)
        tau_rule = default_tau_rule()
        sd = _truncated_spectral_fixture(tp, tau_rule)
        rr = build_finite_rule(0.0, 9.0, 0.06)
        ss = build_finite_rule(0.0, 14.0, 0.06)
        vals = gtransform.g_inverse_grid(sd, rr.nodes, ss.nodes)
        n2 = np.sum(rr.weights[:, None] * ss.weights[None, :] * vals**2)
        want = gtransform.plancherel_norm(sd) ** 2
        assert abs(n2 - want) / want < 1e-4


class TestComplexValues:
    def test_complex_round_trip_and_plancherel(self):
        # analytic-signal packet: complex data flow through forward,
        # norm, and inverse
        tp = TypePair(0.4, 0.25)
        base = packet_plane()

        def fn(r, s):
            env = base(r, s)
            return env * np.exp(1j * 0.7 * (r + 0.0 * s))

        f = PlaneFunction(fn=fn, support=base.support)
        sd = gtransform.g_forward(tp, f, n_max=96)
        assert np.iscomplexobj(sd.values)
        (r_lo, r_hi), (s_lo, s_hi) = f.support
        rr = build_finite_rule(r_lo, r_hi, 0.02)
        ss = build_finite_rule(s_lo, s_hi, 0.02)
        w = rr.weights[:, None] * ss.weights[None, :]
        want = np.sum(w * np.abs(fn(rr.nodes[:, None], ss.nodes[None, :])) ** 2)
        got = gtransform.plancherel_norm(sd) ** 2
        assert abs(got - want) / want < 1e-5

        pts = np.array([[2.0, 3.0], [1.7, 3.4]])
        rec = gtransform.g_inverse(sd, pts)
        vals = fn(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(rec - vals)) / np.max(np.abs(vals)) < 1e-3


class TestRefinementMonitoring:
    def test_round_trip_improves_with_truncation_order(self):
        # the discretized transform has no closed error rate; refinement in
        # n_max must visibly reduce the round-trip defect
        tp = TypePair(0.4, 0.25)
        f = packet_plane()
        (r_lo, r_hi), (s_lo, s_hi) = f.support
        rr = build_finite_rule(r_lo, r_hi, 0.4)
        ss = build_finite_rule(s_lo, s_hi, 0.4)
        want = f(rr.nodes[:, None], ss.nodes[None, :])
        w = rr.weights[:, None] * ss.weights[None, :]
        errs = []
        for n_max in (24, 48, 96):
            sd = gtransform.g_forward(tp, f, n_max=n_max)
            rec = gtransform.g_inverse_grid(sd, rr.nodes, ss.nodes)
            errs.append(np.sqrt(np.sum(w * (rec - want) ** 2)
                                / np.sum(w * want**2)))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]


class TestHatVariant:
    def test_matches_on_random_bump(self):
        rng = np.random.default_rng(5)
        c1, c2 = rng.uniform(1.5, 2.5, 2)
        f = PlaneFunction(
            fn=lambda r, s: np.exp(-((r - c1) / 0.6) ** 2 - ((s - c2) / 0.7) ** 2),
            support=((max(c1 - 3.0, 1e-8), c1 + 3.0),
                     (max(c2 - 3.3, 1e-8), c2 + 3.3)))
        tp = TypePair(0.2, 0.6)
        rule = default_tau_rule(upper=10.0, panels=20)
        a = gtransform.g_forward(tp, f, n_max=24, tau_rule=rule)
        b = gtransform.g_forward_hat(tp, f, n_max=24, tau_rule=rule)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) / scale < 1e-5


class TestFunctionalCalculus:
    def test_identity_multiplier_round_trips(self):
        tp = TypePair(0.4, 0.25)
        f = packet_plane()
        pts = np.array([[1.8, 3.0], [2.2, 3.5], [2.0, 2.6]])
        got = gtransform.functional_calculus(tp, Multiplier(lambda y: np.ones_like(y)),
                                             f, pts)
        want = f(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-3

    def test_one_point_gives_one_element_array(self):
        out = gtransform.functional_calculus(
            TypePair(0.4, 0.25), Multiplier(lambda y: np.exp(-y)), packet_plane(),
            [[1.8, 3.0]], n_max=16)
        assert isinstance(out, np.ndarray) and out.shape == (1,)

    def test_resolvent_inverts_shifted_operator(self):
        # phi(y) = 1/(1+y); finite differences then verify (I + G')u = f
        from grushin.verify import route_test_function
        tp = TypePair(0.5, 0.5)
        f = route_test_function()
        h = 1.0 / 128
        r0, s0 = 1.7, 2.7
        r_nodes = np.arange(r0, r0 + 1.0 + 0.5 * h, h)
        s_nodes = np.arange(s0, s0 + 1.0 + 0.5 * h, h)
        pts = np.stack(np.meshgrid(r_nodes, s_nodes, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        u = gtransform.functional_calculus(tp, Multiplier(lambda y: 1.0 / (1.0 + y)),
                                           f, pts)
        grid = diffop.GridFunction2D(r_nodes, s_nodes,
                                     np.asarray(u).reshape(len(r_nodes),
                                                           len(s_nodes)))
        gu = diffop.apply_G_circ(tp.alpha, tp.beta, grid)
        lhs = grid.values[1:-1, 1:-1] + gu.values
        want = f(gu.r_nodes[:, None], gu.s_nodes[None, :])
        resid = np.max(np.abs(lhs - want))
        assert resid / np.max(np.abs(want)) < 1e-3

    def test_unbounded_multiplier_overflow(self):
        tp = TypePair(0.0, 0.0)
        rule = default_tau_rule()
        sd = SpectralData(0.0, 0.0, rule.nodes, rule.weights,
                          np.ones((4, len(rule.nodes))))
        with pytest.raises(OverflowError):
            with np.errstate(over="ignore"):
                gtransform.apply_multiplier(sd, Multiplier(lambda y: np.exp(8.0 * y)))


class TestValidation:
    def test_type_pair(self):
        with pytest.raises(ValueError):
            TypePair(-1.0, 0.0)
        with pytest.raises(ValueError):
            TypePair(0.0, -2.0)

    @pytest.mark.parametrize("alpha, beta, named", [
        (np.nan, 0.0, "alpha"), (0.0, np.nan, "beta"), (-1.0, 0.0, "alpha")])
    def test_spectral_data_rejects_bad_type_parameters(self, alpha, beta, named):
        rule = default_tau_rule()
        with pytest.raises(ValueError, match=f"^{named} must be a finite real > -1"):
            SpectralData(alpha, beta, rule.nodes, rule.weights,
                         np.zeros((3, len(rule.nodes))))

    def test_spectral_data_invariants(self):
        rule = default_tau_rule()
        good = np.zeros((3, len(rule.nodes)))
        with pytest.raises(ValueError):
            SpectralData(0.0, 0.0, rule.nodes[::-1], rule.weights, good)
        with pytest.raises(ValueError):
            SpectralData(0.0, 0.0, rule.nodes, -rule.weights, good)
        with pytest.raises(ValueError):
            SpectralData(0.0, 0.0, rule.nodes, rule.weights, good[:, :-1])
        bad = good.copy()
        bad[1, 4] = np.inf
        with pytest.raises(ValueError):
            SpectralData(0.0, 0.0, rule.nodes, rule.weights, bad)

    def test_points_shape(self):
        rule = default_tau_rule()
        sd = SpectralData(0.0, 0.0, rule.nodes, rule.weights,
                          np.zeros((2, len(rule.nodes))))
        with pytest.raises(ValueError):
            gtransform.g_inverse(sd, [[1.0, 2.0, 3.0]])

    def test_spectral_symbol(self):
        assert gtransform.spectral_symbol(0.5, 3, 2.0) \
            == laguerre_eigenvalue(0.5, 3) * 2.0


@pytest.mark.parametrize("point, message", [
    ([1.0, -1.0], r"^s\[0\] must be a finite real > 0, got -1.0"),
    ([np.nan, 1.0], r"^r\[0\] must be a finite real > 0, got nan"),
    ([1.0, np.inf], r"^s\[0\] must be a finite real > 0, got inf")])
def test_inverse_rejects_points_outside_open_quarter_plane(point, message):
    rule = default_tau_rule()
    sd = SpectralData(0.0, 0.0, rule.nodes, rule.weights, np.ones((2, len(rule.nodes))))
    with pytest.raises(ValueError, match=message):
        gtransform.g_inverse(sd, [point])


@pytest.mark.parametrize("rs, ss, message", [
    ([np.nan, 1.0], [1.0], r"^rs\[0\] must be a finite real > 0, got nan"),
    ([1.0], [1.0, -2.0], r"^ss\[1\] must be a finite real > 0, got -2.0")])
def test_inverse_grid_rejects_points_outside_open_quarter_plane(rs, ss, message):
    rule = default_tau_rule()
    sd = SpectralData(0.0, 0.0, rule.nodes, rule.weights, np.ones((2, len(rule.nodes))))
    with pytest.raises(ValueError, match=message):
        gtransform.g_inverse_grid(sd, rs, ss)
