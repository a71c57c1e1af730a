"""Combined-transform tests: exact spectral data, Plancherel, inverses,
functional calculus."""

import dataclasses

import numpy as np
import pytest
from scipy.special import gammaln

from grushin import _util, diffop, gtransform, laguerre, specfun
from grushin.functions import bump_plane, grid_plane, packet_plane, power_gaussian, smooth_bump
from grushin.gtransform import PlaneFunction, SpectralData, TypePair, default_tau_rule
from grushin.hankel import HalfLineFunction, _liouville_kernel
from grushin.laguerre import LaguerreCoeffs, analysis_rule, gaussian_coefficient
from grushin.quadrature import build_finite_rule
from grushin.specfun import laguerre_eigenvalue, laguerre_fn_seq


def _product(f1, f2):
    """f(r, s) = f1(r) f2(s), on rules built from the hints of the two factors."""
    return PlaneFunction(lambda r, s: f1(r) * f2(s), profiles=(f1, f2))


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
        sep = gtransform.g_forward(tp, _product(f1, f2), n_max=24)
        scale = np.max(np.abs(full.values))
        assert np.max(np.abs(full.values - sep.values)) / scale < 1e-9

    def test_zero_factor_gives_zero_data(self):
        tp = TypePair(0.0, 0.0)
        zero = HalfLineFunction(lambda r: np.zeros_like(r), support=(0.5, 1.5))
        f2 = HalfLineFunction(lambda s: np.exp(-s), decay="exponential")
        sd = gtransform.g_forward(tp, _product(zero, f2), n_max=8)
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
        sd = gtransform.g_forward(tp, _product(f1, f2), n_max=8)
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
    (r_lo, r_hi), (s_lo, s_hi) = f.axis_profile(0).support, f.axis_profile(1).support
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


def test_declared_s_rule_has_no_octaves():
    # 19 panels of width 8/19 on (0, 8) for freq 12, the envelope's cap 3.5/8
    # binding below the phase's 5 pi/12; the 20 geometric octaves toward 0
    # would take the rule to 32 panels, 512 nodes
    _, s_rule, _ = gtransform._plane_setup(TypePair(0.5, 0.5), power_gaussian(0.5, 0.5), 96,
                                           None)
    assert len(s_rule) == 19 * 16


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
        assert prof.support == (0.3, 4.0) and prof.endpoint_exponent is None

    def test_support_and_profiles_together_are_rejected(self):
        with pytest.raises(ValueError, match="support.*profiles"):
            self.plane(support=((0.1, 2.0), (0.3, 4.0)), profiles=(self.F1, self.F2))

    def test_profiles_with_supports_set_the_box(self):
        # the box of two supported profiles is the plane's support, and passing
        # it back with them, as dataclasses.replace does, is no conflict
        F1 = HalfLineFunction(self.F1.fn, support=(0.0, 9.0))
        f = self.plane(profiles=(F1, self.F2))
        assert f.support == ((0.0, 9.0), (0.2, 4.2))
        assert dataclasses.replace(f, fn=f.fn).support == f.support
        assert self.plane(profiles=(self.F1, self.F2)).support is None

    @pytest.mark.parametrize("bad", [
        "pair", [F1, F2], (F1,), (F1, F2, F2), (F1, lambda s: s)])
    def test_bad_profiles_are_rejected(self, bad):
        with pytest.raises(TypeError, match="profiles"):
            self.plane(profiles=bad)


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

    def test_an_empty_list_is_zero_points(self):
        # [] used to raise "points must have shape (m, 2)"; [[]] still does
        sd = gtransform.g_forward(TypePair(0.3, 0.2), packet_plane(), n_max=16)
        out = gtransform.g_inverse(sd, [])
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        with pytest.raises(ValueError, match=r"^points must have shape \(m, 2\)$"):
            gtransform.g_inverse(sd, [[]])

    def test_grid_and_scattered_agree(self):
        tp = TypePair(0.3, 0.2)
        sd = gtransform.g_forward(tp, packet_plane(), n_max=32)
        rs = np.array([1.5, 2.0])
        ss = np.array([2.5, 3.1, 3.6])
        grid = gtransform.g_inverse_grid(sd, rs, ss)
        pts = np.stack(np.meshgrid(rs, ss, indexing="ij"), axis=-1).reshape(-1, 2)
        scattered = gtransform.g_inverse(sd, pts).reshape(2, 3)
        assert np.allclose(grid, scattered, rtol=1e-12)

    def test_repeated_coordinates_match_per_point_reference(self, monkeypatch):
        sd = gtransform.g_forward(TypePair(0.3, -0.4), packet_plane(), n_max=20)
        phase = np.exp(1j * 0.4 * np.arange(sd.n_max))[:, None]
        sd_complex = SpectralData(sd.alpha, sd.beta, sd.tau_grid, sd.tau_weights,
                                  sd.values * phase)
        pts = _repeated_lattice()
        perm = np.random.default_rng(7).permutation(len(pts))
        for data in (sd, sd_complex):
            want = _per_point_inverse(data, pts)
            for block, threads in ((_util.BLOCK, "1"), (_util.BLOCK, "4"), (1, "1"), (1, "4")):
                monkeypatch.setattr(_util, "BLOCK", block)
                monkeypatch.setenv("GRUSHIN_THREADS", threads)
                got = gtransform.g_inverse(data, pts)
                assert got.dtype == want.dtype and got.shape == (len(pts),)
                assert np.array_equal(got, want), (data.values.dtype, block, threads)
                assert np.array_equal(gtransform.g_inverse(data, pts[perm]), got[perm])
        assert np.all(want.imag != 0.0)


def _repeated_lattice():
    """A shuffled 5 x 4 lattice (5 distinct r, 4 distinct s) plus exact
    duplicates of two of its points."""
    rs, ss = np.linspace(0.6, 3.2, 5), np.linspace(0.5, 4.0, 4)
    pts = np.stack(np.meshgrid(rs, ss, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = pts[np.random.default_rng(5).permutation(len(pts))]
    return np.concatenate([pts, pts[[3, 11]]])


def _per_point_inverse(sd, pts):
    """The inverse transform as plain per-order synthesis at every point, then
    the tau sum over all points at once."""
    taus = sd.tau_grid
    synth = np.zeros((len(taus), len(pts)), dtype=sd.values.dtype)
    xs = np.sqrt(taus)[:, None] * pts[:, 0]
    for n, q in enumerate(laguerre_fn_seq(sd.alpha, xs, sd.n_max)):
        synth += sd.values[n][:, None] * q
    synth = synth * taus[:, None] ** 0.25
    kern = _liouville_kernel(sd.beta, taus, pts[:, 1])
    return np.sum(kern.T * synth * sd.tau_weights[:, None], axis=0)


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


def _band_x(setup):
    """The Laguerre arguments sqrt(tau) r of every band of setup, raveled."""
    tau_rule, _, bands = setup
    return np.concatenate([(np.sqrt(tau_rule.nodes[cols])[:, None] * r_rule.nodes).ravel()
                           for cols, r_rule in bands])


def _per_band_loops(tp, f, setup, n_max):
    """g_forward by plain per-order loops on each band of setup: f on the band's
    tensor rule, the whole weighted kernel as one product (g_forward's blocked s
    step must give its bits), then every tau row of every order contracted by the
    same np.vecdot as the analysis."""
    tau_rule, s_rule, bands = setup
    parts = []
    for cols, r_rule in bands:
        taus = tau_rule.nodes[cols]
        fvals = f(r_rule.nodes[:, None], s_rule.nodes[None, :])
        x = np.sqrt(taus)[:, None] * r_rule.nodes
        hankel = s_rule.weights[:, None] * _liouville_kernel(tp.beta, taus, s_rule.nodes)
        weighted = np.ascontiguousarray((r_rule.weights[:, None] * (fvals @ hankel)).T)  # (K, nr)
        parts.append([np.vecdot(q, weighted) for q in laguerre_fn_seq(tp.alpha, x, n_max)])
    return np.concatenate(parts, axis=1) * tau_rule.nodes[None, :] ** 0.25


class TestRescaledEntries:
    """On a tau grid reaching 400 about half of the Laguerre table lies past
    x = sqrt(tau) r ~ 34.6, where the recurrence carries a scale other than 1.
    The fused analysis and the in-place synthesis give the bits of plain
    per-order loops there too, whatever the block size and thread count."""

    def test_matches_per_order_loops(self, monkeypatch):
        tp, n_max = TypePair(0.4, -0.9), 96
        f = power_gaussian(tp.alpha, tp.beta)
        # the rules of g_forward, built once (the s rule at tau = 400 makes
        # them the slow part) and then reused
        setup = gtransform._plane_setup(tp, f, n_max, default_tau_rule(upper=400, panels=64))
        monkeypatch.setattr(gtransform, "_plane_setup", lambda *args: setup)
        tau_rule, s_rule, bands = setup
        # past x = 35 the recurrence starts below e^-600, on a rescaled entry
        assert np.mean(_band_x(setup) > 35.0) > 0.4
        want = _per_band_loops(tp, f, setup, n_max)

        pts = np.stack([np.linspace(0.5, 3.0, 9), np.linspace(4.0, 0.7, 9)], axis=-1)
        taus = tau_rule.nodes
        synth = np.zeros((len(taus), len(pts)))
        xs = np.sqrt(taus)[:, None] * pts[:, 0]
        for n, q in enumerate(laguerre_fn_seq(tp.alpha, xs, n_max)):
            synth += want[n][:, None] * q
        synth = synth * taus[:, None] ** 0.25
        kern = _liouville_kernel(tp.beta, taus, pts[:, 1])
        want_inv = np.sum(kern.T * synth * tau_rule.weights[:, None], axis=0)

        for block, threads in ((_util.BLOCK, None), (1, "1"), (1, "4")):
            monkeypatch.setattr(_util, "BLOCK", block)
            if threads:
                monkeypatch.setenv("GRUSHIN_THREADS", threads)
            sd = gtransform.g_forward(tp, f, n_max=n_max)
            assert np.array_equal(sd.values, want), (block, threads)
            # each synthesized entry is its own sum over n, so a rescaled
            # entry's rounding shows here before the tau integral hides it
            assert np.array_equal(laguerre._synthesize_columns(sd.alpha, sd.tau_grid, sd.values,
                                                             pts[:, 0]), synth), (block, threads)
            assert np.array_equal(gtransform.g_inverse(sd, pts), want_inv), (block, threads)


def _overflow_events(alpha, x, n_max):
    """Entries of the recurrence that pass 1e150 between two overflow tests,
    and entries rescaled at a test where only prev had passed 1e150 (cur is
    then at most 1e150 * 1e-300 after the rescale)."""
    between = np.zeros(x.shape, bool)
    only_prev = np.zeros(x.shape, bool)
    last_cur, last_scale = None, np.ones(x.shape)
    for n, (cur, scale) in enumerate(specfun._laguerre_steps(alpha, x, n_max)):
        if n % specfun._RESCALE_PERIOD:
            between |= np.abs(cur) > 1e150
        elif last_cur is not None:
            only_prev |= (scale != last_scale) & (np.abs(last_cur) > 1e150) \
                & (np.abs(cur) <= 1e-150)
        last_cur, last_scale = cur.copy(), np.broadcast_to(scale, x.shape).copy()
    return between, only_prev


class TestSparseOverflowTests:
    """The recurrence tests for overflow only every _RESCALE_PERIOD orders, on
    cur and prev.  At a = -0.9999 on a tau window reaching 64 its entries pass
    1e150 between two tests, and some are rescaled where only prev is large;
    every value stays finite, no bit of the analysis depends on the block size
    or thread count, and the synthesis keeps the bits of plain per-order loops."""

    TP, N_MAX = TypePair(-0.9999, 0.5), 336

    def test_every_yield_is_finite(self):
        lim = np.sqrt(1e19 + 4.0 * self.TP.alpha)  # the clamp of _laguerre_steps
        x = np.concatenate([np.linspace(34.0, 80.0, 47), [35.785, 0.999 * lim, lim, 1e200]])
        between, only_prev = _overflow_events(self.TP.alpha, x, self.N_MAX)
        assert between.any() and only_prev[-4]
        vals = np.array(list(laguerre_fn_seq(self.TP.alpha, x, self.N_MAX)))
        assert np.all(np.isfinite(vals))
        assert np.all(vals[:, -3:] == 0.0)

    def test_a_past_the_bound_is_rejected(self):
        # the 8-order schedule is bounded for a <= 1e4, the recurrence's bound on
        # a; past it the recurrence, the r rule, the transform and the two
        # containers of Laguerre coefficients reject the call
        x, f = np.geomspace(1e-3, 1e12, 400), power_gaussian(0.4, 0.25)
        rule = default_tau_rule(upper=4.0, panels=1)
        for call in (lambda a: laguerre_fn_seq(a, x, 64),
                     lambda a: analysis_rule(a, (0.1, 12.0), f.axis_profile(0), 64),
                     lambda a: gtransform.g_forward(TypePair(a, 0.25), f, n_max=64),
                     lambda a: LaguerreCoeffs(a, 1.0, np.ones(4)),
                     lambda a: SpectralData(a, 0.25, rule.nodes, rule.weights,
                                            np.ones((2, len(rule.nodes))))):
            with pytest.raises(ValueError, match=r"^alpha must be a finite real > -1 and "
                               r"<= 10000, got 1e\+60$"):
                call(1e60)

    def test_block_and_thread_independent(self, monkeypatch):
        tp, n_max = self.TP, self.N_MAX
        f = power_gaussian(tp.alpha, tp.beta)
        setup = gtransform._plane_setup(tp, f, n_max, default_tau_rule(upper=64, panels=8))
        monkeypatch.setattr(gtransform, "_plane_setup", lambda *args: setup)
        tau_rule = setup[0]
        between, only_prev = _overflow_events(tp.alpha, _band_x(setup), n_max)
        assert between.any() and only_prev.any()
        # the whole table as one block, on one thread
        monkeypatch.setattr(_util, "BLOCK", 10**12)
        monkeypatch.setenv("GRUSHIN_THREADS", "1")
        sd = gtransform.g_forward(tp, f, n_max=n_max)
        assert np.array_equal(sd.values, _per_band_loops(tp, f, setup, n_max))

        # r from the deep entries out to just inside the clamp at the top tau
        rs = np.array([0.8, 3.0, 4.47, 5.2, 6.5, 8.1, 0.999 * np.sqrt(1e19) / 8.0])
        pts = np.stack([rs, np.linspace(0.6, 3.0, len(rs))], axis=-1)
        taus = tau_rule.nodes
        synth = np.zeros((len(taus), len(pts)))
        for n, q in enumerate(laguerre_fn_seq(tp.alpha, np.sqrt(taus)[:, None] * rs, n_max)):
            synth += sd.values[n][:, None] * q
        synth = synth * taus[:, None] ** 0.25
        kern = _liouville_kernel(tp.beta, taus, pts[:, 1])
        want_inv = np.sum(kern.T * synth * tau_rule.weights[:, None], axis=0)
        assert np.all(np.isfinite(sd.values)) and np.all(np.isfinite(want_inv))
        assert np.all(synth[:, -1] == 0.0)

        for block, threads in ((_util.BLOCK, "1"), (_util.BLOCK, "4"), (977, "1"),
                               (977, "4"), (1, "1"), (1, "4")):
            monkeypatch.setattr(_util, "BLOCK", block)
            monkeypatch.setenv("GRUSHIN_THREADS", threads)
            got = gtransform.g_forward(tp, f, n_max=n_max)
            assert np.array_equal(got.values, sd.values), (block, threads)
            synth_got = laguerre._synthesize_columns(got.alpha, got.tau_grid, got.values, rs)
            assert np.array_equal(synth_got, synth), (block, threads)
            assert np.array_equal(gtransform.g_inverse(got, pts), want_inv), (block, threads)


class TestTauBands:
    """Each octave of the tau grid below its top node gets its own r rule,
    adjacent octaves on one rule forming one band."""

    @staticmethod
    def refined(f):
        # every octave on the one rule of panels 0.05 wide: a single band
        fu, fv = f.axis_profile(0), f.axis_profile(1)
        return PlaneFunction(f.fn, profiles=(dataclasses.replace(fu, width=0.05), fv))

    @pytest.mark.parametrize("plane, a, b, n_max", [
        ("power_gaussian", 0.5, 0.5, 256), ("power_gaussian", 0.4, -0.9, 96),
        ("power_gaussian", -0.9, 0.5, 96), ("packet", 0.4, 0.25, 96)])
    def test_banded_transform_matches_a_refined_rule(self, plane, a, b, n_max):
        # tolerance fixed before the code: 1e-13 of the largest value
        f = power_gaussian(a, b) if plane == "power_gaussian" else packet_plane()
        tp, refined = TypePair(a, b), self.refined(f)
        assert len(gtransform._plane_setup(tp, refined, n_max, None)[2]) == 1
        got = gtransform.g_forward(tp, f, n_max=n_max).values
        want = gtransform.g_forward(tp, refined, n_max=n_max).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_band_sizes(self):
        # at N = 256 the top octave keeps the whole grid's 912 r nodes; every
        # octave below 0.75 shares the 304 of the envelope's width 3.5/8
        tp = TypePair(0.5, 0.5)
        tau_rule, _, bands = gtransform._plane_setup(tp, power_gaussian(0.5, 0.5), 256, None)
        assert [(cols.stop - cols.start, len(r_rule)) for cols, r_rule in bands] == \
            [(136, 304), (16, 320), (32, 464), (64, 640), (128, 912)]
        assert bands[0][0].start == 0 and bands[-1][0].stop == len(tau_rule.nodes)
        assert all(p[0].stop == q[0].start for p, q in zip(bands, bands[1:]))

    @pytest.mark.parametrize("plane", ["bump", "grid", "route", "bare"])
    def test_undeclared_planes_keep_one_band(self, plane):
        # the planes that once declared no width own one (the bump an eighth of its
        # half-width, the grid 8 steps, the route plane its packet's min(5 pi/3,
        # 0.6); the bare plane none, so only its envelope caps its panels), and each
        # octave runs on the analysis_rule of its own tau range.  Only the bump's
        # width binds on every octave, so it alone keeps one band, on the rule of
        # the whole grid
        from grushin.verify import route_test_function
        r, s = np.arange(0.05, 5.35, 0.1), np.arange(0.05, 8.2, 0.1)
        f = {"bump": bump_plane,
             "grid": lambda: grid_plane(diffop.GridFunction2D(r, s, np.outer(r, s))),
             "route": route_test_function,
             "bare": lambda: PlaneFunction(lambda r, s: np.exp(-(r * r + s * s) / 2))}[plane]()
        width, sizes = {
            "bump": (1.0 / 8.0, [(376, 256)]),
            "grid": (0.8, [(136, 112), (16, 128), (32, 192), (64, 256), (128, 368)]),
            "route": (0.6, [(152, 144), (32, 192), (64, 272), (128, 368)]),
            "bare": (None, [(128, 512), (8, 528), (16, 544), (32, 592), (64, 688), (128, 848)]),
        }[plane]
        prof = f.axis_profile(0)
        assert prof.width is None if width is None else prof.width == pytest.approx(width, 1e-12)
        tp, n_max = TypePair(0.4, 0.25), 96
        tau_rule, _, bands = gtransform._plane_setup(tp, f, n_max, None)
        tg = tau_rule.nodes
        assert [(cols.stop - cols.start, len(r_rule)) for cols, r_rule in bands] == sizes
        octave = np.floor(np.log2(tg[-1] / tg))
        for k in np.unique(octave):
            cols = np.flatnonzero(octave == k)
            rule = analysis_rule(tp.alpha, (tg[cols[0]], tg[cols[-1]]), prof, n_max)
            [r_rule] = [r_rule for band, r_rule in bands if band.start <= cols[0] < band.stop]
            assert np.array_equal(r_rule.nodes, rule.nodes)
            assert np.array_equal(r_rule.weights, rule.weights)
        if plane == "bump":
            rule = analysis_rule(tp.alpha, (tg[0], tg[-1]), prof, n_max)
            assert np.array_equal(bands[0][1].nodes, rule.nodes)
            assert np.array_equal(bands[0][1].weights, rule.weights)


def test_forward_memory_stays_below_one_s_by_tau_kernel(monkeypatch):
    # the s step contracts f with the Liouville kernel in blocks of tau
    # nodes, so no (n_s, K) kernel is formed (n_s s nodes, K tau nodes); on a
    # tau window reaching 400, and a packet narrow in r, that kernel
    # outweighs the packet's samples and the route's (n_r, K) tables
    import tracemalloc
    sizes = {}
    setup = gtransform._plane_setup

    def recording_setup(tp, f, n_max, tau_rule):
        out = setup(tp, f, n_max, tau_rule)
        # g_forward samples f one band at a time
        sizes["f"] = 8 * len(out[1]) * max(len(r_rule) for _, r_rule in out[2])
        sizes["n_s"], sizes["K"] = len(out[1]), len(out[0].nodes)
        return out

    monkeypatch.setattr(gtransform, "_plane_setup", recording_setup)
    # the bound holds for two workers' blocks at a time
    monkeypatch.setenv("GRUSHIN_THREADS", "2")
    tau_rule = default_tau_rule(upper=400, panels=64)
    tracemalloc.start()
    try:
        sd = gtransform.g_forward(TypePair(0.4, 0.25), packet_plane(r_width=0.1), n_max=16,
                                  tau_rule=tau_rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(sd.values))
    assert (sizes["n_s"], sizes["K"]) == (3328, 624)
    assert peak < sizes["f"] + 8 * sizes["n_s"] * sizes["K"]


def test_inverse_memory_stays_below_one_tau_by_point_table(monkeypatch):
    # the synthesis and the Liouville kernel are taken per block of points,
    # so no (K, m) table is formed (K tau nodes, m scattered points)
    import tracemalloc
    sd = gtransform.g_forward(TypePair(0.4, 0.25), power_gaussian(0.4, 0.25), n_max=8)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 4.0, size=(4000, 2))
    # the bound holds for two workers' blocks at a time
    monkeypatch.setenv("GRUSHIN_THREADS", "2")
    tracemalloc.start()
    try:
        out = gtransform.g_inverse(sd, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4000,) and np.all(np.isfinite(out))
    assert len(sd.tau_grid) == 376
    assert peak < 8 * len(sd.tau_grid) * len(pts)


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

        f = PlaneFunction(fn=fn, profiles=base.profiles)
        sd = gtransform.g_forward(tp, f, n_max=96)
        assert np.iscomplexobj(sd.values)
        (r_lo, r_hi), (s_lo, s_hi) = f.axis_profile(0).support, f.axis_profile(1).support
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
        (r_lo, r_hi), (s_lo, s_hi) = f.axis_profile(0).support, f.axis_profile(1).support
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
        got = gtransform.functional_calculus(tp, lambda y: np.ones_like(y), f, pts)
        want = f(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-3

    def test_one_point_gives_one_element_array(self):
        out = gtransform.functional_calculus(
            TypePair(0.4, 0.25), lambda y: np.exp(-y), packet_plane(),
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
        u = gtransform.functional_calculus(tp, lambda y: 1.0 / (1.0 + y), f, pts)
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
                gtransform.apply_multiplier(sd, lambda y: np.exp(8.0 * y))


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
