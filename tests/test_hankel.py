"""Hankel transform tests: closed-form values, unitarity, self-inversion."""

import numpy as np
import pytest
from scipy.special import gamma

from grushin import gtransform, hankel, laguerre, quadrature
from grushin.functions import packet_plane, power_gaussian_profile, smooth_bump
from grushin.gtransform import PlaneFunction, TypePair, default_tau_rule
from grushin.quadrature import (_MAX_FINITE_PANELS, TruncationPolicy, _composite_rule,
                                build_finite_rule, build_rule)
from grushin.specfun import laguerre_eigenvalue


class TestModifiedForm:
    def test_cosine_transform_at_zero(self):
        # order -1/2 is the cosine transform; at tau = 0 it integrates f
        # against the constant sqrt(2/pi)
        prof = hankel.HalfLineFunction(lambda u: np.exp(-u), decay="exponential")
        got = hankel.hankel_modified(-0.5, prof, [0.0])
        assert got == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-10)

    def test_cosine_transform_of_exponential(self):
        # int e^-u cos(tau u) du = 1/(1+tau^2)
        prof = hankel.HalfLineFunction(lambda u: np.exp(-u), decay="exponential")
        taus = np.array([0.5, 1.0, 2.0])
        got = hankel.hankel_modified(-0.5, prof, taus)
        want = np.sqrt(2.0 / np.pi) / (1.0 + taus**2)
        assert np.allclose(got, want, atol=1e-10)

    def test_gaussian_is_fixed_point(self):
        prof = hankel.HalfLineFunction(lambda u: np.exp(-u * u / 2),
                                       decay="gaussian")
        taus = np.array([0.5, 1.0, 2.0])
        got = hankel.hankel_modified(0.3, prof, taus)
        assert np.allclose(got, np.exp(-taus**2 / 2), atol=1e-10)

    def test_gaussian_fixed_point_near_boundary_order(self):
        # the measure u^(2a+1) at a = -0.9 is strongly singular at zero; the
        # endpoint-adapted rule still integrates it
        prof = hankel.HalfLineFunction(lambda u: np.exp(-u * u / 2),
                                       decay="gaussian")
        taus = np.array([0.0, 0.7, 1.5])
        got = hankel.hankel_modified(-0.9, prof, taus)
        assert np.allclose(got, np.exp(-taus**2 / 2), atol=1e-9)

    def test_double_application_returns_gaussian(self):
        alpha = -0.5
        taus = build_finite_rule(0.0, 40.0, np.pi / (4 * 8.0)).nodes
        rule = hankel.rule_for_function(
            hankel.HalfLineFunction(lambda u: np.exp(-u * u / 2)),
            freq=float(taus.max()))
        once = hankel.hankel_modified(alpha, lambda u: np.exp(-u * u / 2),
                                      taus, rule=rule)
        xs = np.linspace(0.1, 3.0, 20)
        outer = build_finite_rule(0.0, float(taus.max()), np.pi / (4 * 3.0))
        once_at_outer = hankel.hankel_modified(
            alpha, lambda u: np.exp(-u * u / 2), outer.nodes, rule=rule)
        twice = hankel.hankel_modified_inverse(alpha, np.asarray(once_at_outer),
                                               xs, rule=outer)
        assert np.allclose(twice, np.exp(-xs**2 / 2), atol=1e-8)


class TestModifiedFormReach:
    """A rule from the decay hint stops at the envelope's cut U whatever the
    weight u^(2a+1), so an order past the hint's reach fails up front."""

    GAUSSIAN = hankel.HalfLineFunction(lambda u: np.exp(-u * u / 2), decay="gaussian")
    EXPONENTIAL = hankel.HalfLineFunction(lambda u: np.exp(-u), decay="exponential")
    TAUS = np.array([0.5, 1.0, 2.0])

    @staticmethod
    def exact(prof, alpha, taus):
        if prof.decay == "gaussian":  # the fixed point
            return np.exp(-taus**2 / 2)
        # int e^-u J_a(tau u) (tau u)^-a u^(2a+1) du (DLMF 10.22.49)
        return 2.0**(alpha + 1.0) * gamma(alpha + 1.5) \
            / (np.sqrt(np.pi) * (1.0 + taus**2)**(alpha + 1.5))

    @pytest.mark.parametrize("prof, limit, cut", [
        (GAUSSIAN, 5.499, "8 by f's gaussian"), (EXPONENTIAL, 1.311, "28 by f's exponential")],
        ids=["gaussian", "exponential"])
    def test_order_past_the_reach_is_rejected(self, prof, limit, cut):
        # at alpha = 30 the gaussian's rule used to overflow and then raise
        # "weights[0] must be a finite real > 0, got nan"
        for alpha in (30.0, limit + 1e-3):
            with pytest.raises(ValueError, match=rf"^alpha must be <= {limit} for a rule cut "
                                                 rf"at u = {cut} decay hint, got {alpha}"):
                hankel.hankel_modified(alpha, prof, self.TAUS)
        # just inside the limit, the error stays below the 1e-8 it is drawn at
        want = self.exact(prof, limit, self.TAUS)
        got = hankel.hankel_modified(limit, prof, self.TAUS)
        assert np.max(np.abs(got - want) / want) < 1e-8

    def test_only_a_rule_from_the_hint_is_checked(self):
        with pytest.raises(ValueError, match="^alpha must be <= 5.499 "):
            hankel.hankel_modified(12.0, self.GAUSSIAN, self.TAUS)
        supported = hankel.HalfLineFunction(self.GAUSSIAN.fn, support=(0.0, 20.0))
        got = hankel.hankel_modified(12.0, supported, self.TAUS)
        assert np.max(np.abs(got - self.exact(supported, 12.0, self.TAUS))) < 1e-10
        rule = hankel.rule_for_function(supported, 2.0, 25.0)
        assert np.array_equal(hankel.hankel_modified(12.0, self.GAUSSIAN, self.TAUS, rule=rule),
                              got)


class TestLiouvilleForm:
    def test_power_gaussian_fixed_point(self):
        # beta = -0.8 puts an integrable u^(-0.3) singularity at the origin
        for beta in (-0.8, -0.3, 0.5, 1.2):
            prof = hankel.HalfLineFunction(
                lambda s, b=beta: s ** (b + 0.5) * np.exp(-s * s / 2),
                decay="gaussian", endpoint_exponent=beta + 0.5)
            taus = np.array([0.4, 1.0, 1.9, 3.3])
            got = hankel.hankel_liouville(beta, prof, taus)
            want = taus ** (beta + 0.5) * np.exp(-taus**2 / 2)
            assert np.allclose(got, want, atol=1e-10)

    def test_sine_kernel_closed_form(self):
        # at order 1/2 the kernel reduces to sqrt(2/pi) sin(tau u)
        prof = hankel.HalfLineFunction(lambda u: np.exp(-u), decay="exponential")
        taus = np.array([0.3, 1.0, 4.0])
        got = hankel.hankel_liouville(0.5, prof, taus)
        want = np.sqrt(2.0 / np.pi) * taus / (1.0 + taus**2)
        assert np.allclose(got, want, atol=1e-10)

    def test_tau_zero_rejected(self):
        with pytest.raises(ValueError):
            hankel.hankel_liouville(0.5, lambda u: np.exp(-u), [0.0])

    def test_zero_function_maps_to_zero(self):
        prof = hankel.HalfLineFunction(lambda u: np.zeros_like(u),
                                       support=(0.5, 1.5))
        got = hankel.hankel_liouville(0.4, prof, [1.0, 2.0])
        assert np.all(got == 0.0)

    def test_one_tau_gives_a_one_element_array(self):
        prof = hankel.HalfLineFunction(lambda u: np.exp(-u), decay="exponential")
        for form in (hankel.hankel_liouville, hankel.hankel_modified):
            got = form(0.5, prof, [1.5])
            assert isinstance(got, np.ndarray) and got.shape == (1,)
            rule = hankel.rule_for_function(prof, freq=2.0)
            assert form(0.5, prof, [1.5], rule=rule)[0] == pytest.approx(
                form(0.5, prof, [1.5, 2.0], rule=rule)[0], rel=1e-14)

    def test_sampled_values_require_rule(self):
        with pytest.raises(ValueError):
            hankel.hankel_liouville(0.5, np.ones(4), [1.0])


@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 1.3])
def test_self_inverse(beta):
    """H'(H' f) recovers f in L^2 for a smooth compactly supported bump."""
    g = smooth_bump(1.5, 1.0)
    prof = hankel.HalfLineFunction(g, support=(0.5, 2.5))
    trule = build_finite_rule(0.0, 150.0, np.pi / (4 * 2.5))
    fw = hankel.hankel_liouville(beta, prof, trule.nodes)
    xr = build_finite_rule(0.05, 3.5, 0.05)
    back = hankel.hankel_liouville_inverse(beta, np.asarray(fw), xr.nodes,
                                           rule=trule)
    num = np.sqrt(np.sum(xr.weights * (back - g(xr.nodes)) ** 2))
    den = np.sqrt(np.sum(xr.weights * g(xr.nodes) ** 2))
    assert num / den < 1e-5


@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.7, 1.3])
def test_unitarity(beta):
    g = smooth_bump(1.5, 0.5)
    prof = hankel.HalfLineFunction(g, support=(1.0, 2.0))
    trule = build_finite_rule(0.0, 150.0, np.pi / (4 * 2.0))
    fw = np.asarray(hankel.hankel_liouville(beta, prof, trule.nodes))
    urule = hankel.rule_for_function(prof, freq=0.0)
    n2_in = float(np.dot(urule.weights, g(urule.nodes) ** 2))
    n2_out = float(np.dot(trule.weights, fw**2))
    assert abs(n2_out - n2_in) / n2_in < 1e-6


def test_conjugation_between_forms():
    """The Liouville form equals u^(a+1/2)-conjugation of the modified form."""
    g = smooth_bump(1.5, 0.8)
    taus = np.array([0.3, 1.0, 2.7, 5.0])
    for alpha in (-0.5, 0.4, 1.1):
        rule = build_finite_rule(0.7, 2.3, np.pi / (4 * taus.max()))
        direct = hankel.hankel_liouville(
            alpha, hankel.HalfLineFunction(g, support=(0.7, 2.3)), taus, rule=rule)
        modified = hankel.hankel_modified(
            alpha,
            hankel.HalfLineFunction(lambda u, a=alpha: g(u) * u ** (-a - 0.5),
                                    support=(0.7, 2.3)),
            taus, rule=rule)
        conj = taus ** (alpha + 0.5) * np.asarray(modified)
        assert np.allclose(conj, direct, atol=1e-8)


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        hankel.hankel_modified(0.5, lambda u: np.exp(-u), [-1.0])


@pytest.mark.parametrize("support", [None, (0.5, 3.0)])
def test_profile_rule_forwards_points_per_panel(support):
    prof = power_gaussian_profile(0.3)
    if support is not None:
        prof = hankel.HalfLineFunction(prof.fn, support=support)
    # profile_rule forwards quadrature's _PANEL_POINTS = 16 to every panel
    rule = quadrature.profile_rule(prof, 0.4, 0.8)
    lo, hi = support or (0.0, rule.upper_cut)
    if support is None:  # the declared law from 0: even panels, no octaves
        want = _composite_rule(lo, hi, lambda top: 0.4, 16, 1.6, _MAX_FINITE_PANELS,
                               octaves=False)
    else:  # known only by its support, the profile caps its panels at a 64th of it
        want = build_finite_rule(lo, hi, (hi - lo) / 64.0, 16)
    assert np.array_equal(rule.nodes, want.nodes)
    assert np.array_equal(rule.weights, want.weights)


def test_supported_profile_at_high_tau():
    # the default rule of a supported profile at tau = 16000 has 8302 panels:
    # finite rules are capped by memory, not by the policy's 8192
    f = packet_plane().axis_profile(1)
    assert len(hankel.rule_for_function(f, freq=16000.0)) > 16 * 8192
    for form in (hankel.hankel_modified, hankel.hankel_liouville):
        values = form(0.4, f, [1.0, 16000.0])
        assert values.shape == (2,) and np.all(np.isfinite(values))


@pytest.mark.parametrize("form", [hankel.hankel_liouville, hankel.hankel_modified])
def test_undeclared_profile_at_high_tau_matches_its_support(form):
    # the bare gaussian's rule at tau = 20000 has 10198 panels, past the
    # policy cap of 8192; it is the rule of the same profile supported on
    # its cut (0, 8), with the same octaves
    def g(u):
        return np.exp(-u * u / 2)

    taus = [1.0, 20000.0]
    want = form(0.4, hankel.HalfLineFunction(g, support=(0.0, 8.0)), taus)
    assert np.array_equal(form(0.4, g, taus), want)


class TestUndeclaredRulesKeepTheirOctaves:
    """A profile that declares no endpoint law keeps the geometric octaves
    toward 0 of build_rule and build_finite_rule, bit for bit; only a
    declared law drops them."""

    @staticmethod
    def fn(u):
        return np.exp(-u * u / 2)

    @staticmethod
    def same(rule, want):
        return (np.array_equal(rule.nodes, want.nodes)
                and np.array_equal(rule.weights, want.weights))

    @pytest.mark.parametrize("beta", [-0.8, 0.5])
    def test_bare_callable(self, beta):
        taus = np.array([0.4, 1.0, 3.3])
        want = build_rule(TruncationPolicy(freq_bound=2.0 * 3.3,
                                           endpoint_exponent=min(beta + 0.5, 0.0)))
        assert np.array_equal(hankel.hankel_liouville(beta, self.fn, taus),
                              hankel.hankel_liouville(beta, self.fn, taus, rule=want))
        want = build_rule(TruncationPolicy(freq_bound=2.0 * 3.3, endpoint_exponent=2 * beta + 1))
        assert np.array_equal(hankel.hankel_modified(beta, self.fn, taus),
                              hankel.hankel_modified(beta, self.fn, taus, rule=want))

    def test_bare_profile(self):
        hf = hankel.HalfLineFunction(self.fn)
        assert hf.endpoint_exponent is None
        rule = hankel.rule_for_function(hf, freq=12.0, extra_exponent=0.75)
        assert len(rule) == 512
        assert self.same(rule, build_rule(TruncationPolicy(freq_bound=12.0,
                                                           endpoint_exponent=0.75)))
        width = quadrature._PANEL_PHASE / np.sqrt(laguerre_eigenvalue(0.5, 95) * 12.0)
        rule = laguerre.analysis_rule(0.5, (1e-3, 12.0), hf, 96)
        assert len(rule) == 848
        assert self.same(rule, build_finite_rule(0.0, 8.0, width, 16, endpoint_exponent=1.0))

    @pytest.mark.parametrize("beta", [-0.8, 0.5])
    def test_plane_function_without_profiles(self, beta):
        # without a support the r profile declares no width, so only its envelope
        # caps the panels and each octave of tau gets its own rule: the top band's
        # is the one rule the whole grid had, and the bottom band's, where the
        # basis needs no narrower panels, is the envelope's own
        f = PlaneFunction(lambda r, s: self.fn(r) * self.fn(s))
        tau_rule = default_tau_rule()
        tg = tau_rule.nodes
        _, s_rule, bands = gtransform._plane_setup(TypePair(0.5, beta), f, 96, tau_rule)
        assert f.axis_profile(0).width is None
        assert [(cols.stop - cols.start, len(band_rule)) for cols, band_rule in bands] == \
            [(128, 512), (8, 528), (16, 544), (32, 592), (64, 688), (128, 848)]
        r_rule = build_finite_rule(0.0, 8.0, quadrature._PANEL_PHASE
                                   / np.sqrt(laguerre_eigenvalue(0.5, 95) * tg[-1]),
                                   16, endpoint_exponent=1.0)
        assert np.array_equal(bands[-1][1].weights, r_rule.weights)
        assert self.same(bands[0][1], build_rule(TruncationPolicy(endpoint_exponent=1.0)))
        assert self.same(s_rule, build_rule(TruncationPolicy(freq_bound=tg[-1],
                                                             endpoint_exponent=beta + 0.5)))

    @pytest.mark.parametrize("support", [(0.0, 3.0), (0.5, 3.0)])
    def test_support_only_profiles(self, support):
        hf = hankel.HalfLineFunction(self.fn, support=support)
        lo, hi = support
        gamma = 1.1 if lo == 0.0 else 0.0
        # known only by its support, the profile's width is a 64th of it, and it
        # caps every rule: profile_rule's at 0.07 and 0.03 alike
        assert hf.width == (hi - lo) / 64.0
        assert self.same(quadrature.profile_rule(hf, 0.07, 1.1),
                         build_finite_rule(lo, hi, (hi - lo) / 64.0, 16, endpoint_exponent=gamma))
        assert self.same(quadrature.profile_rule(hf, 0.03, 1.1),
                         build_finite_rule(lo, hi, 0.03, 16, endpoint_exponent=gamma))
        # a 64th of the support caps the panels at freq 3; at freq 1000 the
        # phase 5 pi/1000 does
        assert self.same(hankel.rule_for_function(hf, freq=3.0, extra_exponent=1.1),
                         build_finite_rule(lo, hi, (hi - lo) / 64.0, 16, endpoint_exponent=gamma))
        assert self.same(hankel.rule_for_function(hf, freq=1000.0, extra_exponent=1.1),
                         build_finite_rule(lo, hi, 5.0 * np.pi / 1000.0, 16,
                                           endpoint_exponent=gamma))
