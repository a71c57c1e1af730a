"""Scaled Laguerre analysis/synthesis and the closed-form gaussian oracle."""

import numpy as np
import pytest
from scipy.special import gammaln

from grushin import laguerre
from grushin.functions import power_gaussian_profile, smooth_bump
from grushin.gtransform import default_tau_rule
from grushin.hankel import HalfLineFunction
from grushin.quadrature import build_finite_rule
from grushin.specfun import LaguerreIndex, laguerre_fn, laguerre_fn_seq


class TestGaussianOracle:
    def test_tau_one_values(self):
        assert laguerre.gaussian_coefficient(0.0, 0, 1.0) == pytest.approx(
            np.sqrt(0.5), rel=1e-14)
        for n in (1, 2, 7):
            assert laguerre.gaussian_coefficient(0.0, n, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
    def test_squares_sum_to_half_gamma(self, alpha, tau):
        n = np.arange(400)
        total = np.sum(laguerre.gaussian_coefficient(alpha, n, tau) ** 2)
        want = 0.5 * np.exp(gammaln(alpha + 1.0))
        assert total == pytest.approx(want, abs=1e-10)

    def test_alpha_zero_sum_is_half(self):
        n = np.arange(400)
        assert np.sum(laguerre.gaussian_coefficient(0.0, n, 0.7) ** 2) \
            == pytest.approx(0.5, abs=1e-12)


class TestAnalyze:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.7])
    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_matches_oracle(self, alpha, tau):
        prof = power_gaussian_profile(alpha)
        got = laguerre.laguerre_analyze(alpha, tau, prof, 21).values
        want = laguerre.gaussian_coefficient(alpha, np.arange(21), tau)
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5])
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 12.0])
    @pytest.mark.parametrize("n_max", [16, 96, 256])
    def test_default_rule_matches_closed_form(self, alpha, tau, n_max):
        # on the default analysis rule, across the tau range of the forward
        # transform and up to its largest n_max; the 8-point rule of phase
        # pi per panel was off by at most 1.8e-11 (alpha = 0, tau = 1e-3)
        got = laguerre.laguerre_analyze(alpha, tau, power_gaussian_profile(alpha), n_max)
        want = laguerre.gaussian_coefficient(alpha, np.arange(n_max), tau)
        assert np.max(np.abs(got.values - want)) < 3e-11

    def test_basis_function_gives_unit_vector(self):
        alpha, tau, n = 0.4, 1.3, 3
        prof = HalfLineFunction(
            lambda r: laguerre_fn(LaguerreIndex(n, alpha, tau), r),
            decay="gaussian", rate=np.sqrt(tau), endpoint_exponent=alpha + 0.5)
        coeffs = laguerre.laguerre_analyze(alpha, tau, prof, 8)
        want = np.zeros(8)
        want[n] = 1.0
        assert np.max(np.abs(coeffs.values - want)) < 1e-10

    def test_parseval_monotone_and_tail(self):
        alpha, tau = 0.5, 1.6
        prof = power_gaussian_profile(alpha)
        coeffs = laguerre.laguerre_analyze(alpha, tau, prof, 200).values
        partial = np.cumsum(coeffs**2)
        assert np.all(np.diff(partial) >= -1e-15)
        want = 0.5 * np.exp(gammaln(alpha + 1.0))
        assert abs(partial[-1] - want) < 1e-6


class TestSynthesize:
    def test_round_trip_bump(self):
        # gaussian-enveloped compactly supported window: smooth with
        # rapidly decaying coefficients (a bare window bump has Gevrey-slow
        # coefficient decay and would need far more than 128 terms)
        alpha, tau = 0.3, 1.0
        window = smooth_bump(2.0, 1.9)
        g = lambda r: np.exp(-((r - 2.0) / 0.8) ** 2) * window(r)
        prof = HalfLineFunction(g, support=(0.1, 3.9))
        coeffs = laguerre.laguerre_analyze(alpha, tau, prof, 128)
        rule = build_finite_rule(0.05, 4.2, 0.05)
        rec = laguerre.laguerre_synthesize(coeffs, rule.nodes)
        err = np.sqrt(np.dot(rule.weights, (rec - g(rule.nodes)) ** 2)
                      / np.dot(rule.weights, g(rule.nodes) ** 2))
        assert err < 1e-4

    def test_unit_vector_synthesizes_basis_function(self):
        alpha, tau = 0.7, 1.0
        coeffs = laguerre.LaguerreCoeffs(alpha, tau, np.array([1.0]))
        r = np.linspace(0.3, 2.5, 9)
        got = laguerre.laguerre_synthesize(coeffs, r)
        want = laguerre_fn(LaguerreIndex(0, alpha, tau), r)
        assert np.allclose(got, want, rtol=1e-13)

    def test_zero_coefficients(self):
        coeffs = laguerre.LaguerreCoeffs(0.0, 1.0, np.zeros(5))
        assert np.all(laguerre.laguerre_synthesize(coeffs, [1.0, 2.0]) == 0.0)


class TestMatchesPerOrderLoop:
    """Analysis is a per-order loop over laguerre_fn_seq (the benchmark's trace
    hook counts its orders there) and synthesis runs on the blocked table
    path; the values of both are those of a plain loop over the recurrence,
    bit for bit."""

    def test_analyze(self):
        alpha, tau = 0.4, 2.7
        f = smooth_bump(1.5, 1.0)
        rule = build_finite_rule(0.5, 2.5, 0.05)
        weighted = rule.weights * f(rule.nodes)
        want = np.array([np.dot(weighted, q) for q in
                         laguerre_fn_seq(alpha, np.sqrt(tau) * rule.nodes, 30)])
        got = laguerre.laguerre_analyze(alpha, tau, f, 30, rule=rule)
        assert np.array_equal(got.values, want * tau**0.25)

    def test_synthesize_keeps_the_shape(self):
        coeffs = laguerre.LaguerreCoeffs(-0.3, 2.7, np.linspace(1.0, -0.5, 12))
        rs = np.linspace(0.1, 5.0, 24).reshape(4, 6)
        want = np.zeros(rs.shape)
        for c, q in zip(coeffs.values, laguerre_fn_seq(-0.3, np.sqrt(2.7) * rs, 12)):
            want += c * q
        # tau^(1/4) as numpy's array power, which is not always Python's ** to the bit
        want = want * np.array([2.7]) ** 0.25
        assert np.array_equal(laguerre.laguerre_synthesize(coeffs, rs), want)
        one = laguerre.laguerre_synthesize(coeffs, rs[1, 2])
        assert isinstance(one, float) and one == want[1, 2]


@pytest.mark.parametrize("shape", [(1, 912), (2, 1184), (35, 912), (376, 848)])
@pytest.mark.parametrize("kind", [float, complex])
def test_vecdot_rows_do_not_depend_on_their_block(shape, kind):
    # the analysis contracts each order by np.vecdot(l_n, weighted) on blocks
    # of rows of tau-major tables; its bits are block- and thread-independent
    # only while a row's dot does not depend on the rows contracted with it
    rng = np.random.default_rng(shape)
    a = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    b = rng.standard_normal(shape)
    if kind is complex:
        b = b + 1j * rng.standard_normal(shape)
    want = np.vecdot(a, b)
    assert want.dtype == np.result_type(a, b)
    for k in range(shape[0]):
        assert np.array_equal(np.vecdot(a[k:k + 1], b[k:k + 1]), want[k:k + 1])
    odd = slice(1, None, 2)
    assert np.array_equal(np.vecdot(a[odd], b[odd]), want[odd])


class TestValidation:
    def test_coeffs_validation(self):
        with pytest.raises(ValueError):
            laguerre.LaguerreCoeffs(-1.5, 1.0, np.ones(3))
        with pytest.raises(ValueError):
            laguerre.LaguerreCoeffs(0.0, 0.0, np.ones(3))
        with pytest.raises(ValueError):
            laguerre.LaguerreCoeffs(0.0, 1.0, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("alpha, tau", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf)])
    def test_coeffs_reject_nonfinite_parameters(self, alpha, tau):
        with pytest.raises(ValueError, match="must be a finite real"):
            laguerre.LaguerreCoeffs(alpha, tau, np.ones(3))

    def test_analyze_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="^tau must be a finite real > 0"):
            laguerre.laguerre_analyze(0.0, np.nan, lambda r: np.exp(-r * r), 4)

    def test_analyze_validation(self):
        with pytest.raises(ValueError):
            laguerre.laguerre_analyze(0.0, -1.0, lambda r: r, 4)
        with pytest.raises(ValueError):
            laguerre.laguerre_analyze(0.0, 1.0, lambda r: r, 0)
        with pytest.raises(ValueError):
            laguerre.laguerre_analyze(0.0, 1.0, np.ones(4), 4)  # needs a rule

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            laguerre.gaussian_coefficient(0.0, -1, 1.0)
        with pytest.raises(ValueError):
            laguerre.gaussian_coefficient(0.0, 0, -1.0)


@pytest.mark.parametrize("short_by", [1, None])
def test_analyze_rejects_samples_off_the_rule(short_by):
    # a 1-entry array used to broadcast into plausible coefficients, and one
    # entry too few raised numpy's broadcast error naming no parameter
    rule = laguerre.analysis_rule(0.0, (1.0, 1.0), power_gaussian_profile(0.0), 16)
    size = 1 if short_by is None else len(rule.nodes) - short_by
    with pytest.raises(ValueError, match="^sampled values must match the rule nodes$"):
        laguerre.laguerre_analyze(0.0, 1.0, np.ones(size), 16, rule=rule)


def test_analyze_of_samples_equals_analyze_of_profile():
    prof = power_gaussian_profile(0.4)
    rule = laguerre.analysis_rule(0.4, (1.3, 1.3), prof, 12)
    sampled = laguerre.laguerre_analyze(0.4, 1.3, prof(rule.nodes), 12, rule=rule)
    assert np.array_equal(sampled.values, laguerre.laguerre_analyze(0.4, 1.3, prof, 12).values)


def test_forward_r_rule_size():
    # the r rule of g_forward at n_max = 256 on the default tau grid; the
    # 8-point rule of phase pi per panel had 2392 nodes
    tau_lo = default_tau_rule().nodes[0]
    rule = laguerre.analysis_rule(0.5, (tau_lo, 12.0), power_gaussian_profile(0.5), 256)
    assert len(rule) <= 1200


@pytest.mark.parametrize("n_max, nodes", [(96, 560), (256, 912)])
def test_declared_profile_r_rule_has_no_octaves(n_max, nodes):
    # power_gaussian declares r^(a+1/2) times a smooth function, so the first
    # panel absorbs r^(2a+1) and (0, 8) is split evenly; with the 20 geometric
    # octaves toward 0 the rule had 848 and 1184 nodes
    tg = default_tau_rule().nodes
    rule = laguerre.analysis_rule(0.5, (tg[0], tg[-1]), power_gaussian_profile(0.5), n_max)
    assert len(rule) == nodes
    mids = 0.5 * (rule.nodes[16::16] + rule.nodes[31::16])  # Gauss-Legendre panels
    assert np.allclose(np.diff(mids), rule.upper_cut / (nodes // 16))


def test_synthesize_rejects_nan_point():
    coeffs = laguerre.LaguerreCoeffs(0.0, 1.0, np.ones(3))
    with pytest.raises(ValueError, match=r"^rs\[0\] must be a finite real > 0, got nan"):
        laguerre.laguerre_synthesize(coeffs, [np.nan, 1.0])
