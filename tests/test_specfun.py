"""Special-function tests against independent series oracles.

The power series is the oracle where it is numerically sound (small x);
past that, mpmath evaluates the same functions in 30-digit arithmetic,
independent of the scipy backend under test.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp
from scipy.special import eval_genlaguerre

from grushin import specfun
from grushin.quadrature import build_finite_rule

mpmath.mp.dps = 30


def bessel_j_series(nu, x, terms=60):
    """Power-series oracle: sum (-1)^k (x/2)^(2k+nu) / (k! Gamma(k+nu+1))."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (0.5 * x) ** (2 * k + nu) / (
            math.gamma(k + 1) * math.gamma(k + nu + 1))
    return total


def bessel_i_series(nu, x, terms=60):
    total = 0.0
    for k in range(terms):
        total += (0.5 * x) ** (2 * k + nu) / (
            math.gamma(k + 1) * math.gamma(k + nu + 1))
    return total


class TestBesselJ:
    def test_at_zero(self):
        assert specfun.bessel_j(0.0, 0.0) == 1.0
        assert specfun.bessel_j(0.7, 0.0) == 0.0

    def test_half_order_closed_form(self):
        y = np.pi / 2
        assert specfun.bessel_j(0.5, y) == pytest.approx(2.0 / np.pi, abs=1e-12)

    def test_against_series_oracle(self):
        # frozen value from the series oracle summed to machine tolerance
        assert specfun.bessel_j(1.0, 1.0) == pytest.approx(0.44005058574493355,
                                                           abs=1e-14)
        for nu in (-0.5, 0.0, 0.3, 1.7):
            for x in (0.1, 1.0, 4.0, 9.0):
                want = bessel_j_series(nu, x)
                assert specfun.bessel_j(nu, x) == pytest.approx(want, rel=1e-10)

    def test_large_argument_accuracy(self):
        # the float series cancels catastrophically out here; mpmath in
        # 30-digit arithmetic is the oracle.  Relative accuracy away from
        # zeros, absolute beyond x=50.
        for nu in (0.0, 0.4, 1.5):
            for x in (12.0, 30.0, 49.0):
                want = float(mpmath.besselj(nu, x))
                got = specfun.bessel_j(nu, x)
                if abs(want) > 1e-2:
                    assert got == pytest.approx(want, rel=1e-10)
                else:
                    assert got == pytest.approx(want, abs=1e-10)
        assert abs(specfun.bessel_j(0.3, 200.0)
                   - float(mpmath.besselj(0.3, 200.0))) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(0.5, -1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(-0.5, 0.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(-1.5, 1.0)


class TestBesselI:
    def test_at_zero(self):
        assert specfun.bessel_i(0.0, 0.0) == 1.0

    def test_half_order_closed_form(self):
        want = np.sqrt(2.0 / np.pi) * np.sinh(1.0)
        assert specfun.bessel_i(0.5, 1.0) == pytest.approx(want, abs=1e-12)

    def test_against_series_oracle(self):
        # the I series has positive terms, so no cancellation; plain float
        # works until Gamma overflows
        for nu in (-0.5, 0.0, 0.8, 2.1):
            for x in (0.5, 3.0, 10.0, 28.0):
                want = bessel_i_series(nu, x, terms=120)
                assert specfun.bessel_i(nu, x) == pytest.approx(want, rel=1e-10)

    def test_scaled_variant(self):
        # exp(-x) I_nu(x), overflow-safe, as the heat kernel forms it
        def scaled(nu, x):
            return specfun.bessel_i_normalized_exp(nu, x, nu * np.log(x) - x)

        # frozen: series oracle times e^-10
        assert scaled(0.0, 10.0) == pytest.approx(0.12783333716342862, rel=1e-12)
        # scaled form stays finite and accurate far beyond plain-I overflow
        for x in (100.0, 450.0, 700.0):
            got = scaled(0.3, x)
            assert np.isfinite(got) and got > 0.0
        # cross-check against the asymptotic 1/sqrt(2 pi x) (first order)
        x = 700.0
        lead = 1.0 / np.sqrt(2.0 * np.pi * x)
        assert scaled(0.0, x) == pytest.approx(lead, rel=1e-3)


class TestNormalizedKernels:
    def test_continuity_at_zero(self):
        for nu in (-0.5, 0.2, 1.3):
            const = 2.0**-nu / math.gamma(nu + 1.0)
            assert specfun.bessel_j_normalized(nu, 0.0) == pytest.approx(const)
            assert specfun.bessel_i_normalized(nu, 0.0) == pytest.approx(const)

    def test_matches_ratio_at_moderate_x(self):
        x = np.array([1e-7, 1e-5, 0.01, 1.0, 7.0])
        for nu in (-0.4, 0.6):
            want_j = np.array([bessel_j_series(nu, xi) / xi**nu for xi in x])
            got_j = specfun.bessel_j_normalized(nu, x)
            assert np.allclose(got_j, want_j, rtol=1e-10)


class TestBesselINormalizedExp:
    """I_nu(x)/x^nu exp(log_factor): power series up to the cut, scipy's
    ive past it.  Tolerances fixed before the code: 1e-14 relative against
    mpmath below the cut; at nu = 3.5, below ive's own error there."""

    ORDERS = (-0.9, -0.5, 0.0, 0.25, 0.4, 0.5, 0.9, 1.2)
    X = np.geomspace(1e-8, specfun._I_SERIES_CUT, 150)

    @staticmethod
    def mp_normalized(nu, x):
        return np.array([float(mpmath.besseli(nu, t) / t**nu) for t in map(mpmath.mpf, x)])

    @pytest.mark.parametrize("nu", ORDERS)
    def test_series_against_mpmath(self, nu):
        want = self.mp_normalized(nu, self.X)
        got = specfun.bessel_i_normalized_exp(nu, self.X, 0.0)
        assert np.max(np.abs(got - want) / want) < 1e-14
        # log_factor = nu log x gives I_nu(x) itself
        want_i = np.array([float(mpmath.besseli(nu, t)) for t in map(mpmath.mpf, self.X)])
        got_i = specfun.bessel_i_normalized_exp(nu, self.X, nu * np.log(self.X))
        assert np.max(np.abs(got_i - want_i) / want_i) < 1e-14

    def test_high_order_beats_scipy_ive(self):
        nu = 3.5
        got = specfun.bessel_i_normalized_exp(nu, self.X, 0.0)
        want = self.mp_normalized(nu, self.X)
        want_ive = np.array([float(mpmath.besseli(nu, t) * mpmath.exp(-t))
                             for t in map(mpmath.mpf, self.X)])
        err_ive = np.max(np.abs(sp.ive(nu, self.X) - want_ive) / want_ive)
        assert np.max(np.abs(got - want) / want) < err_ive

    @pytest.mark.parametrize("nu", (-0.9, 0.0, 0.4, 3.5))
    def test_past_the_cut_is_scaled_ive(self, nu):
        x = np.array([np.nextafter(specfun._I_SERIES_CUT, np.inf), 20.0, 90.0, 700.0])
        log_factor = np.array([0.3, -25.0, -90.0, -690.0])
        want = sp.ive(nu, x) * np.exp(log_factor + x - nu * np.log(x))
        assert np.array_equal(specfun.bessel_i_normalized_exp(nu, x, log_factor), want)

    @pytest.mark.parametrize("nu", ORDERS)
    def test_large_argument_scaled_by_exp_minus_x_is_finite(self, nu):
        x = 1e3
        got = specfun.bessel_i_normalized_exp(nu, x, nu * np.log(x) - x)
        assert np.isfinite(got) and got == pytest.approx(sp.ive(nu, x), rel=1e-13)

    @pytest.mark.parametrize("nu", ORDERS)
    def test_zero_gives_the_limit(self, nu):
        const = 2.0**-nu / math.gamma(nu + 1.0)
        got = specfun.bessel_i_normalized_exp(nu, np.array([0.0, 1e-200]), 0.5)
        assert np.allclose(got, const * np.exp(0.5), rtol=1e-15, atol=0.0)


class TestBesselJTable:
    ORDERS = (-0.9, -0.5, 0.0, 0.25, 0.45, 0.5, 1.3, 3.0, 5.0, 8.0, 12.0)

    @pytest.mark.parametrize("nu", (0.5, -0.5))
    def test_half_order_liouville_form_against_mpmath(self, nu):
        # sqrt(x) J_nu(x), the Liouville kernel; scipy's jv is off by 1.9e-14
        # here at nu = 1/2, the closed form by 3.3e-16
        x = np.linspace(0.01, 200.0, 801)
        want = np.array([float(mpmath.sqrt(t) * mpmath.besselj(nu, t))
                         for t in map(mpmath.mpf, x)])
        got = np.sqrt(x) * specfun.bessel_j_table(nu, x)
        assert np.max(np.abs(got - want)) < 5e-16

    @pytest.mark.parametrize("nu", ORDERS)
    def test_against_mpmath_across_the_switch(self, nu):
        # scipy's jv is off by up to 2.7e-14 here (nu = -0.9), so mpmath is
        # the reference
        cut = specfun._HANKEL_CUT
        x = np.concatenate([np.linspace(0.01, cut, 600),
                            [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)],
                            np.linspace(cut, 4.0 * cut, 600)])
        want = np.array([float(mpmath.besselj(nu, t)) for t in map(mpmath.mpf, x)])
        assert np.max(np.abs(specfun.bessel_j_table(nu, x) - want)) < 2e-15

    @pytest.mark.parametrize("nu", (-0.9, 0.0, 0.25, 0.45, 1.3, 3.0, 5.0, 8.0, 12.0,
                                    13.0, 20.0, 29.0))
    def test_liouville_form_below_the_cut_against_mpmath(self, nu):
        # sqrt(x) J_nu(x) on [1e-4, 30], with every integer and half-integer
        # and both neighbours of each half-integer; scipy is off by up to
        # 5e-14 here at the non-integer orders
        half = np.arange(0.5, 30.0)
        x = np.unique(np.concatenate([
            np.geomspace(1e-4, 30.0, 300), np.arange(1.0, 31.0), half,
            np.nextafter(half, 0.0), np.nextafter(half, np.inf)]))
        want = np.array([float(mpmath.sqrt(t) * mpmath.besselj(nu, t))
                         for t in map(mpmath.mpf, x)])
        got = np.sqrt(x) * specfun.bessel_j_table(nu, x)
        assert np.max(np.abs(got - want)) < 4e-15

    @pytest.mark.parametrize("nu", (-0.9, -0.5, 0.0, 0.25, 0.5, 3.0, 20.0))
    def test_zero_negative_and_nonfinite_arguments_are_scipy_values(self, nu):
        # in one array with arguments of the table and of the expansion, so
        # that a bad argument cannot reach a branch by its panel index
        # (bessel_j_table rejects them: this is the reader under its checks)
        x = np.array([0.0, -0.5, -3.0, -40.0, np.nan, np.inf, -np.inf, 2.0, 45.0])
        got = specfun._bessel_j_scaled(nu, x, 0.0)
        assert np.array_equal(got[:-2], sp.jv(nu, x[:-2]), equal_nan=True)
        assert np.all(np.isfinite(got[-2:]))

    def test_taylor_table_is_built_on_first_use_without_mpmath(self):
        # importing the library builds no coefficients and the table needs no
        # mpmath; the first value at an order builds that order's table once
        import subprocess
        import sys
        code = ("import sys; from grushin import specfun; "
                "size = specfun._taylor_coefficients.cache_info().currsize; "
                "specfun.bessel_j_table(0.3, [1.0, 2.0]); specfun.bessel_j_table(0.3, 3.0); "
                "print(size, specfun._taylor_coefficients.cache_info().currsize, "
                "'mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == ["0", "1", "False"]
        assert not specfun._taylor_coefficients(0.3).flags.writeable

    @pytest.mark.parametrize("nu", (-0.99, 0.25, 12.6, 20.0, 60.0, 150.0))
    def test_taylor_terms_past_the_degree_are_negligible(self, nu, monkeypatch):
        # the _taylor_coefficients claim, from a degree-19 table: on every
        # panel (|x - c| <= 1/2) the terms of degree 16-19 add up to less
        # than 2e-17 of sum_{j <= 15} |a_j| 2^-j
        specfun._taylor_coefficients.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(specfun, "_TAYLOR_DEGREE", 19)
            a = np.abs(specfun._taylor_coefficients(nu)) * 0.5 ** np.arange(20)[:, None]
        specfun._taylor_coefficients.cache_clear()
        assert a.shape == (20, int(specfun._HANKEL_CUT) + 1)
        assert np.all(a[16:].sum(axis=0) / a[:16].sum(axis=0) < 2e-17)

    def test_terms_grow_with_the_order_up_to_the_cap(self):
        terms = [len(specfun._hankel_coefficients(nu)[0])
                 for nu in (0.25, 5.0, 8.0, 12.0)]
        assert terms == sorted(terms) and terms[-1] == specfun._HANKEL_MAX_TERMS
        # past the cap every value past the cut is scipy's
        assert specfun._hankel_coefficients(12.6) is None
        x = np.linspace(0.5, 500.0, 1000)
        x = x[x > specfun._HANKEL_CUT]
        assert np.array_equal(specfun.bessel_j_table(20.0, x), sp.jv(20.0, x))

    def test_orders_past_the_normal_range_keep_scipy_below_the_cut(self):
        # from nu = 149.9 on, the table's g(0) = 2^-nu/Gamma(nu+1) is
        # subnormal, so J_nu stays scipy's at every x; g itself stays the
        # table's, here 0 as the true value underflows, and an order whose
        # Gamma(nu+1) overflows the decimal range still gives that 0
        x = np.array([1.0, 17.0, 29.9, 45.0])
        for nu in (150.0, 250.0):
            assert np.array_equal(specfun.bessel_j_table(nu, x), sp.jv(nu, x))
        assert specfun.bessel_j_normalized(250.0, [0.0, 1.0, 29.9]).tolist() == [0.0] * 3
        assert specfun.bessel_j_normalized(1e6, [0.0, 1.0]).tolist() == [0.0] * 2

    def test_shapes_are_kept(self):
        for nu in (-0.5, 0.25):
            assert isinstance(specfun.bessel_j_table(nu, 40.0), float)
            x = np.linspace(1.0, 90.0, 12).reshape(3, 4)
            assert specfun.bessel_j_table(nu, x).shape == (3, 4)
            assert specfun.bessel_j_table(nu, np.empty(0)).shape == (0,)
            assert specfun.bessel_j_table(nu, np.empty((0, 3))).shape == (0, 3)

    def test_zero_argument_matches_scipy(self):
        assert specfun.bessel_j_table(0.5, 0.0) == 0.0
        assert specfun.bessel_j_table(0.0, np.zeros(2)).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("nu", (-0.9, 0.25, 5.0, 12.0, 13.0, 20.0, 29.0, 60.0))
    def test_normalized_form_across_the_small_argument_switch_against_mpmath(self, nu):
        # J_nu(x)/x^nu = 2^-nu/Gamma(nu+1) 0F1(; nu+1; -x^2/4) at 40 digits, on
        # both sides of x = 1e-6 and at 0; within 1 ulp (2.2e-16 relative)
        x = np.array([0.0, 1e-9, 5e-7, np.nextafter(1e-6, 0.0), 1e-6, 2e-6])
        with mpmath.workdps(40):
            n = mpmath.mpf(nu)
            want = np.array([float(2**-n / mpmath.gamma(n + 1) * mpmath.hyp0f1(n + 1, -t * t / 4))
                             for t in map(mpmath.mpf, x)])
        got = specfun.bessel_j_normalized(nu, x)
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_normalized_form_uses_the_table(self):
        x = np.array([0.5, 10.0, 45.0])
        want = specfun.bessel_j_table(-0.5, x) / x**-0.5
        assert np.array_equal(specfun.bessel_j_normalized(-0.5, x), want)


def test_only_specfun_and_verify_bind_scipy_jv():
    # every kernel table goes through specfun.bessel_j_table, where the
    # benchmark tracer sees the scipy calls that remain; verify keeps scipy's
    # jv as its independent oracle
    import importlib
    import pkgutil

    import grushin
    offenders = []
    for info in pkgutil.iter_modules(grushin.__path__):
        if info.name in ("specfun", "verify"):
            continue
        mod = importlib.import_module(f"grushin.{info.name}")
        offenders += [f"{info.name}.{attr}" for attr, value in vars(mod).items()
                      if value is sp.jv or value is sp]
    assert offenders == []


def test_only_util_defines_a_block_size_and_no_kernel_binds_scipy_iv():
    # every table is split by _util.column_blocks on the one _util.BLOCK;
    # below x = 15 the heat kernel sums the I_a(x)/x^a series, past it pairs
    # the scaled ive with exp, and verify keeps the unscaled iv as an oracle
    import importlib
    import pkgutil

    import grushin
    offenders = []
    for info in pkgutil.iter_modules(grushin.__path__):
        mod = importlib.import_module(f"grushin.{info.name}")
        if info.name != "_util":
            offenders += [f"{info.name}.{attr}" for attr in vars(mod)
                          if attr.endswith("BLOCK")]
        if info.name not in ("specfun", "verify"):
            offenders += [f"{info.name}.{attr}" for attr, value in vars(mod).items()
                          if value is sp.iv]
    assert offenders == []


class TestLaguerrePoly:
    def test_degree_zero_is_one(self):
        for alpha in (-0.9, 0.0, 2.5):
            assert specfun.laguerre_poly(0, alpha, 17.3) == 1.0

    def test_degree_one_formula(self):
        # alpha + 1 - x
        assert specfun.laguerre_poly(1, 0.5, 2.0) == pytest.approx(-0.5)

    def test_against_scipy_oracle(self):
        x = np.linspace(0.0, 30.0, 40)
        for n in (2, 5, 17):
            for alpha in (-0.5, 0.0, 1.3):
                want = eval_genlaguerre(n, alpha, x)
                got = specfun.laguerre_poly(n, alpha, x)
                assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_weighted_integral_orthogonality(self):
        # int L_3(u) e^-u du over (0, inf) vanishes (degree-3 against weight 1)
        rule = build_finite_rule(0.0, 40.0, 0.5)
        val = np.dot(rule.weights,
                     specfun.laguerre_poly(3, 0.0, rule.nodes) * np.exp(-rule.nodes))
        assert abs(val) < 1e-10


class TestLaguerreFn:
    def test_ground_state_value(self):
        got = specfun.laguerre_fn(specfun.LaguerreIndex(0, 0.0, 1.0), 1.0)
        assert got == pytest.approx(np.sqrt(2.0) * np.exp(-0.5), rel=1e-14)

    def test_unit_norm(self):
        idx = specfun.LaguerreIndex(2, 0.3, 1.7)
        rule = build_finite_rule(0.0, 12.0, 0.05)
        vals = specfun.laguerre_fn(idx, rule.nodes)
        assert np.dot(rule.weights, vals**2) == pytest.approx(1.0, abs=1e-10)

    def test_scaling_relation(self):
        # l_{n,4}(r) = sqrt(2) l_{n,1}(2r)
        r = np.linspace(0.2, 3.0, 17)
        for n in (0, 3):
            a = specfun.laguerre_fn(specfun.LaguerreIndex(n, 0.6, 4.0), r)
            b = specfun.laguerre_fn(specfun.LaguerreIndex(n, 0.6, 1.0), 2.0 * r)
            assert np.allclose(a, np.sqrt(2.0) * b, rtol=1e-12)

    def test_matches_direct_formula(self):
        r = np.array([0.3, 1.1, 2.4])
        for n, alpha, tau in ((4, 0.7, 1.3), (25, -0.4, 0.5)):
            c = np.exp(0.5 * (np.log(2.0) + math.lgamma(n + 1)
                              - math.lgamma(n + alpha + 1)))
            x = np.sqrt(tau) * r
            want = tau**0.25 * c * eval_genlaguerre(n, alpha, x * x) \
                * np.exp(-x * x / 2) * x ** (alpha + 0.5)
            got = specfun.laguerre_fn(specfun.LaguerreIndex(n, alpha, tau), r)
            assert np.allclose(got, want, rtol=1e-11)

    def test_underflow_returns_zero(self):
        big = specfun.laguerre_fn(specfun.LaguerreIndex(1, 0.5, 1.0), 60.0)
        assert big == 0.0

    def test_deep_scaling_recovers(self):
        # values recover from an underflowed start once n is large enough
        x = np.array([55.0])
        vals = list(specfun.laguerre_fn_seq(0.0, x, 900))
        assert vals[0][0] == 0.0
        assert abs(vals[820][0]) > 1e-8  # past the turning point 4n > x^2

    def test_recurrence_against_direct_high_order(self):
        # the n = 200 member straight from the recurrence vs the direct
        # normalized-polynomial formula (log-gamma normalization)
        import math as m
        alpha, n = 0.7, 200
        x = np.array([0.5, 3.0, 11.0, 19.0, 27.0])
        got = None
        for k, q in enumerate(specfun.laguerre_fn_seq(alpha, x, n + 1)):
            if k == n:
                got = q
        c = np.exp(0.5 * (np.log(2.0) + m.lgamma(n + 1) - m.lgamma(n + alpha + 1)))
        want = c * eval_genlaguerre(n, alpha, x * x) * np.exp(-x * x / 2) \
            * x ** (alpha + 0.5)
        assert np.allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            specfun.laguerre_fn(specfun.LaguerreIndex(0, 0.0, 1.0), 0.0)


def laguerre_fn_mpmath(n, alpha, x):
    """l_n^a(x) = sqrt(2 n!/Gamma(n+a+1)) x^(a+1/2) e^(-x^2/2) L_n^a(x^2) in
    40-digit arithmetic, from mpmath's own Laguerre polynomial."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        return float(mpmath.sqrt(2 * mpmath.factorial(n) / mpmath.gamma(n + a + 1))
                     * x ** (a + 0.5) * mpmath.exp(-x * x / 2)
                     * mpmath.laguerre(n, a, x * x))


class TestLaguerreSeqAgainstMpmath:
    """The recurrence against the closed form: absolute error within 5e-13 of
    the table's sup, across the deep start (x^2/2 > 600), the rescales and
    the turning point 4n ~ x^2, at the orders the transforms run (n_max up
    to 256) and at x = 55 up to order 900."""

    @staticmethod
    def assert_close(alpha, x, orders, tol=5e-13):
        vals = list(specfun.laguerre_fn_seq(alpha, x, orders[-1] + 1))
        got = np.array([vals[n] for n in orders])
        want = np.array([[laguerre_fn_mpmath(n, alpha, xj) for xj in x] for n in orders])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5])
    def test_up_to_x_40(self, alpha):
        x = np.array([0.01, 0.4, 1.3, 3.0, 6.5, 11.0, 17.0, 24.0, 31.0, 36.0, 40.0])
        self.assert_close(alpha, x, list(range(0, 256, 9)) + [255])

    def test_deep_rescale(self):
        self.assert_close(0.0, np.array([55.0]), list(range(0, 900, 13)) + [899])

    def test_at_the_bound_on_a(self):
        # a = 1e4 is the largest order the recurrence takes; around the peak
        # x^2 = a + 1/2 the start's lnGamma(a+1) rounds to 3.9e-12 of the sup.
        # Tolerance fixed before the bound: 1e-11
        x = np.sqrt(1e4 + 0.5) + np.array([-3.0, -1.0, -0.3, 0.0, 0.4, 1.5, 3.0])
        self.assert_close(1e4, x, [0, 1, 2, 5, 11, 24], tol=1e-11)

    @pytest.mark.xfail(strict=True, reason="far inside the turning point each step "
                       "cancels about log10(2n) digits, so the error grows like n^2 eps: "
                       "1.5e-11 relative at x = 0.2, n = 459")
    def test_small_argument_high_order(self):
        self.assert_close(0.0, np.array([0.01, 0.05, 0.2, 0.4, 3.0]), list(range(0, 700, 9)))


def laguerre_fn_seq_reference(alpha, x, n_max):
    """The allocating form of specfun.laguerre_fn_seq: new arrays at every
    order, the scale factor exp(off) recomputed for every yield, and the
    overflow test at every 8th order, on cur and prev, as a whole-array mask."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    g0 = 0.5 * np.log(2.0) - 0.5 * sp.gammaln(alpha + 1.0) - 0.5 * x2 \
        + (alpha + 0.5) * np.log(x)
    off = np.where(g0 < -600.0, g0 + 300.0, 0.0)
    prev = np.zeros_like(x2)
    cur = np.exp(g0 - off)
    rescale = 300.0 * np.log(10.0)
    for n in range(int(n_max)):
        if n % 8 == 0:
            big = (np.abs(cur) > 1e150) | (np.abs(prev) > 1e150)
            prev = np.where(big, prev * 1e-300, prev)
            cur = np.where(big, cur * 1e-300, cur)
            off = np.where(big, off + rescale, off)
        yield cur * np.exp(off)
        c_up = np.sqrt((n + 1.0) * (n + alpha + 1.0))
        c_dn = np.sqrt(n * (n + alpha)) if n > 0 else 0.0
        prev, cur = cur, ((2 * n + alpha + 1.0 - x2) * cur - c_dn * prev) * (1.0 / c_up)


class TestLaguerreSeqMatchesReference:
    """The in-place recurrence yields exactly the reference's values."""

    @staticmethod
    def assert_same_sequence(alpha, x, n_max):
        got = list(specfun.laguerre_fn_seq(alpha, x, n_max))
        want = list(laguerre_fn_seq_reference(alpha, x, n_max))
        assert len(got) == len(want) == n_max
        for n, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), f"order {n} differs"

    def test_table_with_deep_start(self):
        # an (nr, K) table like the forward transform's, reaching g0 < -600
        r = np.linspace(0.05, 40.0, 61)
        tau = np.linspace(0.1, 1.6, 9)
        x = np.sqrt(tau)[None, :] * r[:, None]
        g0 = 0.5 * np.log(2.0) - 0.5 * sp.gammaln(1.5) - 0.5 * x * x + np.log(x)
        assert np.any(g0 < -600.0)
        self.assert_same_sequence(0.5, x, 300)

    def test_deep_rescale(self):
        self.assert_same_sequence(0.0, np.array([55.0]), 900)

    def test_negative_alpha(self):
        self.assert_same_sequence(-0.9, np.linspace(0.01, 9.0, 40).reshape(8, 5), 120)

    def test_retained_yields_are_not_aliased(self):
        x = np.linspace(0.1, 30.0, 24).reshape(4, 6)
        kept = list(specfun.laguerre_fn_seq(0.3, x, 400))
        want = list(laguerre_fn_seq_reference(0.3, x, 400))
        assert all(np.array_equal(k, w) for k, w in zip(kept, want))
        assert len({id(k) for k in kept}) == len(kept)


class TestLogGamma:
    def test_values(self):
        assert specfun.log_gamma(1.0) == 0.0
        assert specfun.log_gamma(0.5) == pytest.approx(np.log(np.sqrt(np.pi)),
                                                       rel=1e-12)
        assert specfun.log_gamma(5.0) == pytest.approx(np.log(24.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.log_gamma(0.0)
        with pytest.raises(ValueError):
            specfun.log_gamma(-3.2)


class TestValidation:
    def test_order_type(self):
        with pytest.raises(ValueError):
            specfun._order_value(-1.0)
        assert specfun._order_value(-0.99) == -0.99

    def test_laguerre_index(self):
        with pytest.raises(ValueError):
            specfun.LaguerreIndex(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.LaguerreIndex(0, -1.5, 1.0)
        with pytest.raises(ValueError):
            specfun.LaguerreIndex(0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha, tau, named", [
        (np.nan, 1.0, "alpha"), (np.inf, 1.0, "alpha"),
        (0.0, np.nan, "tau"), (0.0, np.inf, "tau"), (0.0, -1.0, "tau")])
    def test_laguerre_index_rejects_nonfinite(self, alpha, tau, named):
        with pytest.raises(ValueError, match=f"^{named} must be a finite real"):
            specfun.LaguerreIndex(0, alpha, tau)

    def test_order_check_names_the_parameter(self):
        with pytest.raises(ValueError, match="^beta must be a finite real > -1, got nan"):
            specfun._order_value(np.nan, "beta")

    @pytest.mark.parametrize("args, named", [
        ((np.nan, [1.0], 3), "alpha"), ((-1.0, [1.0], 3), "alpha"),
        ((0.3, [1.0, 0.0], 3), r"x\[1\]"), ((0.3, [np.inf], 3), r"x\[0\]"),
        ((0.3, [1.0], 0), "n_max"), ((0.3, [1.0], 2.5), "n_max")])
    def test_laguerre_fn_seq_checks_at_the_call(self, args, named):
        # before the first order is asked for, not at the first next()
        with pytest.raises(ValueError, match=f"^{named} must be"):
            specfun.laguerre_fn_seq(*args)

    def test_eigenvalue(self):
        assert specfun.laguerre_eigenvalue(0.5, 3) == 2.0 * (6 + 0.5 + 1)
