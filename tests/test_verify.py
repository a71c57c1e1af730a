"""The verify registry: which checks run, in which order, and how a
registered check turns its error into a verdict."""

import pytest

from grushin import verify

TABLE = [
    ("specfun", "specfun", "half-integer Bessel identities"),
    ("specfun", "specfun", "small-argument power laws"),
    ("specfun", "specfun", "basis Gram matrix = identity"),
    ("specfun", "specfun", "oscillator eigen-relation residual order"),
    ("hankel", "hankel", "self-inverse on smooth bumps"),
    ("hankel", "hankel", "Plancherel identity"),
    ("hankel", "hankel", "Liouville = conjugated modified form"),
    ("laguerre", "1", "gaussian coefficients match closed form"),
    ("laguerre", "1", "truncated Parseval sum at N=200"),
    ("gtransform", "2", "squared norm = Gamma(a+1)Gamma(b+1)/4"),
    ("gtransform", "3", "inverse(forward f) = f on wave packets"),
    ("gtransform", "4", "Hankel-first = Laguerre-first transform"),
    ("gtransform", "5", "transform of applied operator = symbol * transform"),
    ("heat", "6", "kernel symmetric in (r,s)<->(u,v)"),
    ("heat", "6", "parabolic scaling K_t = t^-3/2 K_1(scaled)"),
    ("heat", "7", "eigenfunction sum matches closed kernel factor"),
    ("heat", "8", "kernel route = spectral route"),
    ("heat", "9", "semigroup composition"),
    ("heat", "10", "cosh variant matches general kernel"),
    ("heat", "10", "sinh variant demonstrably differs"),
    ("heat", "11", "log-log slopes equal 2b and 2a"),
    ("heat", "14", "short-time diagonal remainder order >= 1.9"),
    ("diffop", "12", "eigenfunction residual order >= 1.9"),
    ("diffop", "12", "delta factorization residual order >= 1.9"),
    ("diffop", "13", "conjugation identities at order >= 1.9"),
]


def _labels(check):
    # the sinh check builds its own result; it is cheap to run
    if hasattr(check, "criterion"):
        return check.criterion, check.title
    result = check()
    return result.criterion, result.name


def test_table_is_pinned():
    assert list(verify.SUITES) == ["specfun", "hankel", "laguerre", "gtransform",
                                   "heat", "diffop"]
    got = [(suite, *_labels(check))
           for suite, checks in verify.SUITES.items() for check in checks]
    assert got == TABLE


def test_every_module_check_is_registered_once():
    registered = [check for checks in verify.SUITES.values() for check in checks]
    module_checks = [value for name, value in vars(verify).items()
                     if name.startswith("check_") and callable(value)]
    for check in module_checks:
        assert sum(c is check for c in registered) == 1, check.__name__
    assert len(registered) == len(module_checks)


@pytest.fixture
def scratch_suite():
    yield "scratch"
    verify.SUITES.pop("scratch", None)


def test_registered_check_verdicts(scratch_suite):
    @verify._check(scratch_suite, "x", "throwaway", tol=1e-3)
    def check_throwaway():
        return 1e-4, "a note"

    @verify._check(scratch_suite, "x", "throwaway on a budget", tol=1e-3, budget=0)
    def check_budgeted():
        return 1e-4

    assert verify.SUITES[scratch_suite] == [check_throwaway, check_budgeted]
    assert check_throwaway.__name__ == "check_throwaway"
    ok = check_throwaway()
    assert ok.passed and (ok.criterion, ok.name) == ("x", "throwaway")
    assert ok.detail == "max err 1.000e-04 (tol 1.0e-03); a note"
    tight = check_throwaway(scale=1e-20)
    assert not tight.passed
    assert tight.detail == "max err 1.000e-04 (tol 1.0e-23); a note"
    over = check_budgeted()
    assert not over.passed
    assert over.detail.endswith("; over the 0 s budget")
    assert [r.name for r in verify.run_suite(scratch_suite)] == \
        ["throwaway", "throwaway on a budget"]
