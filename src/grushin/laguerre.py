"""Scaled Laguerre analysis and synthesis on L^2(0, inf).

Coefficients are taken against the orthonormal scaled Laguerre functions of
Hermite type l_{n,tau}^a; synthesis sums a truncated expansion.  The
coefficients of the gaussian envelope r^(a+1/2) exp(-r^2/2) have the closed
form

    (2^(a+1)/c_{n,a}) (sqrt(tau)/(1+tau))^(a+1) ((1-tau)/(1+tau))^n,

whose squares sum to Gamma(a+1)/2 for every tau > 0; this serves as the
exact oracle for the quadrature pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._util import column_blocks, count_value, parallel_map, real_value
from .hankel import HalfLineFunction, _sampled_values, profile_rule
from .quadrature import HalfLineRule
from .specfun import _order_value, laguerre_eigenvalue, laguerre_fn_seq

__all__ = [
    "LaguerreCoeffs",
    "laguerre_analyze",
    "laguerre_synthesize",
    "gaussian_coefficient",
]

# Gauss points per r panel and the panel's phase at the top wavenumber.  Gauss-Legendre
# on cos(w u + c) over (0, 1) errs by 2e-15 with 8 points at w = pi; with 16, by 7e-16,
# 4e-16 and 1e-14 at w = 4, 5 and 6 pi.
_PANEL_POINTS, _PANEL_PHASE = 16, 5.0 * np.pi


@dataclass(frozen=True)
class LaguerreCoeffs:
    """Truncated expansion coefficients against {l_{n,tau}^a, n < n_max}."""

    alpha: float
    tau: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        _order_value(self.alpha, "alpha")
        real_value(self.tau, "tau")
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficients must be finite")

    @property
    def n_max(self) -> int:
        return len(self.values)


def analysis_rule(alpha, taus, f: HalfLineFunction, n_max) -> HalfLineRule:
    """r-rule for f and every l_{n,tau}^a, n < n_max, tau in taus = (tau_lo, tau_hi):
    _PANEL_POINTS Gauss points a panel of phase _PANEL_PHASE at the top wavenumber
    sqrt(lam_N tau_hi), out to f's cut or the turning point sqrt(lam_N/tau_lo) + 6."""
    alpha = _order_value(alpha)
    lam = laguerre_eigenvalue(alpha, count_value(n_max, "n_max", 1) - 1)
    tau_lo, tau_hi = taus
    reach = np.ceil(np.sqrt(lam / tau_lo) + 6.0)
    return profile_rule(f, _PANEL_PHASE / np.sqrt(lam * tau_hi), alpha + 0.5, reach=reach,
                        points_per_panel=_PANEL_POINTS)


def _laguerre_blocks(alpha, x, n_max, per_block) -> np.ndarray:
    """per_block(cols, seq) over contiguous column blocks of the table x,
    joined along the last axis; seq yields l_n^a(x[:, cols]) for n < n_max.

    A block holds about _util.BLOCK doubles.  Blocks run on up to
    thread_count() workers.  Columns are independent and the recurrence acts
    elementwise, so every yielded value, and any contraction that sums down
    the columns, does not depend on the block size or the thread count."""
    # blocks of at least two columns: on a one-column block numpy's axis-0
    # sums turn pairwise and the contractions would change bits
    blocks = column_blocks(x.shape[0], x.shape[1], min_width=2)
    parts = parallel_map(
        lambda cols: per_block(cols, laguerre_fn_seq(alpha, x[:, cols], n_max)), blocks)
    return np.concatenate(parts, axis=-1)


def _laguerre_rows(alpha, x, n_max, contract) -> np.ndarray:
    """Rows contract(l_n^a(x[:, cols]), cols) for n < n_max, as (n_max, K)."""
    return _laguerre_blocks(alpha, x, n_max,
                            lambda cols, seq: np.array([contract(q, cols) for q in seq]))


def _synthesize_columns(alpha, taus, values, rs) -> np.ndarray:
    """sum_n values[n, k] l_n^a(sqrt(tau_k) r_j) as a (K, len(rs)) matrix;
    the caller applies the factor tau_k^(1/4) of l_{n,tau_k}^a."""
    x = np.sqrt(taus)[:, None] * rs[None, :]

    def synthesize(cols, seq):
        out = np.zeros((len(taus), cols.stop - cols.start), dtype=values.dtype)
        for n, q in enumerate(seq):
            out += values[n][:, None] * q
        return out

    return _laguerre_blocks(alpha, x, len(values), synthesize)


def laguerre_analyze(alpha, tau, f, n_max: int = 128,
                     rule: HalfLineRule | None = None) -> LaguerreCoeffs:
    """Coefficients <f, l_{n,tau}^a> for n < n_max, by quadrature."""
    alpha = _order_value(alpha)
    tau = real_value(tau, "tau")
    n_max = count_value(n_max, "n_max", 1)
    vals, rule = _sampled_values(f, rule,
                                 lambda hf: analysis_rule(alpha, (tau, tau), hf, n_max))
    weighted = rule.weights * vals
    x = np.sqrt(tau) * rule.nodes[:, None]
    coeffs = _laguerre_rows(alpha, x, n_max, lambda q, cols: np.dot(weighted, q[:, 0]))
    return LaguerreCoeffs(alpha, tau, coeffs * tau**0.25)


def laguerre_synthesize(coeffs: LaguerreCoeffs, rs):
    """Evaluate sum_n coeffs[n] l_{n,tau}^a at the points rs > 0."""
    rs = np.asarray(real_value(rs, "rs"))
    out = _synthesize_columns(coeffs.alpha, np.array([coeffs.tau]),
                              coeffs.values[:, None], rs.ravel())
    out = out.reshape(rs.shape) * coeffs.tau**0.25
    return out if out.ndim else float(out)


def gaussian_coefficient(alpha, n, tau):
    """Closed-form coefficient <g, l_{n,tau}^a> of g(r) = r^(a+1/2) e^(-r^2/2).

    Broadcasts over n and tau.  At tau = 1 the factor ((1-tau)/(1+tau))^n
    is 1 for n = 0 and 0 otherwise.
    """
    alpha = _order_value(alpha)
    n = np.asarray(count_value(n, "n", 0))
    tau = np.asarray(real_value(tau, "tau"))
    log_c = 0.5 * (np.log(2.0) + gammaln(n + 1.0) - gammaln(n + alpha + 1.0))
    lead = np.exp((alpha + 1.0) * np.log(2.0) - log_c
                  + (alpha + 1.0) * np.log(np.sqrt(tau) / (1.0 + tau)))
    ratio = (1.0 - tau) / (1.0 + tau)
    # integer exponent so that 0^0 = 1 at tau = 1, n = 0
    out = lead * ratio ** n
    return float(out) if out.ndim == 0 else out
