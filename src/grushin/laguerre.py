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
from .quadrature import HalfLineFunction, HalfLineRule, _sampled_values, panel_width, profile_rule
from .specfun import (_laguerre_alpha, _laguerre_steps, _order_value, laguerre_eigenvalue,
                      laguerre_fn_seq)

__all__ = [
    "LaguerreCoeffs",
    "laguerre_analyze",
    "laguerre_synthesize",
    "gaussian_coefficient",
]


@dataclass(frozen=True)
class LaguerreCoeffs:
    """Truncated expansion coefficients against {l_{n,tau}^a, n < n_max}."""

    alpha: float
    tau: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        _laguerre_alpha(self.alpha)
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
    quadrature's panel law, panels of panel_width at the top wavenumber
    sqrt(lam_N tau_hi), out to f's cut or the turning point sqrt(lam_N/tau_lo) + 6.
    The first panel absorbs the basis's r^(a+1/2) in full, so a profile that
    declares its endpoint law gets no octaves toward 0 (quadrature.profile_rule)."""
    alpha = _laguerre_alpha(alpha)
    lam = laguerre_eigenvalue(alpha, count_value(n_max, "n_max", 1) - 1)
    tau_lo, tau_hi = taus
    tau_lo = real_value(tau_lo, "tau_lo")
    tau_hi = real_value(tau_hi, "tau_hi", tau_lo, closed=True)
    reach = np.ceil(np.sqrt(lam / tau_lo) + 6.0)
    return profile_rule(f, panel_width(np.sqrt(lam * tau_hi)), alpha + 0.5, reach=reach)


def _laguerre_blocks(shape, per_block, axis=1) -> np.ndarray:
    """per_block(part) over slices along axis of a table of the given shape, each
    about _util.BLOCK doubles, on up to thread_count() workers, joined along the
    last axis.  The recurrence acts elementwise and every sum stays inside one row
    or entry, so no result depends on the block size or thread count."""
    blocks = column_blocks(shape[1 - axis], shape[axis])
    return np.concatenate(parallel_map(per_block, blocks), axis=-1)


def _analyze_columns(alpha, taus, rs, weighted, n_max) -> np.ndarray:
    """sum_j weighted[k, j] l_{n,tau_k}^a(r_j) for n < n_max, as (n_max, K), from a
    tau-major (K, len(rs)) table: each block of tau rows forms its own sqrt(tau) r
    and contracts each order inside the recurrence by one np.vecdot(l_n^a, weighted)
    per row (the real table first: vecdot conjugates it).  A rescaled entry's product
    is cur * (weight * scale), which can differ from (cur * scale) * weight in the last bit."""
    root, quarter = np.sqrt(taus), taus ** 0.25

    def analyze(rows):
        out = np.empty((n_max, rows.stop - rows.start), np.result_type(weighted, 1.0))
        last = None
        for n, (cur, scale) in enumerate(_laguerre_steps(alpha, root[rows, None] * rs, n_max)):
            if scale is not last:  # the weights carry the scale, new at a rescale
                last, ws = scale, weighted[rows] * scale
            np.vecdot(cur, ws, out=out[n])
        out *= quarter[rows]
        return out

    return _laguerre_blocks(weighted.shape, analyze, axis=0)


def _synthesize_columns(alpha, taus, values, rs) -> np.ndarray:
    """sum_n values[n, k] l_{n,tau_k}^a(r_j) as a (K, len(rs)) matrix, each block of
    r columns forming its own sqrt(tau) r and accumulated in place with the bits of
    out += values[n][:, None] * l_n^a."""
    root, quarter = np.sqrt(taus)[:, None], taus[:, None] ** 0.25

    def synthesize(cols):
        out = np.zeros((len(taus), cols.stop - cols.start), dtype=values.dtype)
        tmp, last = np.empty_like(out), None
        for n, (cur, scale) in enumerate(_laguerre_steps(alpha, root * rs[cols], len(values))):
            if scale is not last:
                last, unit = scale, np.all(scale == 1.0)
            q = cur if unit else np.multiply(cur, scale, out=tmp)
            out += np.multiply(values[n][:, None], q, out=tmp)
        out *= quarter
        return out

    return _laguerre_blocks((len(taus), len(rs)), synthesize)


def laguerre_analyze(alpha, tau, f, n_max: int = 128,
                     rule: HalfLineRule | None = None) -> LaguerreCoeffs:
    """Coefficients <f, l_{n,tau}^a> for n < n_max, by quadrature: its own per-order
    loop over laguerre_fn_seq, where the trace hook counts specfun.laguerre_seq."""
    alpha = _laguerre_alpha(alpha)
    tau = real_value(tau, "tau")
    n_max = count_value(n_max, "n_max", 1)
    vals, rule = _sampled_values(f, rule,
                                 lambda hf: analysis_rule(alpha, (tau, tau), hf, n_max))
    weighted = rule.weights * vals
    coeffs = np.array([np.dot(weighted, q)
                       for q in laguerre_fn_seq(alpha, np.sqrt(tau) * rule.nodes, n_max)])
    return LaguerreCoeffs(alpha, tau, coeffs * tau**0.25)


def laguerre_synthesize(coeffs: LaguerreCoeffs, rs):
    """Evaluate sum_n coeffs[n] l_{n,tau}^a at the points rs > 0."""
    rs = np.asarray(real_value(rs, "rs"))
    out = _synthesize_columns(coeffs.alpha, np.array([coeffs.tau]),
                              coeffs.values[:, None], rs.ravel()).reshape(rs.shape)
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
