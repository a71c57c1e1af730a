"""The combined Laguerre-Hankel transform on the quarter plane.

For type parameters a, b > -1 the forward transform sends f in L^2(R^2_+) to
a function on N x (0, inf):

    F(n, tau) = <H'_b f(r, .)(tau), l_{n,tau}^a(r)>_r,

i.e. a Liouville Hankel transform in the second variable followed by a scaled
Laguerre analysis in the first.  It is unitary onto L^2(N x (0, inf)) and
diagonalizes the quarter-plane operator

    -d^2/dr^2 + (a^2-1/4)/r^2 + r^2 (-d^2/ds^2 + (b^2-1/4)/s^2)

with spectral symbol lam_n^a * tau, lam_n^a = 2(2n+a+1).  The continuous tau
axis is discretized on a quadrature grid whose weights make norms, inverses,
and the functional calculus finite computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._util import real_value
from .hankel import (HalfLineFunction, _liouville_kernel, as_half_line_function,
                     rule_for_function)
from .laguerre import _laguerre_rows, _synthesize_columns, analysis_rule
from .quadrature import HalfLineRule, build_finite_rule
from .specfun import _order_value, laguerre_eigenvalue, laguerre_fn_seq

__all__ = [
    "TypePair",
    "PlaneFunction",
    "SpectralData",
    "Multiplier",
    "default_tau_rule",
    "spectral_symbol",
    "g_forward",
    "g_forward_separated",
    "g_forward_hat",
    "g_inverse",
    "g_inverse_grid",
    "plancherel_norm",
    "functional_calculus",
]

DEFAULT_N_MAX = 96


@dataclass(frozen=True)
class TypePair:
    """Type parameters (alpha, beta), each > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        _order_value(self.alpha, "alpha")
        _order_value(self.beta, "beta")


@dataclass(frozen=True)
class PlaneFunction:
    """Evaluable function on the open quarter plane.

    fn must broadcast over numpy arrays.  Every library caller evaluates it
    on an outer product, r of shape (m, 1) and s of shape (1, n), and the
    grid plane of a grid file (functions.grid_plane) accepts only that.
    support is a box ((r_lo, r_hi), (s_lo, s_hi)); profiles, a pair of
    HalfLineFunction with the hints for f in r and in s (not both).  With
    neither, f is truncated as a unit gaussian in both variables.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Optional[Tuple[Tuple[float, float], Tuple[float, float]]] = None
    profiles: Optional[Tuple[HalfLineFunction, HalfLineFunction]] = None

    def __post_init__(self):
        pair = self.profiles
        if pair is not None and self.support is not None:
            raise ValueError("give support or profiles, not both")
        if pair is not None and not (isinstance(pair, tuple) and len(pair) == 2
                                     and all(isinstance(p, HalfLineFunction) for p in pair)):
            raise TypeError("profiles must be a pair (r, s) of HalfLineFunction")

    def __call__(self, r, s):
        return self.fn(r, s)

    def axis_profile(self, axis: int) -> HalfLineFunction:
        """Integration hints for one variable (profiles[axis], else the support)."""
        if self.profiles is not None:
            return self.profiles[axis]
        span = None if self.support is None else tuple(self.support[axis])
        return HalfLineFunction(fn=lambda x: x, support=span)


def as_plane_function(f) -> PlaneFunction:
    if isinstance(f, PlaneFunction):
        return f
    if callable(f):
        return PlaneFunction(f)
    raise TypeError("expected a callable or PlaneFunction")


@dataclass(frozen=True)
class SpectralData:
    """Truncated transform values on {0..n_max-1} x tau_grid.

    tau_weights are the quadrature weights of the grid; the squared norm is
    sum_k w_k sum_n |values[n, k]|^2.
    """

    alpha: float
    beta: float
    tau_grid: np.ndarray
    tau_weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, dtype=float))
        object.__setattr__(self, "tau_weights", np.asarray(self.tau_weights, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values))
        _order_value(self.alpha, "alpha")
        _order_value(self.beta, "beta")
        real_value(self.tau_grid, "tau_grid")
        if self.tau_grid.ndim != 1 or np.any(np.diff(self.tau_grid) <= 0.0):
            raise ValueError("tau_grid must be strictly increasing")
        if self.tau_weights.shape != self.tau_grid.shape:
            raise ValueError("tau_weights must match tau_grid")
        real_value(self.tau_weights, "tau_weights")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.tau_grid):
            raise ValueError("values must have shape (n_max, len(tau_grid))")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectral values must be finite")

    @property
    def n_max(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Multiplier:
    """Spectral multiplier applied to the symbol lam_n^a * tau."""

    phi: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y):
        return self.phi(y)


def spectral_symbol(alpha, n, tau):
    """The diagonalizing symbol lam_n^a * tau."""
    return laguerre_eigenvalue(alpha, n) * np.asarray(tau)


def default_tau_rule(upper: float = 12.0, panels: int = 32,
                     endpoint_exponent: float = 0.0) -> HalfLineRule:
    """Default tau discretization: panels of width upper/panels on (0, upper),
    refined geometrically toward 0."""
    return build_finite_rule(0.0, upper, upper / panels,
                             endpoint_exponent=endpoint_exponent)


def _plane_setup(tp: TypePair, f, n_max: int, tau_rule):
    """The tau rule, the r-rule weights, f on the (r, s) tensor rule, the
    s-weighted Hankel kernel (ns, K) and the Laguerre arguments sqrt(tau) r
    on the (r-node, tau-node) tensor."""
    f = as_plane_function(f)
    if tau_rule is None:
        tau_rule = default_tau_rule(endpoint_exponent=min(2.0 * tp.beta + 1.0, 0.0))
    tg = tau_rule.nodes
    r_rule = analysis_rule(tp.alpha, (tg[0], tg[-1]), f.axis_profile(0), n_max)
    s_rule = rule_for_function(f.axis_profile(1), freq=float(tg[-1]),
                               extra_exponent=tp.beta + 0.5)
    rn, sn = r_rule.nodes, s_rule.nodes
    fvals = np.asarray(f(rn[:, None], sn[None, :]))
    hankel = s_rule.weights[:, None] * _liouville_kernel(tp.beta, tg, sn)
    return tau_rule, r_rule.weights, fvals, hankel, np.sqrt(tg)[None, :] * rn[:, None]


def g_forward(tp: TypePair, f, n_max: int = DEFAULT_N_MAX,
              tau_rule: Optional[HalfLineRule] = None) -> SpectralData:
    """Forward transform: Hankel in s, then scaled Laguerre analysis in r.

    The inner transform is independent of n and is evaluated once on the
    (r-node, tau-node) tensor, then reused for every coefficient order.
    """
    tau_rule, rw, fvals, hankel, x = _plane_setup(tp, f, n_max, tau_rule)
    weighted = rw[:, None] * (fvals @ hankel)                  # (nr, K)
    values = _laguerre_rows(tp.alpha, x, n_max,
                            lambda q, c: np.sum(weighted[:, c] * q, axis=0))
    values *= tau_rule.nodes[None, :] ** 0.25
    return SpectralData(tp.alpha, tp.beta, tau_rule.nodes, tau_rule.weights, values)


def g_forward_separated(tp: TypePair, f1, f2, n_max: int = DEFAULT_N_MAX) -> SpectralData:
    """Forward transform of f(r, s) = f1(r) f2(s): g_forward of the product,
    on rules built from the hints of the two factors."""
    f1, f2 = as_half_line_function(f1), as_half_line_function(f2)
    return g_forward(tp, PlaneFunction(lambda r, s: f1(r) * f2(s), profiles=(f1, f2)), n_max)


def g_forward_hat(tp: TypePair, f, n_max: int = DEFAULT_N_MAX,
                  tau_rule: Optional[HalfLineRule] = None) -> SpectralData:
    """Order-exchanged transform: scaled Laguerre in r first, Hankel in s
    second.  Coincides with g_forward; the contraction order differs."""
    tau_rule, rw, fvals, hankel, x = _plane_setup(tp, f, n_max, tau_rule)
    weighted_f = rw[:, None] * fvals                           # (nr, ns)
    # Laguerre analysis of every s-slice at each tau, then the Hankel
    # contraction evaluated on the diagonal tau.  The table runs unblocked:
    # a block's product would stream all of weighted_f, which costs more
    # than a cache-resident recurrence saves.
    values = np.array([np.sum((weighted_f.T @ q) * hankel, axis=0)
                       for q in laguerre_fn_seq(tp.alpha, x, n_max)])
    values *= tau_rule.nodes[None, :] ** 0.25
    return SpectralData(tp.alpha, tp.beta, tau_rule.nodes, tau_rule.weights, values)


def _synthesis(sd: SpectralData, rs) -> np.ndarray:
    """sum_n values[n, k] l_{n,tau_k}^a(r_j) as a (K, len(rs)) matrix."""
    return _synthesize_columns(sd.alpha, sd.tau_grid, sd.values, rs) \
        * sd.tau_grid[:, None] ** 0.25


def _points_array(points) -> np.ndarray:
    """Points [(r_1, s_1), ...] in the open quarter plane as an (m, 2) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    real_value(pts[:, 0], "r")
    real_value(pts[:, 1], "s")
    return pts


def g_inverse_grid(sd: SpectralData, rs, ss) -> np.ndarray:
    """Inverse transform evaluated on the tensor grid rs x ss."""
    rs = real_value(np.atleast_1d(rs), "rs")
    ss = real_value(np.atleast_1d(ss), "ss")
    synth = _synthesis(sd, rs)                                 # (K, nr)
    kern = _liouville_kernel(sd.beta, sd.tau_grid, ss)         # (ns, K)
    return synth.T @ (sd.tau_weights[:, None] * kern.T)        # (nr, ns)


def g_inverse(sd: SpectralData, points):
    """Inverse transform at scattered points [(r_1, s_1), ...], one value per
    point as an (m,) array: synthesis over n at each grid tau, then the
    Hankel integral in tau."""
    pts = _points_array(points)
    synth = _synthesis(sd, pts[:, 0])                          # (K, m)
    kern = _liouville_kernel(sd.beta, sd.tau_grid, pts[:, 1])  # (m, K)
    return np.sum(kern.T * synth * sd.tau_weights[:, None], axis=0)


def plancherel_norm(sd: SpectralData) -> float:
    """Norm on N x (0, inf): sqrt(sum_k w_k sum_n |F(n, tau_k)|^2)."""
    return float(np.sqrt(np.sum(sd.tau_weights * np.sum(np.abs(sd.values) ** 2, axis=0))))


def apply_multiplier(sd: SpectralData, phi) -> SpectralData:
    """Multiply the data by phi(lam_n^a tau_k) entrywise."""
    phi = phi if isinstance(phi, Multiplier) else Multiplier(phi)
    symbol = spectral_symbol(sd.alpha, np.arange(sd.n_max)[:, None], sd.tau_grid[None, :])
    scaled = np.asarray(phi(symbol))
    if not np.all(np.isfinite(scaled)):
        n_bad, k_bad = np.argwhere(~np.isfinite(scaled))[0]
        raise OverflowError(
            f"multiplier is not finite at (n={n_bad}, tau={sd.tau_grid[k_bad]})")
    return SpectralData(sd.alpha, sd.beta, sd.tau_grid, sd.tau_weights,
                        scaled * sd.values)


def functional_calculus(tp: TypePair, phi, f, points, n_max: int = DEFAULT_N_MAX):
    """Evaluate Phi of the self-adjoint extension applied to f at points:
    forward transform, multiply by Phi(lam_n^a tau), inverse transform."""
    sd = g_forward(tp, f, n_max=n_max)
    return g_inverse(apply_multiplier(sd, phi), points)
