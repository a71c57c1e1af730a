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
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from ._util import column_blocks, count_value, parallel_map, real_value, span_value
from .hankel import _kernel_apply, _liouville_kernel
from .laguerre import _analyze_columns, _synthesize_columns, analysis_rule
from .quadrature import HalfLineFunction, HalfLineRule, build_finite_rule, rule_for_function
from .specfun import _laguerre_alpha, _order_value, laguerre_eigenvalue, laguerre_fn_seq

__all__ = [
    "TypePair",
    "PlaneFunction",
    "SpectralData",
    "default_tau_rule",
    "spectral_symbol",
    "g_forward",
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
    HalfLineFunction with the hints for f in r and in s (not both, unless the
    box is the profiles' supports, which they set when both have one).  With neither, f is truncated as a
    unit gaussian in both variables.  Each span of the box has finite ends,
    0 <= lo < hi.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Optional[Tuple[Tuple[float, float], Tuple[float, float]]] = None
    profiles: Optional[Tuple[HalfLineFunction, HalfLineFunction]] = None

    def __post_init__(self):
        pair = self.profiles
        if pair is not None and not (isinstance(pair, tuple) and len(pair) == 2
                                     and all(isinstance(p, HalfLineFunction) for p in pair)):
            raise TypeError("profiles must be a pair (r, s) of HalfLineFunction")
        box = None if pair is None else tuple(p.support for p in pair)
        if pair is not None and self.support not in (None, box):  # replace() passes box back
            raise ValueError("give support or profiles, not both")
        for axis, span in enumerate(self.support or ()):
            span_value(span, f"support[{axis}]")
        if box is not None and None not in box:
            object.__setattr__(self, "support", box)

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
        _laguerre_alpha(self.alpha)
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


def spectral_symbol(alpha, n, tau):
    """The diagonalizing symbol lam_n^a * tau."""
    return laguerre_eigenvalue(alpha, n) * real_value(tau, "tau")


def default_tau_rule(upper: float = 12.0, panels: int = 32,
                     endpoint_exponent: float = 0.0) -> HalfLineRule:
    """Default tau discretization: panels of width upper/panels on (0, upper),
    refined geometrically toward 0."""
    upper = real_value(upper, "upper")
    return build_finite_rule(0.0, upper, upper / count_value(panels, "panels", 1),
                             endpoint_exponent=endpoint_exponent)


def _tau_bands(alpha, tg, prof: HalfLineFunction, n_max) -> list:
    """(columns, r rule) per band of the tau nodes tg, from the bottom.  l_{n,tau}^a's
    top wavenumber in r is sqrt(lam_N tau), so each octave of tg below its top node,
    (tg[-1] / 2^(k+1), tg[-1] / 2^k], gets the analysis_rule of its own tau range,
    adjacent octaves whose rules coincide (where the profile's width binds) forming
    one band."""
    octave = np.floor(np.log2(tg[-1] / tg))
    edges = [0] + [int(k) + 1 for k in np.flatnonzero(np.diff(octave))] + [len(tg)]
    bands = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        rule = analysis_rule(alpha, (tg[lo], tg[hi - 1]), prof, n_max)
        if bands and np.array_equal(bands[-1][1].nodes, rule.nodes):
            lo = bands.pop()[0].start
        bands.append((slice(lo, hi), rule))
    return bands


def _plane_setup(tp: TypePair, f: PlaneFunction, n_max: int, tau_rule):
    """The tau rule, the s rule and the bands of tau nodes with their r rules
    (_tau_bands)."""
    if tau_rule is None:
        tau_rule = default_tau_rule(endpoint_exponent=min(2.0 * tp.beta + 1.0, 0.0))
    tg = tau_rule.nodes
    s_rule = rule_for_function(f.axis_profile(1), freq=float(tg[-1]),
                               extra_exponent=tp.beta + 0.5)
    return tau_rule, s_rule, _tau_bands(tp.alpha, tg, f.axis_profile(0), n_max)


def _band_tables(f: PlaneFunction, taus, r_rule: HalfLineRule, s_rule: HalfLineRule):
    """f on a band's (r, s) tensor rule and the Laguerre arguments sqrt(tau) r on its
    (tau-node, r-node) tensor.  The transforms take them one band at a time, so they
    hold no more than the largest band's samples."""
    return (np.asarray(f(r_rule.nodes[:, None], s_rule.nodes[None, :])),
            np.sqrt(taus)[:, None] * r_rule.nodes[None, :])


def g_forward(tp: TypePair, f, n_max: int = DEFAULT_N_MAX,
              tau_rule: Optional[HalfLineRule] = None) -> SpectralData:
    """Forward transform: Hankel in s, then scaled Laguerre analysis in r.

    The inner transform is independent of n and is evaluated once per band on
    its (tau-node, r-node) tensor, then reused for every coefficient order.
    """
    f = as_plane_function(f)
    tau_rule, s_rule, bands = _plane_setup(tp, f, n_max, tau_rule)
    tg, parts = tau_rule.nodes, []
    for cols, r_rule in bands:
        fvals, x = _band_tables(f, tg[cols], r_rule, s_rule)
        weighted = _kernel_apply(partial(_liouville_kernel, tp.beta), s_rule.nodes,
                                 s_rule.weights, fvals.T, tg[cols])  # (K, nr)
        weighted *= r_rule.weights
        parts.append(_analyze_columns(tp.alpha, x, weighted, n_max))
    values = np.concatenate(parts, axis=1)
    values *= tg[None, :] ** 0.25
    return SpectralData(tp.alpha, tp.beta, tg, tau_rule.weights, values)


def g_forward_hat(tp: TypePair, f, n_max: int = DEFAULT_N_MAX,
                  tau_rule: Optional[HalfLineRule] = None) -> SpectralData:
    """Order-exchanged transform: scaled Laguerre in r first, Hankel in s
    second, on g_forward's bands.  Coincides with g_forward; the contraction
    order differs."""
    f = as_plane_function(f)
    tau_rule, s_rule, bands = _plane_setup(tp, f, n_max, tau_rule)
    tg, parts = tau_rule.nodes, []
    for cols, r_rule in bands:
        fvals, x = _band_tables(f, tg[cols], r_rule, s_rule)
        weighted_f = r_rule.weights[:, None] * fvals                       # (nr, ns)
        hankel = _liouville_kernel(tp.beta, s_rule.nodes, tg[cols]) * s_rule.weights  # (K, ns)
        # Laguerre analysis of every s-slice at each tau, then the Hankel
        # contraction evaluated on the diagonal tau.  The table runs unblocked:
        # a block's product would stream all of weighted_f, which costs more
        # than a cache-resident recurrence saves.
        parts.append([np.sum((q @ weighted_f) * hankel, axis=1)
                      for q in laguerre_fn_seq(tp.alpha, x, n_max)])
    values = np.concatenate(parts, axis=1)
    values *= tg[None, :] ** 0.25
    return SpectralData(tp.alpha, tp.beta, tg, tau_rule.weights, values)


def _synthesis(sd: SpectralData, rs) -> np.ndarray:
    """sum_n values[n, k] l_{n,tau_k}^a(r_j) as a (K, len(rs)) matrix."""
    return _synthesize_columns(sd.alpha, sd.tau_grid, sd.values, rs) \
        * sd.tau_grid[:, None] ** 0.25


def _points_array(points) -> np.ndarray:
    """Points [(r_1, s_1), ...] in the open quarter plane as an (m, 2) array."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(0, 2) if pts.shape == (0,) else np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    real_value(pts[:, 0], "r")
    real_value(pts[:, 1], "s")
    return pts


def g_inverse_grid(sd: SpectralData, rs, ss) -> np.ndarray:
    """Inverse transform evaluated on the tensor grid rs x ss."""
    rs = real_value(np.atleast_1d(rs), "rs")
    ss = real_value(np.atleast_1d(ss), "ss")
    return _kernel_apply(partial(_liouville_kernel, sd.beta), sd.tau_grid, sd.tau_weights,
                         _synthesis(sd, rs), ss).T             # (nr, ns)


def g_inverse(sd: SpectralData, points):
    """Inverse transform at scattered points [(r_1, s_1), ...], one value per
    point as an (m,) array: synthesis over n at each grid tau, then the
    Hankel integral in tau.  Both are taken per block of points on the
    worker threads: each block is synthesized on its distinct r and its
    kernel built on its distinct s, then both are gathered to its points.
    Every column is summed on its own, so the values do not depend on the
    blocks, provided the gathered tables stay C-ordered and the blocks are
    at least two points wide: on one column, or down an F-ordered table,
    the axis-0 sum turns pairwise and changes bits."""
    pts = _points_array(points)

    def block(cols):
        rs, r_at = np.unique(pts[cols, 0], return_inverse=True)
        ss, s_at = np.unique(pts[cols, 1], return_inverse=True)
        synth = np.take(_synthesis(sd, rs), r_at, axis=1)                       # (K, mb)
        kern = np.take(_liouville_kernel(sd.beta, sd.tau_grid, ss), s_at, axis=0)  # (mb, K)
        return np.sum(kern.T * synth * sd.tau_weights[:, None], axis=0)

    blocks = column_blocks(len(sd.tau_grid), len(pts), min_width=2)
    return np.concatenate(parallel_map(block, blocks))


def plancherel_norm(sd: SpectralData) -> float:
    """Norm on N x (0, inf): sqrt(sum_k w_k sum_n |F(n, tau_k)|^2)."""
    return float(np.sqrt(np.sum(sd.tau_weights * np.sum(np.abs(sd.values) ** 2, axis=0))))


def apply_multiplier(sd: SpectralData, phi) -> SpectralData:
    """Multiply the data by phi(lam_n^a tau_k) entrywise."""
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
