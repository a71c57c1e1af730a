"""Finite-difference application of the quarter-plane differential operators.

Second-order central stencils realize

  weighted form    G  = -(d_rr + (2a+1)/r d_r) - r^2 (d_ss + (2b+1)/s d_s)
  Liouville form   G' = -d_rr + (a^2-1/4)/r^2 + r^2 (-d_ss + (b^2-1/4)/s^2)

together with the first-order delta factors whose adjoint pairing rebuilds
the Liouville form,

  d1 = d_r - (a+1/2)/r,   d1+ = -d_r - (a+1/2)/r,
  d2 = r (d_s - (b+1/2)/s),  d2+ = r (-d_s - (b+1/2)/s),

and the multiplication maps conjugating the two forms and the sign-flipped
type parameters.  Everything here is an O(h^2) oracle for residual and
convergence-order checks against the spectral machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import count_value, real_value

__all__ = [
    "GridFunction2D",
    "grid_from_function",
    "apply_G_circ",
    "apply_G_weighted",
    "delta_factorization_residual",
    "conjugation_map",
    "apply_radial_operator",
]


@dataclass(frozen=True)
class GridFunction2D:
    """Values on a uniform positive tensor grid; at least 5 nodes per axis so
    composed central stencils keep a 2-node interior margin."""

    r_nodes: np.ndarray
    s_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r_nodes", np.asarray(self.r_nodes, dtype=float))
        object.__setattr__(self, "s_nodes", np.asarray(self.s_nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values))
        for name, nodes in (("r_nodes", self.r_nodes), ("s_nodes", self.s_nodes)):
            if nodes.ndim != 1 or len(nodes) < 5:
                raise ValueError(f"{name} must be 1-d with at least 5 nodes")
            real_value(nodes, name)
            d = np.diff(nodes)
            if np.any(d <= 0.0):
                raise ValueError(f"{name} must be strictly increasing")
            if np.max(np.abs(d - d[0])) > 1e-9 * d[0]:
                raise ValueError(f"{name} must be uniformly spaced")
        if self.values.shape != (len(self.r_nodes), len(self.s_nodes)):
            raise ValueError("values must have shape (len(r_nodes), len(s_nodes))")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def h_r(self) -> float:
        return float(self.r_nodes[1] - self.r_nodes[0])

    @property
    def h_s(self) -> float:
        return float(self.s_nodes[1] - self.s_nodes[0])

    def interior(self, margin: int) -> "GridFunction2D":
        m = count_value(margin, "margin", 1)
        return GridFunction2D(self.r_nodes[m:-m], self.s_nodes[m:-m],
                              self.values[m:-m, m:-m])


def grid_from_function(fn: Callable, r_span, s_span, h: float) -> GridFunction2D:
    """Sample fn on the uniform grid of spacing h covering the spans."""
    r = np.arange(r_span[0], r_span[1] + 0.5 * h, h)
    s = np.arange(s_span[0], s_span[1] + 0.5 * h, h)
    return GridFunction2D(r, s, np.asarray(fn(r[:, None], s[None, :])))


def _d_r(v, h):
    return (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * h)


def _d_s(v, h):
    return (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * h)


def _d2_r(v, h):
    return (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / (h * h)


def _d2_s(v, h):
    return (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / (h * h)


def apply_G_circ(alpha: float, beta: float, g: GridFunction2D) -> GridFunction2D:
    """Liouville form on the margin-1 interior."""
    r = g.r_nodes[1:-1][:, None]
    s = g.s_nodes[1:-1][None, :]
    mid = g.values[1:-1, 1:-1]
    out = -_d2_r(g.values, g.h_r) + (alpha**2 - 0.25) / r**2 * mid \
        + r**2 * (-_d2_s(g.values, g.h_s) + (beta**2 - 0.25) / s**2 * mid)
    return GridFunction2D(g.r_nodes[1:-1], g.s_nodes[1:-1], out)


def apply_G_weighted(alpha: float, beta: float, g: GridFunction2D) -> GridFunction2D:
    """Weighted form with first-order terms, on the margin-1 interior."""
    r = g.r_nodes[1:-1][:, None]
    s = g.s_nodes[1:-1][None, :]
    out = -(_d2_r(g.values, g.h_r) + (2.0 * alpha + 1.0) / r * _d_r(g.values, g.h_r)) \
        - r**2 * (_d2_s(g.values, g.h_s)
                  + (2.0 * beta + 1.0) / s * _d_s(g.values, g.h_s))
    return GridFunction2D(g.r_nodes[1:-1], g.s_nodes[1:-1], out)


def _delta(order, g: GridFunction2D, axis: int, adjoint: bool) -> GridFunction2D:
    """d1 = d_r - (a+1/2)/r (axis 0, order a) or d2 = r (d_s - (b+1/2)/s) (axis 1,
    order b) on the margin-1 interior; adjoint negates the derivative."""
    r, s = g.r_nodes[1:-1][:, None], g.s_nodes[1:-1][None, :]
    d = _d_s(g.values, g.h_s) if axis else _d_r(g.values, g.h_r)
    out = (-1.0 if adjoint else 1.0) * d - (order + 0.5) / (s if axis else r) \
        * g.values[1:-1, 1:-1]
    return GridFunction2D(g.r_nodes[1:-1], g.s_nodes[1:-1], r * out if axis else out)


def delta_factorization_residual(alpha: float, beta: float,
                                 g: GridFunction2D) -> float:
    """sup norm of (d1+ d1 + d2+ d2) g - G' g on the margin-2 interior.

    The composed first-order stencils reproduce the second derivative only to
    O(h^2), so the residual itself measures the discretization order.
    """
    d1 = _delta(alpha, _delta(alpha, g, 0, adjoint=False), 0, adjoint=True)
    d2 = _delta(beta, _delta(beta, g, 1, adjoint=False), 1, adjoint=True)
    direct = apply_G_circ(alpha, beta, g).interior(1)
    resid = d1.values + d2.values - direct.values
    return float(np.max(np.abs(resid)))


_WEIGHTS = {
    "U_alpha": lambda a, b, r, s: r ** (a + 0.5),
    "U_alphabeta": lambda a, b, r, s: r ** (a + 0.5) * s ** (b + 0.5),
    "V_alphabeta": lambda a, b, r, s: r ** (-2.0 * a) * s ** (-2.0 * b),
}


def conjugation_map(kind: str, alpha: float, beta: float, g: GridFunction2D,
                    inverse: bool = False) -> GridFunction2D:
    """Multiplication maps between the operator realizations.

    U_alpha scales by r^(a+1/2) (second variable untouched); U_alphabeta by
    r^(a+1/2) s^(b+1/2); V_alphabeta by r^(-2a) s^(-2b), which conjugates the
    weighted form at (a, b) to the one at (-a, -b).
    """
    if kind not in _WEIGHTS:
        raise ValueError(f"unknown conjugation kind {kind!r}")
    w = _WEIGHTS[kind](alpha, beta, g.r_nodes[:, None], g.s_nodes[None, :])
    if inverse:
        w = 1.0 / w
    return GridFunction2D(g.r_nodes, g.s_nodes, g.values * w)


def apply_radial_operator(alpha: float, tau: float, r_nodes, values):
    """1-d oscillator form -f'' + (a^2-1/4)/r^2 f + tau^2 r^2 f by central
    differences; returns (interior nodes, values)."""
    r_nodes = np.asarray(r_nodes, dtype=float)
    values = np.asarray(values)
    h = r_nodes[1] - r_nodes[0]
    if np.max(np.abs(np.diff(r_nodes) - h)) > 1e-9 * h:
        raise ValueError("r_nodes must be uniformly spaced")
    d2 = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    r = r_nodes[1:-1]
    out = -d2 + ((alpha**2 - 0.25) / r**2 + tau**2 * r**2) * values[1:-1]
    return r, out
