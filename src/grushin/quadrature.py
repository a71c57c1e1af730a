"""Composite Gauss-Legendre quadrature over (0, inf) and finite intervals.

Rules are built from a truncation policy that knows how the integrand decays
(gaussian, exponential, or oscillatory with an exponential envelope) and, when
relevant, how fast it oscillates.  Panels double geometrically toward zero so
that integrable endpoint singularities are resolved; a known power-law factor
u^gamma at the origin can additionally be absorbed exactly by a Gauss-Jacobi
first panel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

__all__ = [
    "TruncationPolicy",
    "HalfLineRule",
    "QuadratureError",
    "build_rule",
    "build_finite_rule",
    "truncation_point",
    "integrate",
]

# number of geometric octaves refining toward the origin
_ZERO_LEVELS = 20
# panels are narrow enough that (local frequency) * (panel width) <= this;
# an 8-point panel then integrates the oscillation to ~1e-10 relative
_PHASE_PER_PANEL = 3.5


class QuadratureError(RuntimeError):
    """Rule construction or evaluation failed."""


@dataclass(frozen=True)
class TruncationPolicy:
    """How to truncate and resolve an integral over (0, inf).

    decay_hint describes the integrand envelope far out:
      "gaussian"               ~ exp(-(rate*u)^2/2)
      "exponential"            ~ exp(-rate*u)
      "algebraic_oscillatory"  oscillation at frequency <= freq_bound under an
                               exponential envelope exp(-rate*u)
    endpoint_exponent gamma > -1 declares a known u^gamma factor at u = 0.
    """

    abs_tol: float = 1e-12
    max_panels: int = 8192
    decay_hint: str = "gaussian"
    rate: float = 1.0
    freq_bound: float = 0.0
    endpoint_exponent: float = 0.0

    def __post_init__(self):
        if self.abs_tol <= 0.0:
            raise ValueError("abs_tol must be > 0")
        if self.decay_hint not in ("gaussian", "exponential", "algebraic_oscillatory"):
            raise ValueError(f"unknown decay hint {self.decay_hint!r}")
        if self.rate <= 0.0:
            raise ValueError("rate must be > 0")
        if self.freq_bound < 0.0:
            raise ValueError("freq_bound must be >= 0")
        if self.endpoint_exponent <= -1.0:
            raise ValueError("endpoint_exponent must be > -1")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


@dataclass(frozen=True)
class HalfLineRule:
    """Quadrature nodes/weights on (0, upper_cut)."""

    nodes: np.ndarray
    weights: np.ndarray
    upper_cut: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if self.upper_cut < self.nodes[-1]:
            raise ValueError("upper_cut must be >= the largest node")

    def __len__(self):
        return len(self.nodes)


def truncation_point(policy: TruncationPolicy) -> float:
    """Upper cut U of the rules built from policy (without building one)."""
    # smallest integer U with envelope(U) below abs_tol; the ceil adds margin
    # and keeps rules at different scales from being exact rescalings of each
    # other, so cross-scale identities are genuine checks
    load = np.log(1.0 / policy.abs_tol)
    if policy.decay_hint == "gaussian":
        u = np.sqrt(2.0 * load) / policy.rate
    else:
        u = load / policy.rate
    return float(np.ceil(max(u, 1.0)))


def _edges(lo: float, hi: float, cap: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Panel edges on [lo, hi].  From lo == 0 the interval is first cut into
    geometric octaves toward 0; each piece is then split evenly into the
    fewest panels no wider than cap(upper end of the piece)."""
    if lo == 0.0:
        base = np.concatenate([[0.0], hi * 2.0 ** (-np.arange(_ZERO_LEVELS, -1, -1.0))])
    else:
        base = np.array([lo, hi])
    counts = np.maximum(1, np.ceil(np.diff(base) / cap(base[1:])).astype(int))
    return np.concatenate([base[:1]] + [np.linspace(a, b, k + 1)[1:]
                                        for a, b, k in zip(base[:-1], base[1:], counts)])


@functools.lru_cache(maxsize=64)
def _unit_nodes(points: int, gamma: float):
    """Read-only Gauss nodes and weights on [-1, 1] for the weight (1+x)^gamma:
    Gauss-Legendre at gamma = 0, Gauss-Jacobi (0, gamma) otherwise."""
    x, w = leggauss(points) if gamma == 0.0 else roots_jacobi(points, 0.0, gamma)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _assemble(edges: np.ndarray, points: int, upper: float,
              endpoint_exponent: float = 0.0) -> HalfLineRule:
    """Map one Gauss-Legendre node set onto every panel at once."""
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    x, w = _unit_nodes(points, 0.0)
    nodes, weights = half * x + 0.5 * (a + b), half * w
    if endpoint_exponent != 0.0 and edges[0] == 0.0:
        # Gauss-Jacobi first panel (0, edges[1]) absorbing the u^gamma factor
        # exactly; weights are folded back so the rule applies to the plain
        # integrand
        t, wj = _unit_nodes(points, endpoint_exponent)
        h = half[0, 0]  # a scalar: numpy's array power can round differently
        nodes[0] = h * (t + 1.0)
        weights[0] = h ** (endpoint_exponent + 1.0) * wj * nodes[0] ** (-endpoint_exponent)
    return HalfLineRule(nodes.ravel(), weights.ravel(), upper)


def build_rule(policy: TruncationPolicy, points_per_panel: int = 8) -> HalfLineRule:
    """Composite Gauss-Legendre rule on (0, U) honoring a truncation policy."""
    if points_per_panel < 4:
        raise ValueError("points_per_panel must be >= 4")
    upper = truncation_point(policy)

    def cap(top):
        # resolve the decay envelope: local log-derivative is rate^2*u for a
        # gaussian, rate otherwise; and the oscillation, if any
        local = policy.rate**2 * top if policy.decay_hint == "gaussian" else policy.rate
        width = _PHASE_PER_PANEL / local
        if policy.freq_bound > 0.0:
            width = np.minimum(width, np.pi / (2.0 * policy.freq_bound))
        return width

    edges = _edges(0.0, upper, cap)
    if len(edges) - 1 > policy.max_panels:
        raise QuadratureError(
            f"rule needs {len(edges) - 1} panels but the policy allows "
            f"max_panels={policy.max_panels} (decay_hint={policy.decay_hint!r}, "
            f"rate={policy.rate}, freq_bound={policy.freq_bound}, "
            f"abs_tol={policy.abs_tol}); loosen abs_tol or raise max_panels")
    return _assemble(edges, points_per_panel, upper, policy.endpoint_exponent)


def build_finite_rule(a: float, b: float, max_width: float,
                      points_per_panel: int = 8,
                      endpoint_exponent: float = 0.0) -> HalfLineRule:
    """Uniform composite Gauss-Legendre rule on a finite interval [a, b].

    If a == 0 the panels refine geometrically toward the origin (and a
    declared endpoint exponent is absorbed on the first panel).
    """
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    if max_width <= 0.0:
        raise ValueError("max_width must be > 0")
    return _assemble(_edges(a, b, lambda top: max_width), points_per_panel, b,
                     endpoint_exponent)


def integrate(f: Callable[[np.ndarray], np.ndarray] | np.ndarray,
              rule: HalfLineRule):
    """Sum w_i f(x_i) over the rule; f is a vectorized callable or an array
    of values at rule.nodes."""
    values = np.asarray(f(rule.nodes) if callable(f) else f)
    if values.shape != rule.nodes.shape:
        raise ValueError(
            f"integrand produced shape {values.shape}, expected {rule.nodes.shape}")
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"integrand is not finite at node {rule.nodes[i]!r} "
            f"(index {i}, value {values[i]!r})")
    total = np.dot(rule.weights, values)
    return complex(total) if np.iscomplexobj(values) else float(total)
