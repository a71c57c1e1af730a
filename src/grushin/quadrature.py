"""Composite Gauss-Legendre quadrature over (0, inf) and finite intervals.

Rules are built from a truncation policy that knows how the integrand decays
(gaussian or exponential) and, when relevant, how fast it oscillates.  Panels double geometrically toward zero so
that integrable endpoint singularities are resolved; a known power-law factor
u^gamma at the origin can additionally be absorbed exactly by a Gauss-Jacobi
first panel, which for an integrand known to be u^gamma times a smooth
function makes the octaves unnecessary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from ._util import count_value, real_value, span_value

__all__ = [
    "TruncationPolicy",
    "HalfLineRule",
    "HalfLineFunction",
    "QuadratureError",
    "build_rule",
    "build_finite_rule",
    "integrate",
]

# number of geometric octaves refining toward the origin
_ZERO_LEVELS = 20
# panels are narrow enough that (local frequency) * (panel width) <= this;
# a 16-point panel then integrates exp(-3.5 u) or cos(3.5 u + c) over (0, 1) to 3e-16
_PHASE_PER_PANEL = 3.5
# the panel law of every oscillatory rule: _PANEL_POINTS Gauss points a panel of phase
# _PANEL_PHASE at the top wavenumber.  Gauss-Legendre on cos(w u + c) over (0, 1) errs
# by 7e-16, 4e-16 and 1e-14 with 16 points at w = 4, 5 and 6 pi
_PANEL_POINTS, _PANEL_PHASE = 16, 5.0 * np.pi
# panel cap of every finite rule, sized by memory, not by accuracy: 2^20
# panels of 16 points are 16.8M nodes, whose nodes and weights take 268 MB
_MAX_FINITE_PANELS = 1 << 20
# the envelopes that a truncation policy or a profile may declare
_DECAY_HINTS = ("gaussian", "exponential")


class QuadratureError(RuntimeError):
    """Rule construction or evaluation failed."""


def panel_width(freq) -> float:
    """Width of a panel of the panel law at wavenumber freq: phase _PANEL_PHASE,
    unbounded at freq 0."""
    return _PANEL_PHASE / freq if freq > 0.0 else np.inf


@dataclass(frozen=True)
class TruncationPolicy:
    """How to truncate and resolve an integral over (0, inf).

    decay_hint describes the integrand envelope far out:
      "gaussian"     ~ exp(-(rate*u)^2/2)
      "exponential"  ~ exp(-rate*u)
    freq_bound > 0 bounds the integrand's wavenumber under every hint, and
    narrows every panel to _PANEL_PHASE/freq_bound; endpoint_exponent
    gamma > -1 declares a known u^gamma factor at u = 0.
    """

    abs_tol: float = 1e-12
    max_panels: int = 8192
    decay_hint: str = "gaussian"
    rate: float = 1.0
    freq_bound: float = 0.0
    endpoint_exponent: float = 0.0

    def __post_init__(self):
        if self.decay_hint not in _DECAY_HINTS:
            raise ValueError(f"unknown decay hint {self.decay_hint!r}")
        real_value(self.abs_tol, "abs_tol")
        real_value(self.rate, "rate")
        real_value(self.freq_bound, "freq_bound", closed=True)
        real_value(self.endpoint_exponent, "endpoint_exponent", -1.0)
        count_value(self.max_panels, "max_panels", 1)


@dataclass(frozen=True)
class HalfLineRule:
    """Quadrature nodes/weights on (0, upper_cut)."""

    nodes: np.ndarray
    weights: np.ndarray
    upper_cut: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        real_value(self.nodes, "nodes", closed=True)
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        real_value(self.weights, "weights")
        real_value(self.upper_cut, "upper_cut", self.nodes[-1], closed=True)

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class HalfLineFunction:
    """Evaluable profile on (0, inf) with integration hints.

    fn must accept numpy arrays.  support, if given, is a box (lo, hi) with
    finite ends, 0 <= lo < hi, out of which f vanishes; when it is None the
    decay hint (one of _DECAY_HINTS) and rate choose the truncation; both are
    checked with or without a support.  endpoint_exponent declares the law at
    the origin: a float gamma > -1 says that f is exactly u^gamma times a
    smooth function, so a rule from 0 absorbs u^gamma in its first panel and
    needs no geometric octaves; None declares nothing, and such rules keep
    their octaves.  width is the widest panel on which _PANEL_POINTS Gauss
    points resolve f alone, the only cap f puts on its panels; a profile known
    only by its support gets a 64th of it, one with neither only its envelope's.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: Optional[Tuple[float, float]] = None
    decay: str = "gaussian"
    rate: float = 1.0
    endpoint_exponent: Optional[float] = None
    width: Optional[float] = None

    def __post_init__(self):
        TruncationPolicy(decay_hint=self.decay, rate=self.rate)  # checks the hint and rate
        if self.support is not None:
            span_value(self.support, "support")
        if self.endpoint_exponent is not None:
            real_value(self.endpoint_exponent, "endpoint_exponent", -1.0)
        if self.width is not None:
            real_value(self.width, "width")
        elif self.support is not None:
            object.__setattr__(self, "width", (self.support[1] - self.support[0]) / 64.0)

    def __call__(self, u):
        return self.fn(u)


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


@functools.lru_cache(maxsize=64)
def _unit_nodes(points: int, gamma: float):
    """Read-only Gauss nodes and weights on [-1, 1] for the weight (1+x)^gamma:
    Gauss-Legendre at gamma = 0, Gauss-Jacobi (0, gamma) otherwise."""
    x, w = leggauss(points) if gamma == 0.0 else roots_jacobi(points, 0.0, gamma)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _envelope_cap(policy: TruncationPolicy, width):
    """top -> the panel width of a piece ending at top: width, narrowed to
    resolve the decay envelope up to top, whose local log-derivative is
    rate^2*top for a gaussian, rate otherwise."""

    def cap(top):
        local = policy.rate**2 * top if policy.decay_hint == "gaussian" else policy.rate
        return np.minimum(width, _PHASE_PER_PANEL / local)

    return cap


def _composite_rule(a, b, width, points, endpoint_exponent, max_panels,
                    policy=None, octaves=True) -> HalfLineRule:
    """Gauss rule of `points` nodes per panel on [a, b].  From a == 0 the
    interval is first cut into geometric octaves toward 0 (unless octaves is
    false), and the first panel absorbs u^endpoint_exponent exactly; each
    piece is then split evenly into the fewest panels no wider than
    width(top of the piece), and more than max_panels of them raise, naming
    policy, before any edge is built."""
    a = real_value(a, "a", closed=True)
    b = real_value(b, "b", a)
    points = count_value(points, "points_per_panel", 4)
    endpoint_exponent = real_value(endpoint_exponent, "endpoint_exponent", -1.0)
    if a == 0.0 and octaves:
        base = np.concatenate([[0.0], b * 2.0 ** (-np.arange(_ZERO_LEVELS, -1, -1.0))])
    else:
        base = np.array([a, b])
    counts = np.maximum(1.0, np.ceil(np.diff(base) / width(base[1:])))
    if not counts.sum() <= max_panels:
        source, fix = ((policy, "loosen abs_tol or raise max_panels") if policy is not None
                       else (f"[{a!r}, {b!r}]", "widen the panels or narrow the interval"))
        raise QuadratureError(f"rule needs {counts.sum():.0f} panels, more than the cap of "
                              f"{max_panels}, for {source}; {fix}")
    # every piece's inner edges in one pass, as np.linspace(lo, hi, k + 1)[1:] forms
    # them bit for bit: lo + j (hi - lo)/k for j = 1 .. k, the last set to hi
    k = counts.astype(int)
    ends = np.cumsum(k)
    ramp = np.arange(1, ends[-1] + 1) - np.repeat(ends - k, k)
    edges = np.empty(ends[-1] + 1)
    edges[0] = base[0]
    edges[1:] = np.repeat(np.diff(base) / k, k) * ramp + np.repeat(base[:-1], k)
    edges[ends] = base[1:]
    # one Gauss node set mapped onto every panel at once
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    x, w = _unit_nodes(points, 0.0)
    nodes, weights = half * x + 0.5 * (lo + hi), half * w
    if endpoint_exponent != 0.0 and a == 0.0:
        # Gauss-Jacobi first panel (0, edges[1]) absorbing the u^gamma factor
        # exactly; weights are folded back so the rule applies to the plain
        # integrand
        t, wj = _unit_nodes(points, endpoint_exponent)
        h = half[0, 0]  # a scalar: numpy's array power can round differently
        nodes[0] = h * (t + 1.0)
        weights[0] = h ** (endpoint_exponent + 1.0) * wj * nodes[0] ** (-endpoint_exponent)
    return HalfLineRule(nodes.ravel(), weights.ravel(), b)


def build_rule(policy: TruncationPolicy) -> HalfLineRule:
    """Composite Gauss-Legendre rule on (0, U) honoring a truncation policy:
    _PANEL_POINTS points on panels of phase _PANEL_PHASE at the wavenumber
    bound, if any, narrowed to resolve the decay envelope."""
    return _composite_rule(0.0, truncation_point(policy),
                           _envelope_cap(policy, panel_width(policy.freq_bound)),
                           _PANEL_POINTS, policy.endpoint_exponent, policy.max_panels, policy)


def build_finite_rule(a: float, b: float, max_width: float,
                      points_per_panel: int = 8,
                      endpoint_exponent: float = 0.0) -> HalfLineRule:
    """Composite Gauss-Legendre rule of panels no wider than max_width on a
    finite [a, b]; from a == 0 they refine geometrically toward the origin,
    the first absorbing a declared endpoint exponent."""
    max_width = real_value(max_width, "max_width")
    return _composite_rule(a, b, lambda top: max_width, points_per_panel,
                           endpoint_exponent, _MAX_FINITE_PANELS)


def profile_rule(f: HalfLineFunction, width: float, extra_exponent: float = 0.0,
                 reach: float = np.inf) -> HalfLineRule:
    """Rule of _PANEL_POINTS Gauss points on panels no wider than width or f.width
    over f's support, else (0, min(cut of f's decay, reach)); from 0 its first panel
    absorbs u^(f.endpoint_exponent + extra_exponent), extra_exponent being the
    kernel's.  When f declares its endpoint law, a rule from 0 has no geometric
    octaves, so the caller must pass the kernel's whole power, not only its
    singular part.  A rule cut by f's decay also narrows the panels of each
    piece (each octave, or the one even split) to resolve f's envelope at the
    piece's top, so width may be infinite there."""
    declared = f.endpoint_exponent is not None
    width = width if f.width is None else min(width, f.width)
    if f.support is not None:
        (lo, hi), cap = f.support, lambda top: width
    else:
        policy = TruncationPolicy(decay_hint=f.decay, rate=f.rate)
        lo, hi = 0.0, min(truncation_point(policy), reach)
        cap = _envelope_cap(policy, width)
    real_value(cap(hi), "width")  # NaN, <= 0, or infinite with no envelope to cap it
    gamma = (f.endpoint_exponent or 0.0) + extra_exponent if lo == 0.0 else 0.0
    return _composite_rule(lo, hi, cap, _PANEL_POINTS, gamma, _MAX_FINITE_PANELS,
                           octaves=not declared)


def rule_for_function(f: HalfLineFunction, freq: float = 0.0,
                      extra_exponent: float = 0.0) -> HalfLineRule:
    """profile_rule's rule for f against a kernel of wavenumber <= freq and power
    u^extra_exponent at the origin: panels of panel_width(freq), capped by f.width."""
    return profile_rule(f, panel_width(real_value(freq, "freq", closed=True)), extra_exponent)


def _sampled_values(f, rule, default_rule):
    """(values, rule) for f on the nodes of rule: f is either an array already
    sampled on an explicit rule, or a profile (a bare callable declares nothing)
    evaluated on rule (default_rule(profile) when rule is None)."""
    if isinstance(f, np.ndarray):
        if rule is None:
            raise ValueError("passing sampled values requires an explicit rule")
        if f.shape != rule.nodes.shape:
            raise ValueError("sampled values must match the rule nodes")
        return f, rule
    if not isinstance(f, HalfLineFunction):
        if not callable(f):
            raise TypeError("expected a callable or HalfLineFunction")
        f = HalfLineFunction(f)
    if rule is None:
        rule = default_rule(f)
    return np.asarray(f(rule.nodes)), rule


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
