"""Reference profiles used by the verification suites and the tests.

The gaussian envelope r^(a+1/2) exp(-r^2/2) is distinguished: it has
closed-form scaled-Laguerre coefficients and is a fixed point of the
Liouville Hankel transform, so the product

    f(r, s) = r^(a+1/2) s^(b+1/2) exp(-(r^2+s^2)/2)

has fully explicit spectral data with squared norm Gamma(a+1) Gamma(b+1)/4.

Wave packets (gaussian-windowed cosines) are the round-trip test functions:
their spectral content concentrates near the carrier frequency, away from
the small-tau region where a truncated expansion converges slowly.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import make_interp_spline

from .diffop import GridFunction2D
from .gtransform import PlaneFunction
from .hankel import HalfLineFunction

__all__ = [
    "smooth_bump",
    "wave_packet",
    "power_gaussian_profile",
    "power_gaussian",
    "packet_plane",
    "bump_plane",
    "grid_plane",
]


def smooth_bump(center: float, width: float):
    """Infinitely smooth bump supported on [center-width, center+width],
    equal to 1 at the center."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        y = (x - center) / width
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - yi * yi))
        return out
    return fn


def wave_packet(center: float, width: float, freq: float):
    """Gaussian-windowed cosine exp(-((x-c)/w)^2) cos(k(x-c))."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - center) / width) ** 2) * np.cos(freq * (x - center))
    return fn


def power_gaussian_profile(alpha: float) -> HalfLineFunction:
    """The gaussian envelope r^(a+1/2) exp(-r^2/2) with its hints."""
    a = float(alpha)
    return HalfLineFunction(
        fn=lambda r: r ** (a + 0.5) * np.exp(-0.5 * r * r),
        decay="gaussian", rate=1.0, endpoint_exponent=a + 0.5)


def power_gaussian(alpha: float, beta: float) -> PlaneFunction:
    """Separated gaussian r^(a+1/2) s^(b+1/2) exp(-(r^2+s^2)/2)."""
    a, b = float(alpha), float(beta)
    return PlaneFunction(
        fn=lambda r, s: r ** (a + 0.5) * s ** (b + 0.5)
        * np.exp(-0.5 * (r * r + s * s)),
        profiles=(power_gaussian_profile(a), power_gaussian_profile(b)))


def _boxed(fr, fs, r_span, s_span) -> PlaneFunction:
    return PlaneFunction(fn=lambda r, s: fr(r) * fs(s),
                         support=(tuple(r_span), tuple(s_span)))


def packet_plane(r_center=2.0, r_width=0.6, r_freq=3.0,
                 s_center=3.2, s_width=0.9, s_freq=5.5,
                 window: float = 5.5) -> PlaneFunction:
    """Product of wave packets; the support box cuts the gaussian windows
    where they are below ~1e-13."""
    fr = wave_packet(r_center, r_width, r_freq)
    fs = wave_packet(s_center, s_width, s_freq)
    r_span = (max(r_center - window * r_width, 1e-8), r_center + window * r_width)
    s_span = (max(s_center - window * s_width, 1e-8), s_center + window * s_width)
    return _boxed(fr, fs, r_span, s_span)


def bump_plane(r_center=1.8, r_width=1.0, s_center=2.2, s_width=1.2) -> PlaneFunction:
    """Product of compactly supported smooth bumps."""
    fr = smooth_bump(r_center, r_width)
    fs = smooth_bump(s_center, s_width)
    return _boxed(fr, fs, (r_center - r_width, r_center + r_width),
                  (s_center - s_width, s_center + s_width))


def grid_plane(grid: GridFunction2D, support=None) -> PlaneFunction:
    """The exact not-a-knot bicubic spline through a grid's values, zero off
    the grid box.  support defaults to that box.

    The spline is evaluated only on an outer product, r of shape (m, 1) and
    s of shape (1, n), which is how every transform samples f: the r-spline,
    fitted once, gives the rows at r, and a not-a-knot fit along s through
    those rows gives the values at s.  Fitting separably solves the tensor
    spline's equations exactly.
    """
    r_nodes, s_nodes = grid.r_nodes, grid.s_nodes
    r_spline = make_interp_spline(r_nodes, grid.values, k=3, axis=0)

    def fn(r, s):
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        if r.ndim != 2 or r.shape[1] != 1 or s.ndim != 2 or s.shape[0] != 1:
            raise ValueError("a grid plane is evaluated on an outer product: r "
                             f"of shape (m, 1) and s of shape (1, n), got r "
                             f"{r.shape} and s {s.shape}")
        r, s = r[:, 0], s[0]
        r_in = (r >= r_nodes[0]) & (r <= r_nodes[-1])
        s_in = (s >= s_nodes[0]) & (s <= s_nodes[-1])
        out = np.zeros((r.size, s.size))
        if r_in.any() and s_in.any():
            rows = r_spline(r[r_in])                           # (m_in, len(s_nodes))
            out[np.ix_(r_in, s_in)] = make_interp_spline(
                s_nodes, rows, k=3, axis=1)(s[s_in])
        return out

    if support is None:
        support = ((float(r_nodes[0]), float(r_nodes[-1])),
                   (float(s_nodes[0]), float(s_nodes[-1])))
    return PlaneFunction(fn=fn, support=support)
