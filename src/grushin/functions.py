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
from scipy.interpolate import BSpline, make_interp_spline

from .diffop import GridFunction2D
from .gtransform import PlaneFunction
from .quadrature import HalfLineFunction, panel_width

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
    """The gaussian envelope r^(a+1/2) exp(-r^2/2) with its hints; its width is the
    envelope's own cap at the cut u = 8 of its rules, 3.5/8, so declaring it leaves
    every rule cut by the decay as it was."""
    a = float(alpha)
    return HalfLineFunction(
        fn=lambda r: r ** (a + 0.5) * np.exp(-0.5 * r * r),
        decay="gaussian", rate=1.0, endpoint_exponent=a + 0.5, width=3.5 / 8.0)


def power_gaussian(alpha: float, beta: float) -> PlaneFunction:
    """Separated gaussian r^(a+1/2) s^(b+1/2) exp(-(r^2+s^2)/2)."""
    a, b = float(alpha), float(beta)
    return PlaneFunction(
        fn=lambda r, s: r ** (a + 0.5) * s ** (b + 0.5)
        * np.exp(-0.5 * (r * r + s * s)),
        profiles=(power_gaussian_profile(a), power_gaussian_profile(b)))


def packet_plane(r_center=2.0, r_width=0.6, r_freq=3.0,
                 s_center=3.2, s_width=0.9, s_freq=5.5,
                 window: float = 5.5) -> PlaneFunction:
    """Product of wave packets, each declared as a profile on (0, center + window*width),
    smooth at the origin (endpoint_exponent 0), resolved on panels no wider than the
    panel law's 5 pi/freq or the width: the box cuts the windows at exp(-window^2),
    7.3e-14, above the centers and nothing below them."""
    def profile(center, width, freq):
        return HalfLineFunction(wave_packet(center, width, freq), (0.0, center + window * width),
                                endpoint_exponent=0.0, width=min(panel_width(freq), width))

    fr, fs = profile(r_center, r_width, r_freq), profile(s_center, s_width, s_freq)
    return PlaneFunction(fn=lambda r, s: fr(r) * fs(s), profiles=(fr, fs))


def bump_plane(r_center=1.8, r_width=1.0, s_center=2.2, s_width=1.2) -> PlaneFunction:
    """Product of compactly supported smooth bumps, each declared on its support with
    panels of an eighth of its half-width: its derivatives blow up toward the edges."""
    def profile(center, width):
        return HalfLineFunction(smooth_bump(center, width), (center - width, center + width),
                                width=width / 8.0)

    fr, fs = profile(r_center, r_width), profile(s_center, s_width)
    return PlaneFunction(fn=lambda r, s: fr(r) * fs(s), profiles=(fr, fs))


def grid_plane(grid: GridFunction2D, support=None) -> PlaneFunction:
    """The exact not-a-knot bicubic spline through a grid's values, zero off
    the grid box.  support defaults to that box.  Each axis is declared on its
    span of the support with panels of 8 grid steps: two Gauss nodes a spline
    cell, and a 2-point Gauss rule integrates a cubic exactly.

    The spline is evaluated only on an outer product, r of shape (m, 1) and
    s of shape (1, n), which is how every transform samples f.  Both axes are
    fitted once: the r-spline through the grid's columns, then a not-a-knot
    fit along s through its coefficients, which solves the tensor spline's
    equations exactly.  A call is two B-spline evaluations: in s, to the
    r-spline's coefficients at s, and then in r.
    """
    r_nodes, s_nodes = grid.r_nodes, grid.s_nodes
    r_spline = make_interp_spline(r_nodes, grid.values, k=3, axis=0)
    s_fit = make_interp_spline(s_nodes, r_spline.c, k=3, axis=1)

    def fn(r, s):
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        if r.ndim != 2 or r.shape[1] != 1 or s.ndim != 2 or s.shape[0] != 1:
            raise ValueError("a grid plane is evaluated on an outer product: r "
                             f"of shape (m, 1) and s of shape (1, n), got r "
                             f"{r.shape} and s {s.shape}")
        r, s = r[:, 0], s[0]
        # the spline at the points clamped into the box, zeroed out of it
        coefs = s_fit(np.clip(s, s_nodes[0], s_nodes[-1]))  # r-spline coefficients at s
        values = BSpline(r_spline.t, coefs, 3)(np.clip(r, r_nodes[0], r_nodes[-1]))
        values *= ((r >= r_nodes[0]) & (r <= r_nodes[-1]))[:, None] \
            & ((s >= s_nodes[0]) & (s <= s_nodes[-1]))[None, :]
        return values

    if support is None:
        support = ((float(r_nodes[0]), float(r_nodes[-1])),
                   (float(s_nodes[0]), float(s_nodes[-1])))
    # the spline has no factor of its own on an axis: the profiles carry only hints
    hints = [HalfLineFunction(fn=lambda x: x, support=tuple(span), width=8.0 * h)
             for span, h in zip(support, (grid.h_r, grid.h_s))]
    return PlaneFunction(fn=fn, profiles=tuple(hints))
