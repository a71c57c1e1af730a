"""The bicubic spline through a grid file's values (functions.grid_plane), as
the CLI reads it."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from grushin import io as gio
from grushin.cli import _plane_from_grid
from grushin.diffop import GridFunction2D
from grushin.functions import grid_plane, wave_packet
from grushin.gtransform import PlaneFunction, TypePair, g_forward

FR = wave_packet(2.0, 0.6, 3.0)
FS = wave_packet(3.2, 0.9, 5.5)


@pytest.fixture(scope="module")
def packet_grid():
    """The README's 265 x 408 packet grid."""
    r = np.arange(0.05, 5.35, 0.02)
    s = np.arange(0.05, 8.2, 0.02)
    return GridFunction2D(r, s, FR(r)[:, None] * FS(s)[None, :])


@pytest.fixture(scope="module")
def forward_samples(packet_grid, tmp_path_factory):
    """The grid file's plane as the CLI builds it, and the (r, s) rule nodes
    at which g_forward samples it."""
    path = tmp_path_factory.mktemp("grid") / "f.csv"
    gio.write_grid(path, packet_grid, alpha=0.4, beta=0.25)
    f = _plane_from_grid(path, TypePair(0.4, 0.25))
    seen = []
    recorder = PlaneFunction(fn=lambda r, s: seen.append((r, s)) or f(r, s),
                             support=f.support)
    g_forward(TypePair(0.4, 0.25), recorder, n_max=96)
    (rn, sn), = seen
    return f, rn, sn


def test_matches_the_exact_bicubic_spline_at_the_rule_nodes(packet_grid, forward_samples):
    f, rn, sn = forward_samples
    spline = RectBivariateSpline(packet_grid.r_nodes, packet_grid.s_nodes,
                                 packet_grid.values, kx=3, ky=3, s=0)
    want = spline(rn[:, 0], sn[0])
    got = f(rn, sn)
    assert got.shape == (rn.size, sn.size)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_error_against_the_analytic_packet(forward_samples):
    f, rn, sn = forward_samples
    want = FR(rn) * FS(sn)
    assert np.max(np.abs(f(rn, sn) - want)) < 1e-6 * np.max(np.abs(want))


def test_interpolates_the_grid_values(packet_grid):
    f = grid_plane(packet_grid)
    got = f(packet_grid.r_nodes[:, None], packet_grid.s_nodes[None, :])
    scale = np.max(np.abs(packet_grid.values))
    assert np.max(np.abs(got - packet_grid.values)) < 1e-14 * scale


def test_support_defaults_to_the_grid_box(packet_grid):
    assert grid_plane(packet_grid).support == ((0.05, packet_grid.r_nodes[-1]),
                                               (0.05, packet_grid.s_nodes[-1]))
    box = ((1.0, 3.0), (2.0, 4.0))
    assert grid_plane(packet_grid, support=box).support == box


def test_zero_off_the_grid(packet_grid):
    f = grid_plane(packet_grid)
    r0, r1 = packet_grid.r_nodes[[0, -1]]
    s0, s1 = packet_grid.s_nodes[[0, -1]]
    r = np.array([0.01, r0, 2.0, r1, r1 + 0.01, 9.0])
    s = np.array([0.02, s0, 3.2, s1, s1 + 1e-9])
    got = f(r[:, None], s[None, :])
    r_in = np.array([False, True, True, True, False, False])
    s_in = np.array([False, True, True, True, False])
    assert np.all(got[~r_in] == 0.0) and np.all(got[:, ~s_in] == 0.0)
    spline = RectBivariateSpline(packet_grid.r_nodes, packet_grid.s_nodes,
                                 packet_grid.values, kx=3, ky=3, s=0)
    want = spline(r[r_in], s[s_in])
    assert np.max(np.abs(got[np.ix_(r_in, s_in)] - want)) < 1e-14
    assert got[2, 2] == pytest.approx(FR(2.0) * FS(3.2), abs=1e-6)


def test_all_off_the_grid_is_zero(packet_grid):
    got = grid_plane(packet_grid)(np.array([[20.0], [30.0]]), np.array([[1.0, 2.0, 3.0]]))
    assert got.shape == (2, 3) and np.all(got == 0.0)


@pytest.mark.parametrize("r_shape, s_shape", [
    ((4,), (5,)),            # scattered points
    ((4, 5), (4, 5)),        # a full mesh
    ((1, 5), (4, 1)),        # the axes swapped
    ((4, 1, 1), (1, 5)),
    ((), ()),                # one point
])
def test_rejects_anything_but_an_outer_product(packet_grid, r_shape, s_shape):
    f = grid_plane(packet_grid)
    with pytest.raises(ValueError) as info:
        f(np.full(r_shape, 2.0), np.full(s_shape, 3.0))
    assert str(r_shape) in str(info.value) and str(s_shape) in str(info.value)
