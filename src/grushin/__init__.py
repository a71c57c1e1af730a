"""Spectral toolkit for bi-radial Grushin-type operators on the quarter plane.

Layers, bottom up: special functions (Bessel J/I, Laguerre systems),
half-line quadrature, the two Hankel transform forms, scaled Laguerre
analysis, the combined quarter-plane transform with its Plancherel theory
and functional calculus, the closed-form heat kernel, finite-difference
oracles for the differential expressions, and text persistence plus a CLI.
"""

from .specfun import (LaguerreIndex, log_gamma, bessel_j, bessel_i, bessel_j_normalized,
                      bessel_i_normalized, laguerre_poly, laguerre_fn, laguerre_fn_seq,
                      laguerre_eigenvalue)
from .quadrature import (TruncationPolicy, HalfLineRule, QuadratureError,
                         build_rule, build_finite_rule, integrate)
from .hankel import (HalfLineFunction, hankel_modified, hankel_liouville,
                     hankel_modified_inverse, hankel_liouville_inverse)
from .laguerre import (LaguerreCoeffs, laguerre_analyze, laguerre_synthesize,
                       gaussian_coefficient)
from .gtransform import (TypePair, PlaneFunction, SpectralData, default_tau_rule,
                         spectral_symbol, g_forward, g_forward_hat, g_inverse,
                         g_inverse_grid, plancherel_norm, functional_calculus)
from .heat import (HeatParams, heat_kernel, heat_kernel_half, heat_apply,
                   heat_apply_grid, heat_kernel_weighted, kernel_at_origin,
                   diagonal_profile, mehler_kernel)
from .diffop import (GridFunction2D, grid_from_function, apply_G_circ,
                     apply_G_weighted, delta_factorization_residual,
                     conjugation_map, apply_radial_operator)
from . import _util

_util.pin_numpy_blas()  # the library's workers own the cores

__version__ = "0.1.0"
