"""Spectral toolkit for bi-radial Grushin-type operators on the quarter plane.

Layers, bottom up: special functions (Bessel J/I, Laguerre systems),
half-line quadrature, the two Hankel transform forms, scaled Laguerre
analysis, the combined quarter-plane transform with its Plancherel theory
and functional calculus, the closed-form heat kernel, finite-difference
oracles for the differential expressions, and text persistence plus a CLI.
"""

# the package's API is the union of these modules' __all__
from .specfun import *
from .quadrature import *
from .hankel import *
from .laguerre import *
from .gtransform import *
from .heat import *
from .diffop import *
from . import _util

_util.pin_numpy_blas()  # the library's workers own the cores

__version__ = "0.1.0"
