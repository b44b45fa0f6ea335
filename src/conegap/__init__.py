"""Contraction certificates and spectral-gap bounds on the complexified positive cone.

The library decides whether a complex matrix (or a sampled integral kernel)
uniformly contracts the cone of vectors with pairwise nonnegative Re(x_i
conj(x_j)), turns the contraction parameter into quantitative convergence
rates, and certifies the leading eigen-triple with a-posteriori error bounds.
"""

from . import certify, cone, core2x2, fileio, kernel, spectral, variational
from .certify import *
from .cone import *
from .core2x2 import *
from .fileio import *
from .kernel import *
from .spectral import *
from .variational import *

__version__ = "0.1.0"

# each layer's __all__ is the only list of its public names, and no two layers
# share one (tests/test_api.py); cli stays unimported
__all__ = ["__version__", *(
    name for layer in (core2x2, cone, certify, spectral, variational, kernel, fileio) for name in layer.__all__)]
