"""Identification of state-dependent diffusion laws from boundary trace data.

The package recovers a coefficient a(u) from overspecified boundary
measurements along a curve by recasting the problem as a linear operator
equation for the antiderivative of a and solving it with Tikhonov
regularization.  It ships the forward-operator assembly, the regularized
solver with a-priori and discrepancy-based parameter choice, a discrete
Hilbert-scale instrument for spectral verification, and a convergence-rate
study driver with CSV/plot-data output.

The package namespace is the union of the modules' `__all__` lists.
"""

__version__ = "0.1.0"

from . import exceptions, forward, hilbert_scale, reference, splines, study, tikhonov
from .exceptions import *
from .forward import *
from .hilbert_scale import *
from .reference import *
from .splines import *
from .study import *
from .tikhonov import *

__all__ = ["__version__"] + [
    name
    for module in (splines, forward, hilbert_scale, tikhonov, study, reference, exceptions)
    for name in module.__all__
]
