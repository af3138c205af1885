"""LAPACK routines from the OpenBLAS that numpy's wheels bundle.

numpy's linalg extension links scipy-openblas64, whose symbols carry the
prefix `scipy_` and the suffix `_64_` and take 64-bit integers.  `bind`
looks a routine up through the extension's handle and declares its
arguments for `ctypes`.  Arguments are passed by reference: integers as
`int64` values, arrays of doubles or of 64-bit integers as `dptr` or `iptr`
of their (contiguous, writable) memory, which points at its first element.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

# private to the package: nothing here joins the package namespace
__all__: list[str] = []

INT = ctypes.POINTER(ctypes.c_int64)
DOUBLES = ctypes.POINTER(ctypes.c_double)
int64 = ctypes.c_int64
dptr = ctypes.c_double.from_buffer
iptr = ctypes.c_int64.from_buffer

_LIBRARY = ctypes.CDLL(_umath_linalg.__file__)


def bind(name: str, *argtypes, chars: int = 1):
    """LAPACK routine `name` whose first `chars` arguments are one character each.

    `argtypes` declares the arguments after those characters.  Each
    character argument also gets its Fortran length, a trailing size_t.
    """
    try:
        routine = getattr(_LIBRARY, f"scipy_{name}_64_")
    except AttributeError:
        raise ImportError(
            f"difflaw needs LAPACK {name} from the OpenBLAS that numpy's wheels "
            f"bundle (scipy-openblas64, numpy>=2.4 from PyPI); numpy {np.__version__} "
            f"at {np.__file__} does not export scipy_{name}_64_"
        ) from None
    routine.argtypes = (
        *(ctypes.c_char_p,) * chars, *argtypes, *(ctypes.c_size_t,) * chars
    )
    routine.restype = None
    return routine
