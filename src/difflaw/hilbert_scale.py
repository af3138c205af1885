"""The Hilbert scale that the Tikhonov penalty generates, on the solver's grid.

The solver penalizes ||A''||^2 + ||A||^2 = d^T (K + P) d in the B-spline
coefficients d of the antiderivative A (see `difflaw.tikhonov`); P is the
exact L2 Gram matrix of A, so d^T P d = ||A||^2.  The generalized
eigenproblem

    (K + P) v = lambda P v,   v P-orthonormal,

defines the discrete scale on the same vectors d: fractional powers act as
lambda^(t/4) on the eigen-coefficients c = V^T P d, and the shifted-scale
norm of index s weights them by lambda^((s+1)/2).  Index -1 is therefore
the exact L2 norm of A, and the square of index 1 the penalty
||A''||^2 + ||A||^2.  A(u_min) = 0 is built into the basis, so every d is
admissible.

Both matrices are bands of half-width 2 built from the solver's own rows:
K + P is the solver's band, and P is the Gram band of its P rows.  One
LAPACK dsbgvd call (a split Cholesky reduction of the banded pencil to
tridiagonal form, then divide and conquer) gives the P-orthonormal
eigenvectors without forming a dense matrix.  Its eigenvalues carry an
absolute error of order eps ||K|| / ||P||, which puts lambda_min at
1 - 5e-6 for n = 200.  Each eigenvalue is therefore recomputed as the
Rayleigh quotient of its vector,

    lambda = 1 + ||F v||^2 / (v^T P v),   K = F^T F,

where ||F v||^2 = v^T K v sums the weighted squares of the K rows' products
with v, and v^T P v, close to 1, is read off the Gram matrix V^T P V that
the build checks anyway.  A sum of squares is never negative, so
lambda >= 1 holds exactly in floating point, and an error e in the vector
moves the quotient by O(lambda_max e^2) only.  That is below 1e-10 of every
eigenvalue up to n = 400 but the bottom one, whose vector spans the linear
A (A'' = 0, the null space of K) and whose value is 1 exactly: there the
weight lambda_max, 7e21 on an interval of length 1e-3, lifts the quotient
of dsbgvd's vector to 1 + 6e-4, so the bottom eigenvalue is set to 1.
dsbgvd comes from numpy's bundled OpenBLAS (see `_lapack`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._lapack import DOUBLES, INT, bind, dptr, iptr, int64
from .exceptions import NumericalError
from .splines import StateInterval, _apply_rows
from .tikhonov import _band_apply, _gram_band, _penalty_band, _penalty_rows

__all__ = ["DiscreteScaleOperator", "build_scale_operator"]

# (jobz, uplo, n, ka, kb, ab, ldab, bb, ldbb, w, z, ldz, work, lwork, iwork, liwork, info)
_dsbgvd = bind(
    "dsbgvd", INT, INT, INT, DOUBLES, INT, DOUBLES, INT, DOUBLES, DOUBLES, INT, DOUBLES,
    INT, INT, INT, INT, chars=2,
)


@dataclass(frozen=True, eq=False)
class DiscreteScaleOperator:
    """Discrete scale operator on the solver's n-element grid.

    Vectors are the solver's unknowns: the n + 1 B-spline coefficients d of
    an antiderivative A.  `scale_norm`, `x_norm` and `interpolation_margin`
    also take a stack of them, one per row, and evaluate it in one pass.
    """

    interval: StateInterval
    n_elements: int
    mass_band: np.ndarray          # (n+1, 3) lower band of P, d^T P d = ||A||^2
    eigenvalues: np.ndarray        # (n+1,), ascending, all >= 1
    eigenvectors: np.ndarray       # (n+1, n+1), P-orthonormal columns

    def __post_init__(self):
        for name in ("mass_band", "eigenvalues", "eigenvectors"):
            arr = np.array(getattr(self, name), copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _coefficients(self, d: np.ndarray) -> np.ndarray:
        """Eigen-coefficients c_k = v_k^T P d, one row per vector.

        d is one vector (n+1,) or a stack (S, n+1); the stack takes one
        matrix product.
        """
        d = np.asarray(d, dtype=float)
        if d.ndim not in (1, 2) or d.shape[-1] != self.eigenvalues.size:
            raise ValueError(
                f"expected coefficient vectors of length {self.eigenvalues.size}, "
                f"got {d.shape}"
            )
        return _band_apply(self.mass_band, d) @ self.eigenvectors

    def _norm(self, c: np.ndarray, s) -> np.ndarray:
        """Scale norm of index s from the coefficients c, with s per row of c."""
        s = np.asarray(s, dtype=float)
        exponent = ((s[..., None] if s.ndim else float(s)) + 1.0) / 2.0
        return np.sqrt(np.sum(self.eigenvalues**exponent * c**2, axis=-1))

    def scale_norm(self, d: np.ndarray, s):
        """Shifted-scale norm of index s: sqrt(sum_k lambda_k^((s+1)/2) c_k^2).

        s = -1 gives the L2 norm of A, s = 1 the penalty norm
        (||A''||^2 + ||A||^2)^(1/2).  A float for one vector d; for a stack
        of vectors, an array of norms with s one value or one per row.
        """
        norm = self._norm(self._coefficients(d), s)
        return float(norm) if norm.ndim == 0 else norm

    def x_norm(self, d: np.ndarray, s):
        """Unshifted scale norm ||L^s d||, i.e. scale_norm at index s - 1."""
        return self.scale_norm(d, np.asarray(s) - 1.0)

    def apply_power(self, d: np.ndarray, t: float) -> np.ndarray:
        """Apply the fractional power L^t (eigenvalues lambda_k^(t/4))."""
        return (self.eigenvalues ** (t / 4.0) * self._coefficients(d)) @ self.eigenvectors.T

    def interpolation_margin(self, d: np.ndarray, r, s, t):
        """RHS - LHS of the interpolation inequality between scale levels.

        ||L^s d|| <= ||L^r d||^((t-s)/(t-r)) * ||L^t d||^((s-r)/(t-r))
        for r <= s <= t, r < t.  The returned margin is nonnegative up to
        rounding (contract: margin >= -1e-10 * RHS).  A float for one
        vector d; for a stack of vectors, an array of margins with each
        level one value or one per row, every row checked.
        """
        r, s, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (r, s, t)))
        bad = ~((r <= s) & (s <= t) & (r < t))
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(
                f"need r <= s <= t with r < t, got r={r[i]}, s={s[i]}, t={t[i]}"
            )
        if not np.all(np.any(d, axis=-1)):
            raise ValueError("interpolation margin undefined for the zero vector")
        c = self._coefficients(d)
        lhs = self._norm(c, s - 1.0)
        rhs = self._norm(c, r - 1.0) ** ((t - s) / (t - r)) * self._norm(c, t - 1.0) ** (
            (s - r) / (t - r)
        )
        margin = rhs - lhs
        return float(margin) if margin.ndim == 0 else margin


def build_scale_operator(interval: StateInterval, n_elements: int) -> DiscreteScaleOperator:
    """Assemble the scale operator of the solver's penalty on n_elements elements.

    Raises ValueError unless n_elements is an integer >= 1, and
    NumericalError if LAPACK fails or the eigenvectors are not
    P-orthonormal to 1e-10.
    """
    if not isinstance(n_elements, numbers.Integral) or n_elements < 1:
        raise ValueError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    n = int(n_elements)
    size = n + 1
    (k_rows, k_weights), (p_rows, p_weights) = _penalty_rows(interval, n)
    mass_band = _gram_band(p_rows, p_weights, size)
    # dsbgvd overwrites both bands; z returns the eigenvectors as its C-order rows
    pencil, mass = np.array(_penalty_band(interval, n)), mass_band.copy()
    w, z = np.empty(size), np.empty((size, size))
    work = np.empty(1 + 5 * size + 2 * size**2)
    iwork = np.empty(3 + 5 * size, dtype=np.int64)
    status = int64()
    _dsbgvd(
        b"V", b"L", int64(size), int64(2), int64(2), dptr(pencil), int64(3), dptr(mass),
        int64(3), dptr(w), dptr(z), int64(size), dptr(work), int64(work.size),
        iptr(iwork), int64(iwork.size), status, 1, 1,
    )
    info = status.value
    if info != 0:
        cause = "; P is not positive definite" if info > size else ""
        raise NumericalError(
            f"banded generalized eigensolver (LAPACK dsbgvd) failed: info {info}{cause}"
        )
    gram = _band_apply(mass_band, z) @ z.T
    defect = np.max(np.abs(gram - np.eye(size)))
    if not defect <= 1e-10:
        raise NumericalError(f"P-orthonormality defect {defect:.2e} > 1e-10")
    # Rayleigh quotients above the bottom eigenvalue, which is 1 (A'' = 0)
    energy = _apply_rows(k_rows, z[1:]) ** 2 @ k_weights
    return DiscreteScaleOperator(
        interval=interval,
        n_elements=n,
        mass_band=mass_band,
        eigenvalues=np.append(1.0, 1.0 + energy / np.diagonal(gram)[1:]),
        eigenvectors=z.T,
    )
