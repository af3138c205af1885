"""Finite-dimensional realization of the scale-generating operator.

The fourth-order operator A -> A'''' + A, restricted by the essential
condition u(u_min) = 0, is realized through its quadratic form
(u'', u'') + (u, u) with second differences: the stiffness part is the Gram
matrix K = D2^T W D2 of the interior 3-point stencil, so symmetry and
positive semi-definiteness hold by construction, and the free-end
conditions are natural (no constraint rows).  The generalized eigenproblem

    (K + M) v = lambda M v,   v M-orthonormal,

defines the discrete scale: fractional powers act as lambda^(t/4) on the
eigen-coefficients, and the shifted-scale norm of index s weights them by
lambda^((s+1)/2).

The eigenpairs are computed from the singular value decomposition of the
scaled difference factor S = F M^{-1/2} (with K = F^T F), giving
lambda = 1 + sigma^2.  A generalized symmetric eigensolver would lose
absolute accuracy of order ||K|| * eps ~ 1e-5 on the smallest eigenvalues;
the SVD route keeps lambda >= 1 exactly in floating point, since 1 plus a
square is never below 1.

S is (N-1) x N with three nonzeros per row, so S^T is a band with one sub-
and one superdiagonal.  LAPACK dgbbrd reduces that band to bidiagonal form
by plane rotations that chase the fill-in down the band, never forming a
dense S, and accumulates them into an orthogonal Q; dbdsdc (Gu &
Eisenstat's divide and conquer for the bidiagonal SVD) then finds the
singular values and vectors of the (N-1) x (N-1) bidiagonal.  Both steps are
orthogonal transforms, like a dense SVD, so the accuracy stays in the same
class at less cost.  The last column of Q spans the null space of S (the
linear functions), so its sigma is 0 and lambda_min is exactly 1.  Both
routines come from numpy's bundled OpenBLAS (see `_lapack`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import DOUBLES, INT, bind, dptr, iptr, int64
from .exceptions import NumericalError
from .splines import StateInterval

__all__ = ["DiscreteScaleOperator", "build_scale_operator"]

# (vect, m, n, ncc, kl, ku, ab, ldab, d, e, q, ldq, pt, ldpt, c, ldc, work, info)
_dgbbrd = bind(
    "dgbbrd", INT, INT, INT, INT, INT, DOUBLES, INT, DOUBLES, DOUBLES, DOUBLES, INT,
    DOUBLES, INT, DOUBLES, INT, DOUBLES, INT,
)
# (uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info)
_dbdsdc = bind(
    "dbdsdc", INT, DOUBLES, DOUBLES, DOUBLES, INT, DOUBLES, INT, DOUBLES, INT, DOUBLES,
    INT, INT, chars=2,
)


@dataclass(frozen=True, eq=False)
class DiscreteScaleOperator:
    """Discrete scale operator on a uniform grid of N+1 points.

    Vectors passed to the methods live on the full grid (length N+1) and
    must vanish at the first node (the essential constraint); `scale_norm`,
    `x_norm` and `interpolation_margin` also take a stack of them, one per
    row, and evaluate it in one pass.  The stored arrays act on the
    constrained unknowns at nodes 1..N; eigenvector columns are padded back
    to the full grid.
    """

    interval: StateInterval
    grid: np.ndarray               # (N+1,) nodes
    stiffness_factor: np.ndarray   # (N-1, N) weighted second differences, K = F^T F
    mass: np.ndarray               # (N,) diagonal of the lumped mass M, realizes (u, u)
    eigenvalues: np.ndarray        # (N,), ascending, all >= 1
    eigenvectors: np.ndarray       # (N+1, N), M-orthonormal, zero first row

    def __post_init__(self):
        for name in ("grid", "stiffness_factor", "mass", "eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name))
            arr = np.array(arr, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return self.grid.size

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        """Eigen-coefficients c_k = v_k^T M u of full-grid vectors, one row each.

        u is one vector (N+1,) or a stack (S, N+1); the stack takes one
        matrix product.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.grid.size:
            raise ValueError(
                f"expected full-grid vectors of length {self.grid.size}, got {u.shape}"
            )
        if np.any(u[..., 0] != 0.0):
            raise ValueError(
                "vector must satisfy the essential condition u(u_min) = 0"
            )
        return (self.mass * u[..., 1:]) @ self.eigenvectors[1:]

    def _norm(self, c: np.ndarray, s) -> np.ndarray:
        """Scale norm of index s from the coefficients c, with s per row of c."""
        s = np.asarray(s, dtype=float)
        exponent = ((s[..., None] if s.ndim else float(s)) + 1.0) / 2.0
        return np.sqrt(np.sum(self.eigenvalues**exponent * c**2, axis=-1))

    def scale_norm(self, u: np.ndarray, s):
        """Shifted-scale norm of index s: sqrt(sum_k lambda_k^((s+1)/2) c_k^2).

        s = -1 recovers the discrete L2 norm, s = 1 the discrete version of
        (||u''||^2 + ||u||^2)^(1/2).  A float for one vector u; for a stack
        of vectors, an array of norms with s one value or one per row.
        """
        norm = self._norm(self._coefficients(u), s)
        return float(norm) if norm.ndim == 0 else norm

    def x_norm(self, u: np.ndarray, s):
        """Unshifted scale norm ||L^s u||, i.e. scale_norm at index s - 1."""
        return self.scale_norm(u, np.asarray(s) - 1.0)

    def apply_power(self, u: np.ndarray, t: float) -> np.ndarray:
        """Apply the fractional power L^t (eigenvalues lambda_k^(t/4))."""
        c = self._coefficients(u)
        out = np.zeros_like(np.asarray(u, dtype=float))
        out[1:] = self.eigenvectors[1:] @ (self.eigenvalues ** (t / 4.0) * c)
        return out

    def interpolation_margin(self, u: np.ndarray, r, s, t):
        """RHS - LHS of the interpolation inequality between scale levels.

        ||L^s u|| <= ||L^r u||^((t-s)/(t-r)) * ||L^t u||^((s-r)/(t-r))
        for r <= s <= t, r < t.  The returned margin is nonnegative up to
        rounding (contract: margin >= -1e-10 * RHS).  A float for one
        vector u; for a stack of vectors, an array of margins with each
        level one value or one per row, every row checked.
        """
        r, s, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (r, s, t)))
        bad = ~((r <= s) & (s <= t) & (r < t))
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(
                f"need r <= s <= t with r < t, got r={r[i]}, s={s[i]}, t={t[i]}"
            )
        if not np.all(np.any(np.asarray(u)[..., 1:], axis=-1)):
            raise ValueError("interpolation margin undefined for the zero vector")
        c = self._coefficients(u)
        lhs = self._norm(c, s - 1.0)
        rhs = self._norm(c, r - 1.0) ** ((t - s) / (t - r)) * self._norm(c, t - 1.0) ** (
            (s - r) / (t - r)
        )
        margin = rhs - lhs
        return float(margin) if margin.ndim == 0 else margin


def build_scale_operator(interval: StateInterval, n_points: int) -> DiscreteScaleOperator:
    """Assemble the discrete scale operator on N = n_points elements.

    The grid has n_points + 1 nodes; the first node carries the essential
    condition and is eliminated from the unknowns.
    """
    n = int(n_points)
    if n < 4:
        raise ValueError(f"need at least 4 grid intervals, got {n}")
    grid = interval.uniform_grid(n)
    dx = interval.length / n

    # interior second differences on the constrained unknowns u_1..u_N
    # (u_0 = 0 is eliminated; its column is dropped), weighted by the
    # square root of the quadrature weight dx
    rows = np.arange(n - 1)
    factor = np.zeros((n - 1, n))
    factor[rows[1:], rows[1:] - 1] = np.sqrt(dx) * (1.0 / dx**2)
    factor[rows, rows] = np.sqrt(dx) * (-2.0 / dx**2)
    factor[rows, rows + 1] = np.sqrt(dx) * (1.0 / dx**2)

    # trapezoid-lumped mass on u_1..u_N (u_0 excluded)
    mass_diag = np.full(n, dx)
    mass_diag[-1] = dx / 2.0

    # eigenpairs of (K + M) v = lambda M v via the SVD of S = F M^{-1/2}:
    # lambda = 1 + sigma^2 >= 1 exactly, v = M^{-1/2} q is M-orthonormal.
    sigma, q = _right_singular_pairs(factor, np.sqrt(mass_diag))
    eigenvalues = 1.0 + sigma**2
    order = np.argsort(eigenvalues)
    eigenvalues = eigenvalues[order]
    vectors = (q / np.sqrt(mass_diag)[:, None])[:, order]
    eigenvectors = np.vstack([np.zeros(n), vectors])

    op = DiscreteScaleOperator(
        interval=interval,
        grid=grid,
        stiffness_factor=factor,
        mass=mass_diag,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
    )
    _validate(op)
    return op


def _right_singular_pairs(factor: np.ndarray, mass_root: np.ndarray):
    """N singular values and right singular vectors of S = F diag(1 / mass_root).

    S is (N-1, N) with three nonzeros per row, so S^T is an N x (N-1) band
    with one sub- and one superdiagonal.  dgbbrd reduces it to S^T = Q B P^T
    with B upper bidiagonal, and dbdsdc finds B = U_B Sigma V_B^T.  The right
    singular vectors of S are then Q[:, :N-1] U_B, for the N-1 values in
    descending order, and last Q[:, N-1], which spans the null space of S
    and gets the value 0.
    """
    rows, n = factor.shape
    j = np.arange(rows)
    # S^T in LAPACK's general band layout: column j of S^T is row j of S,
    # stored as (super, diagonal, sub) = (S[j, j-1], S[j, j], S[j, j+1]);
    # C order makes the (N-1, 3) array LAPACK's Fortran (3, N-1) band
    band = np.zeros((rows, 3))
    band[1:, 0] = factor[j[1:], j[1:] - 1] / mass_root[:-2]
    band[:, 1] = factor[j, j] / mass_root[:-1]
    band[:, 2] = factor[j, j + 1] / mass_root[1:]
    d, e = np.empty(rows), np.empty(rows)
    q = np.empty((n, n))  # Fortran Q, so its C-order rows are the columns of Q
    # placeholders for the arrays neither routine references here
    unused, unused_int = np.zeros(1), np.zeros(1, dtype=np.int64)
    work = np.empty(2 * n)
    status = int64()
    _dgbbrd(
        b"Q", int64(n), int64(rows), int64(0), int64(1), int64(1), dptr(band), int64(3),
        dptr(d), dptr(e), dptr(q), int64(n), dptr(unused), int64(1),
        dptr(unused), int64(1), dptr(work), status, 1,
    )
    if status.value != 0:
        raise NumericalError(
            f"band bidiagonalization (LAPACK dgbbrd) failed: info {status.value}"
        )
    u_b, vt_b = np.empty((rows, rows)), np.empty((rows, rows))
    work = np.empty(3 * rows**2 + 4 * rows)
    iwork = np.empty(8 * rows, dtype=np.int64)
    _dbdsdc(
        b"U", b"I", int64(rows), dptr(d), dptr(e), dptr(u_b), int64(rows),
        dptr(vt_b), int64(rows), dptr(unused), iptr(unused_int),
        dptr(work), iptr(iwork), status, 1, 1,
    )
    if status.value != 0:
        raise NumericalError(f"bidiagonal SVD (LAPACK dbdsdc) failed: info {status.value}")
    # u_b holds U_B in Fortran order, i.e. U_B^T in C order
    vectors = np.empty((n, n))
    vectors[:, :rows] = q[:rows].T @ u_b.T
    vectors[:, rows] = q[rows]
    return np.append(d, 0.0), vectors


def _validate(op: DiscreteScaleOperator) -> None:
    if op.eigenvalues[0] < 1.0 - 1e-10:
        raise NumericalError(
            f"smallest eigenvalue {op.eigenvalues[0]!r} below the strict-positivity bound"
        )
    v = op.eigenvectors[1:]
    gram = v.T @ (op.mass[:, None] * v)
    orth_defect = np.max(np.abs(gram - np.eye(v.shape[1])))
    if orth_defect > 1e-10:
        raise NumericalError(f"M-orthonormality defect {orth_defect:.2e} > 1e-10")
