"""Piecewise-linear coefficient a(u) and the one basis of its antiderivative A.

The coefficient is stored through its nodal values on a uniform grid over a
state interval, and evaluation is linear interpolation.  Its antiderivative
A(u) = int_{u_min}^u a(w) dw is piecewise quadratic, written in the
coefficients d of uniform quadratic B-splines (de Boor; Eilers & Marx's
P-splines).  On element k with local coordinate t,

    A = d_{k-1} (1 - t)^2 / 2 + d_k (1 + 2t - 2t^2) / 2 + d_{k+1} t^2 / 2,

with A(u_min) = 0 as d_{-1} = -d_0 folded into column 0, and the nodal
values are a_0 = 2 d_0 / dx, a_j = (d_j - d_{j-1}) / dx.  `_value_rows`
gives these rows at any points: the Tikhonov assembly builds T and the
penalty from them, and `_apply_rows` applies them, in `_antiderivative`
and to T in the solver, so A is exactly linear in the nodes.  A set of
rows is a pair (first, weights): row i has weights[p][i] in column
first[i] + p, stored p-major so that each weights[p] is contiguous.  All
norms are exact element-wise quadratures.  `_norms` and `_antiderivative`
take nodal values stacked along leading axes, so a stack of splines takes
one pass; one spline is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, GridMismatchError

__all__ = [
    "StateInterval",
    "ParameterSpline",
    "antiderivative_l2_norm",
]

# 3-point Gauss-Legendre on [-1, 1]: the float64 values leggauss(3) returns
# (an eigenvalue solve per call); 5/9 would be one ulp off the weights
_GAUSS_X = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GAUSS_W = np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])


@dataclass(frozen=True)
class StateInterval:
    """Closed interval [u_min, u_max] of attainable states."""

    u_min: float
    u_max: float

    def __post_init__(self):
        if not (np.isfinite(self.u_min) and np.isfinite(self.u_max)):
            raise ValueError("interval endpoints must be finite")
        if not self.u_min < self.u_max:
            raise ValueError(
                f"invalid interval: u_min={self.u_min} must be < u_max={self.u_max}"
            )
        # as floats: equal intervals (one key of the shared penalty band) compute alike
        object.__setattr__(self, "u_min", float(self.u_min))
        object.__setattr__(self, "u_max", float(self.u_max))
        if not self.length < np.inf:
            raise ValueError(f"interval length u_max - u_min overflows: {self.length}")

    @property
    def length(self) -> float:
        return self.u_max - self.u_min

    def uniform_grid(self, n_elements: int) -> np.ndarray:
        """Nodes of the uniform partition into `n_elements` elements."""
        if n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        return np.linspace(self.u_min, self.u_max, n_elements + 1)

    def contains(self, u) -> np.ndarray:
        u = np.asarray(u)
        return (u >= self.u_min) & (u <= self.u_max)


def _locate(interval: StateInterval, n_elements: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Element index k and local coordinate t in [0, 1] of each point of u.

    Raises DomainError for a point outside the interval.
    """
    uq = np.atleast_1d(np.asarray(u, dtype=float))
    inside = interval.contains(uq)
    if not inside.all():
        i = int(np.argmin(inside))
        raise DomainError(
            f"u[{i}]={uq.ravel()[i]!r} outside [{interval.u_min}, {interval.u_max}]"
        )
    dx = interval.length / n_elements
    # every u >= u_min here, so k >= 0 and only the top end needs clipping
    k = np.minimum(((uq - interval.u_min) / dx).astype(int), n_elements - 1)
    t = (uq - (interval.u_min + k * dx)) / dx
    return k, t


def _element_gauss_rule(
    interval: StateInterval, n_elements: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of 3-point Gauss-Legendre on every grid element.

    Exact for polynomials of degree <= 5 per element, and every point lies
    strictly inside its element.
    """
    dx = interval.length / n_elements
    left = interval.uniform_grid(n_elements)[:-1]
    points = (left[:, None] + (_GAUSS_X[None, :] + 1.0) * dx / 2.0).ravel()
    weights = np.tile(_GAUSS_W * dx / 2.0, n_elements)
    return points, weights


def _norms(a: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact L2(I) and H1(I) norms of piecewise-linear functions.

    `a` holds the nodal values on a uniform grid of spacing dx along its
    last axis, so a stack of functions takes one pass.
    """
    left, right = a[..., :-1], a[..., 1:]
    l2_sq = np.sum(dx * (left**2 + left * right + right**2) / 3.0, axis=-1)
    grad_sq = np.sum(np.diff(a, axis=-1) ** 2, axis=-1) / dx
    return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)


@dataclass(frozen=True, eq=False)
class ParameterSpline:
    """Continuous piecewise-linear coefficient on a uniform state grid.

    Immutable: the node array is copied and marked read-only, so instances
    are safe to share across threads.
    """

    interval: StateInterval
    node_values: np.ndarray

    def __post_init__(self):
        values = np.array(self.node_values, dtype=float, copy=True)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("node_values must be a 1-d array with >= 2 entries")
        if not np.all(np.isfinite(values)):
            i = int(np.argmax(~np.isfinite(values)))
            raise ValueError(f"non-finite node value at node {i}: {values[i]!r}")
        values.flags.writeable = False
        object.__setattr__(self, "node_values", values)

    @property
    def n_elements(self) -> int:
        return self.node_values.size - 1

    @property
    def spacing(self) -> float:
        return self.interval.length / self.n_elements

    @property
    def nodes(self) -> np.ndarray:
        return self.interval.uniform_grid(self.n_elements)

    def __call__(self, u):
        """Evaluate a(u) by linear interpolation; exact at nodes.

        Raises DomainError outside the interval; callers that need clamped
        evaluation must clamp explicitly.
        """
        k, t = _locate(self.interval, self.n_elements, u)
        out = (1.0 - t) * self.node_values[k] + t * self.node_values[k + 1]
        return out if np.ndim(u) else float(out[0])

    def antiderivative(self, u):
        """A(u) = int_{u_min}^u a(w) dw, exact per element (piecewise quadratic).

        A(u_min) = 0; A is strictly increasing whenever all nodes are > 0.
        """
        out = _antiderivative(self.interval, self.node_values, u)
        return out if np.ndim(u) else float(out[0])

    def l2_norm(self) -> float:
        """Exact L2(I) norm of the piecewise-linear function."""
        return float(_norms(self.node_values, self.spacing)[0])

    def h1_norm(self) -> float:
        """Exact H1(I) norm; the derivative is piecewise constant."""
        return float(_norms(self.node_values, self.spacing)[1])

    def __sub__(self, other: "ParameterSpline") -> "ParameterSpline":
        """Nodewise difference; both splines must live on the identical grid."""
        if not isinstance(other, ParameterSpline):
            return NotImplemented
        if (
            self.interval != other.interval
            or self.n_elements != other.n_elements
        ):
            raise GridMismatchError(
                f"grids differ: {self.interval} ({self.n_elements} elements) vs "
                f"{other.interval} ({other.n_elements} elements)"
            )
        return ParameterSpline(self.interval, self.node_values - other.node_values)


def _fold(first: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of three weights from column `first`, with d_{-1} = -d_0 folded in.

    A row starting at column -1 is shifted to start at column 0; `weights`,
    (3, ...) with weights[p] acting on column first + p, is updated in place.
    """
    edge = first < 0
    weights[0][edge] = weights[1][edge] - weights[0][edge]
    weights[1][edge] = weights[2][edge]
    weights[2][edge] = 0.0
    return np.maximum(first, 0), weights


def _value_rows(interval: StateInterval, n: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Rows giving A(u) in the B-spline coefficients d, one per point of u.

    Returns (first, weights) with first of u's shape and weights (3, *u.shape).
    """
    k, t = _locate(interval, n, u)
    weights = np.stack(((1 - t) ** 2 / 2, (1 + 2 * t - 2 * t * t) / 2, t * t / 2))
    return _fold(k - 1, weights)


def _nodes(d: np.ndarray, dx: float) -> np.ndarray:
    return np.concatenate((2 * d[..., :1], np.diff(d, axis=-1)), axis=-1) / dx


def _coefficients(a: np.ndarray, dx: float) -> np.ndarray:
    return dx * (np.cumsum(a, axis=-1) - a[..., :1] / 2)


def _columns(first: np.ndarray, width: int) -> np.ndarray:
    """Columns `first` shifted into member blocks of `width` laid end to end."""
    count = first.size // first.shape[-1]
    return first + width * np.arange(count).reshape(first.shape[:-1] + (1,))


def _apply_rows(rows: tuple, d: np.ndarray, paired: bool = False) -> np.ndarray:
    """Products of the rows (first, weights) with coefficient vectors d, (..., n+1).

    Every vector meets every row: the result has shape d.shape[:-1] +
    first.shape.  If `paired`, first is (S, m) and d (S, n+1), and the rows
    of member i meet d[i] alone: the result is (S, m).  A row may reach two
    columns past d, where its weight is 0 (the folded first row when n = 1),
    so d is padded with two zeros.
    """
    first, weights = rows
    padded = np.zeros(d.shape[:-1] + (d.shape[-1] + 2,))
    padded[..., :-2] = d
    if paired:
        first, padded = _columns(first, padded.shape[-1]), padded.ravel()
    out = np.take(padded, first, axis=-1)
    out *= weights[0]
    for p in (1, 2):
        term = np.take(padded, first + p, axis=-1)
        term *= weights[p]
        out += term
    return out


def _antiderivative(interval: StateInterval, a: np.ndarray, u) -> np.ndarray:
    """A(u) for nodal values `a` stacked along leading axes, (..., n+1).

    The rows of the points u are formed once for the whole stack; the
    result has shape a.shape[:-1] + u.shape (u at least 1-d).  Each row
    computes what it would alone, bit for bit.
    """
    n = a.shape[-1] - 1
    rows = _value_rows(interval, n, u)
    return _apply_rows(rows, _coefficients(a, interval.length / n))


def _node_stack(spline) -> tuple[StateInterval, np.ndarray]:
    """Interval and (S, n+1) nodal values of one spline or a sequence on one grid."""
    members = (spline,) if isinstance(spline, ParameterSpline) else tuple(spline)
    if not members or not all(isinstance(member, ParameterSpline) for member in members):
        raise ValueError("need a ParameterSpline or a non-empty sequence of them")
    head = members[0]
    for member in members[1:]:
        if member.interval != head.interval or member.n_elements != head.n_elements:
            raise GridMismatchError(
                f"stacked splines must share one grid: {head.interval} "
                f"({head.n_elements} elements) vs {member.interval} "
                f"({member.n_elements} elements)"
            )
    return head.interval, np.stack([member.node_values for member in members])


def antiderivative_l2_norm(spline):
    """Exact L2(I) norm of the antiderivative A of `spline`.

    `spline` is one ParameterSpline, giving a float, or a sequence of them
    on one grid, giving an array of norms in sequence order.  A is
    quadratic per element, A^2 quartic, so 3-point Gauss per element
    integrates it exactly.
    """
    norms = _antiderivative_l2_norms(*_node_stack(spline))
    return float(norms[0]) if isinstance(spline, ParameterSpline) else norms


def _antiderivative_l2_norms(interval: StateInterval, a: np.ndarray) -> np.ndarray:
    """Exact L2(I) norms of the antiderivatives of nodal values `a`, (S, n+1)."""
    points, weights = _element_gauss_rule(interval, a.shape[-1] - 1)
    values = _antiderivative(interval, a, points)
    return np.sqrt(np.sum(weights * values**2, axis=-1))
