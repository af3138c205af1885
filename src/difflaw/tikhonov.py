"""Tikhonov regularization of the linearized identification problem.

The reconstruction minimizes

    ||T a - y||_W^2  +  alpha * (||a'||^2 + ||A||^2)

over the nodal values a of the coefficient spline, where T maps a to its
antiderivative A(u) = int_{u_min}^u a at the measured states, W holds the
curve quadrature weights, and both penalty terms are exact L2 norms over
the state interval (||a'|| = ||A''||).

The system is solved in the coefficients d_0..d_n of A in uniform
quadratic B-splines, the local basis of A (de Boor; Eilers & Marx's
P-splines).  On element k with local coordinate t,

    A = d_{k-1} (1 - t)^2 / 2 + d_k (1 + 2t - 2t^2) / 2 + d_{k+1} t^2 / 2,

and the normalization A(u_min) = 0 is d_{-1} = -d_0, folded into column 0.
Every row of T and of the penalties then has three nonzeros, so the normal
matrix T^T W T + alpha (K + P) is a symmetric positive definite band of
half-width 2, factored by one banded Cholesky solve.  The nodal values are
a_0 = 2 d_0 / dx and a_j = (d_j - d_{j-1}) / dx.

`build_tikhonov_problem(data, n_elements)` assembles the bands of T^T W T
and K + P and the vector T^T W y once per data set; alpha is chosen per
solve, either directly with `solve_tikhonov(problem, alpha)` or by the
discrepancy principle with `alpha_discrepancy(problem, delta)`, a bisection
over log(alpha).  Also provided: the two a-priori parameter-choice rules
and the naive differentiation reconstruction that serves as the
instability baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .exceptions import DataTooRoughError, NoiseLevelTooSmallError, NumericalError
from .forward import CurveParametrization, TraceData, quadrature_norm
from .splines import ParameterSpline, StateInterval, _element_gauss_rule, _locate

__all__ = [
    "TikhonovProblem",
    "ReconstructionResult",
    "build_tikhonov_problem",
    "solve_tikhonov",
    "tikhonov_objective",
    "alpha_a_priori",
    "alpha_discrepancy",
    "naive_reconstruction",
]


def _fold(first: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of three weights from column `first`, with d_{-1} = -d_0 folded in.

    A row starting at column -1 is shifted to start at column 0; `weights`
    is updated in place.
    """
    edge = first < 0
    weights[edge] = np.column_stack(
        (weights[edge, 1] - weights[edge, 0], weights[edge, 2], np.zeros(edge.sum()))
    )
    return np.maximum(first, 0), weights


def _value_rows(interval: StateInterval, n: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Rows giving A(u) in the B-spline coefficients d."""
    k, t = _locate(interval, n, u)
    weights = np.column_stack(((1 - t) ** 2 / 2, (1 + 2 * t - 2 * t * t) / 2, t * t / 2))
    return _fold(k - 1, weights)


def _apply(rows: tuple[np.ndarray, np.ndarray], d: np.ndarray) -> np.ndarray:
    """Row-by-row products with the coefficient vector d."""
    first, weights = rows
    padded = np.concatenate((d, [0.0, 0.0]))
    return sum(weights[:, p] * padded[first + p] for p in range(3))


def _gram_band(
    rows: tuple[np.ndarray, np.ndarray], row_weights: np.ndarray, size: int
) -> np.ndarray:
    """Upper band of sum_i w_i r_i r_i^T in `solveh_banded` layout, (3, size)."""
    first, weights = rows
    band = np.zeros((3, size + 2))
    for p in range(3):
        for q in range(p, 3):
            products = row_weights * weights[:, p] * weights[:, q]
            band[2 + p - q] += np.bincount(first + q, products, minlength=size + 2)
    return band[:, :size]


def _band_form(band: np.ndarray, d: np.ndarray) -> float:
    """d^T M d for the symmetric M whose upper band is `band`."""
    return float(
        band[2] @ d**2
        + 2 * (band[1, 1:] @ (d[:-1] * d[1:]))
        + 2 * (band[0, 2:] @ (d[:-2] * d[2:]))
    )


def _nodes(d: np.ndarray, dx: float) -> np.ndarray:
    return np.concatenate(([2 * d[0]], np.diff(d))) / dx


def _coefficients(a: np.ndarray, dx: float) -> np.ndarray:
    return dx * (np.cumsum(a) - a[0] / 2)


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Banded normal equations of the least-squares problem for one data set.

    Built once by `build_tikhonov_problem`; the parameter alpha is given per
    solve.  The system matrix T^T W T + alpha (K + P) is symmetric positive
    definite for alpha > 0 since P is definite on splines.
    """

    data: TraceData
    n_elements: int
    t_rows: tuple              # (first column, (m, 3) weights) of T in d
    normal_band: np.ndarray    # (3, n+1) upper band of T^T W T
    penalty_band: np.ndarray   # (3, n+1) upper band of K + P
    normal_rhs: np.ndarray     # (n+1,) T^T W y

    @property
    def spacing(self) -> float:
        return self.data.interval.length / self.n_elements


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered coefficient with the parameters of its solve."""

    spline: ParameterSpline
    alpha: float
    residual: float

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be >= 0")


def build_tikhonov_problem(data: TraceData, n_elements: int) -> TikhonovProblem:
    """Assemble the banded normal equations for `data` on the n-element grid.

    Raises DomainError if any state lies outside the spline interval
    (clamping must have happened upstream).
    """
    n = int(n_elements)
    interval = data.interval
    points, gauss_weights = _element_gauss_rule(interval, n)
    dx = interval.length / n
    # K: (a_{k+1} - a_k)^2 / dx = (d_{k+1} - 2 d_k + d_{k-1})^2 / dx^3
    k_rows = _fold(np.arange(n) - 1, np.tile([1.0, -2.0, 1.0], (n, 1)))
    p_rows = _value_rows(interval, n, points)
    penalty_rows = tuple(np.concatenate(pair) for pair in zip(k_rows, p_rows))
    penalty_weights = np.concatenate((np.full(n, dx**-3), gauss_weights))

    t_rows = _value_rows(interval, n, data.h_values)
    first, weights = t_rows
    wy = data.quad_weights * data.y_values
    rhs = sum(
        np.bincount(first + p, wy * weights[:, p], minlength=n + 3) for p in range(3)
    )
    return TikhonovProblem(
        data=data,
        n_elements=n,
        t_rows=t_rows,
        normal_band=_gram_band(t_rows, data.quad_weights, n + 1),
        penalty_band=_gram_band(penalty_rows, penalty_weights, n + 1),
        normal_rhs=rhs[: n + 1],
    )


def _solve(problem: TikhonovProblem, alpha: float) -> tuple[np.ndarray, float]:
    """Banded Cholesky solve of the normal equations at alpha: (nodes, residual)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    try:
        d = solveh_banded(
            problem.normal_band + alpha * problem.penalty_band, problem.normal_rhs
        )
    except LinAlgError as exc:
        raise NumericalError(
            f"normal-equation factorization failed at alpha={alpha!r} "
            f"(size {problem.n_elements + 1}); system not positive definite: {exc}"
        ) from exc
    data = problem.data
    residual = quadrature_norm(_apply(problem.t_rows, d) - data.y_values, data.quad_weights)
    return _nodes(d, problem.spacing), residual


def solve_tikhonov(problem: TikhonovProblem, alpha: float) -> ReconstructionResult:
    """Unique minimizer of the Tikhonov functional at parameter alpha > 0."""
    nodes, residual = _solve(problem, alpha)
    spline = ParameterSpline(problem.data.interval, nodes)
    return ReconstructionResult(spline=spline, alpha=float(alpha), residual=residual)


def tikhonov_objective(
    problem: TikhonovProblem, node_values: np.ndarray, alpha: float
) -> float:
    """Value of the Tikhonov functional at the given nodal values."""
    d = _coefficients(np.asarray(node_values, dtype=float), problem.spacing)
    misfit = _apply(problem.t_rows, d) - problem.data.y_values
    return float(
        np.sum(problem.data.quad_weights * misfit**2)
        + alpha * _band_form(problem.penalty_band, d)
    )


def alpha_a_priori(delta: float, rule: str = "quadratic", coeff: float = 0.1) -> float:
    """A-priori regularization parameter from the noise level.

    rule="quadratic" gives delta^2; rule="eight_fifths" gives
    coeff * delta^(8/5) with the default coefficient 0.1.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if rule == "quadratic":
        return float(delta) ** 2
    if rule in ("eight_fifths", "eight-fifths"):
        return coeff * float(delta) ** 1.6
    raise ValueError(f"unknown parameter-choice rule {rule!r}")


def alpha_discrepancy(
    problem: TikhonovProblem,
    delta: float,
    tau: float = 1.5,
    alpha_min: float = 1e-16,
    alpha_max: float = 1e4,
    max_iter: int = 200,
) -> tuple[float, ReconstructionResult]:
    """Choose alpha a-posteriori so that the residual lands in [tau*d, 1.5*tau*d].

    The residual is nondecreasing in alpha, so bisection on log(alpha)
    converges to the lower edge of the bracket; the returned solution is
    the smallest alpha found whose residual lies inside it.

    Raises NoiseLevelTooSmallError if the residual at alpha_min already
    exceeds the bracket, DataTooRoughError if the residual at alpha_max
    stays below it.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if tau <= 1:
        raise ValueError(f"tau must be > 1, got {tau}")
    target_lo = tau * delta
    target_hi = 1.5 * tau * delta

    _, res_min = _solve(problem, alpha_min)
    if res_min > target_hi:
        raise NoiseLevelTooSmallError(
            f"residual {res_min:.3e} at alpha={alpha_min:g} already exceeds "
            f"{target_hi:.3e}; the claimed noise level {delta:g} is below what "
            "the data can be fitted to"
        )
    _, res_max = _solve(problem, alpha_max)
    if res_max < target_lo:
        raise DataTooRoughError(
            f"residual {res_max:.3e} at alpha={alpha_max:g} is still below "
            f"{target_lo:.3e}; the noise level {delta:g} exceeds the data scale"
        )

    lo, hi = alpha_min, alpha_max
    best: Optional[tuple[float, np.ndarray, float]] = None
    for _ in range(max_iter):
        mid = float(np.sqrt(lo * hi))
        nodes, res = _solve(problem, mid)
        if target_lo <= res <= target_hi and (best is None or mid < best[0]):
            best = (mid, nodes, res)
        if res < target_lo:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0005 and best is not None:
            break
    if best is None:
        raise NumericalError(
            "discrepancy bisection did not land in the residual bracket "
            f"[{target_lo:.3e}, {target_hi:.3e}] within {max_iter} iterations"
        )
    alpha, nodes, res = best
    spline = ParameterSpline(problem.data.interval, nodes)
    return alpha, ReconstructionResult(spline=spline, alpha=alpha, residual=res)


def naive_reconstruction(
    data: TraceData, curve: CurveParametrization, n_elements: int
) -> ParameterSpline:
    """Direct differentiation baseline: a(h(s)) = y'(s) / h'(s).

    y' is estimated with central differences over the curve parameter
    (one-sided at the ends), h' comes from the curve analytically, and the
    pointwise estimates are resampled onto the uniform spline grid by
    nearest attained state.  Amplifies data noise by 1/ds; kept as the
    instability contrast for the regularized solver.
    """
    if data.m < 3:
        raise ValueError(f"need at least 3 data points, got {data.m}")
    s = data.s_nodes
    y = data.y_values
    ds = np.diff(s)
    dy = np.empty(data.m)
    dy[1:-1] = (y[2:] - y[:-2]) / (s[2:] - s[:-2])
    dy[0] = (y[1] - y[0]) / ds[0]
    dy[-1] = (y[-1] - y[-2]) / ds[-1]
    slope = np.asarray(curve.h_prime(s), dtype=float)
    if np.any(np.abs(slope) < 1e-8):
        i = int(np.argmax(np.abs(slope) < 1e-8))
        raise ZeroDivisionError(
            f"|h'(s)| = {abs(slope[i]):.2e} at s={s[i]!r} is too small to divide by"
        )
    estimates = dy / slope
    grid = data.interval.uniform_grid(n_elements)
    nearest = np.argmin(np.abs(data.h_values[None, :] - grid[:, None]), axis=1)
    return ParameterSpline(data.interval, estimates[nearest])
