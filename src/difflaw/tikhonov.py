"""Tikhonov regularization of the linearized identification problem.

The reconstruction minimizes

    ||T a - y||_W^2  +  alpha * (a^T K a  +  a^T P a)

over the nodal values a of the coefficient spline, where T is the forward
matrix, W the curve quadrature weights, K the exact form of the squared L2
norm of a' (equivalently of the second derivative of the antiderivative),
and P the form of the squared L2 norm of the antiderivative itself.  The
normalization A(u_min) = 0 is built into the antiderivative, so no
constraint rows are needed.  The unique minimizer solves the normal
equations (T^T W T + alpha (K + P)) a = T^T W y, whose system matrix is
symmetric positive definite.

`build_tikhonov_problem(data, n_elements)` assembles T^T W T, T^T W y and
K + P once per data set; alpha is chosen per solve, either directly with
`solve_tikhonov(problem, alpha)` or by the discrepancy principle with
`alpha_discrepancy(problem, delta)`, a bisection over log(alpha).  Also
provided: the two a-priori parameter-choice rules and the naive
differentiation reconstruction that serves as the instability baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .exceptions import DataTooRoughError, NoiseLevelTooSmallError, NumericalError
from .forward import CurveParametrization, TraceData, assemble_t_matrix, quadrature_norm
from .splines import ParameterSpline, StateInterval, _element_gauss_rule, antiderivative_weights

__all__ = [
    "TikhonovProblem",
    "ReconstructionResult",
    "gradient_penalty_matrix",
    "antiderivative_penalty_matrix",
    "build_tikhonov_problem",
    "solve_tikhonov",
    "tikhonov_objective",
    "alpha_a_priori",
    "alpha_discrepancy",
    "naive_reconstruction",
]


def gradient_penalty_matrix(interval: StateInterval, n_elements: int) -> np.ndarray:
    """Form of ||a'||^2_{L2(I)}, exact for the piecewise-linear spline.

    a' is piecewise constant, so the form is sum_j (a_{j+1} - a_j)^2 / dx.
    """
    n = int(n_elements)
    dx = interval.length / n
    diff = np.zeros((n, n + 1))
    idx = np.arange(n)
    diff[idx, idx] = -1.0
    diff[idx, idx + 1] = 1.0
    k = diff.T @ diff / dx
    return 0.5 * (k + k.T)


def antiderivative_penalty_matrix(interval: StateInterval, n_elements: int) -> np.ndarray:
    """Form of ||A||^2_{L2(I)}, exact for the piecewise-linear spline.

    A is quadratic per element, A^2 quartic, so 3-point Gauss per element
    integrates it exactly; its points are interior, so none can fall
    outside the interval by rounding.
    """
    n = int(n_elements)
    points, weights = _element_gauss_rule(interval, n)
    rows = antiderivative_weights(interval, n, points)
    p = rows.T @ (weights[:, None] * rows)
    return 0.5 * (p + p.T)


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Normal equations of the least-squares problem for one noisy data set.

    T^T W T and T^T W y are formed once, on construction; the parameter
    alpha is given per solve.  The system matrix T^T W T + alpha (K + P) is
    symmetric positive definite for alpha > 0 since P is definite on
    splines.
    """

    t_matrix: np.ndarray             # (m, n+1)
    y: np.ndarray                    # (m,)
    quad_weights: np.ndarray         # (m,)
    penalty: np.ndarray              # (n+1, n+1), K + P
    interval: StateInterval
    normal_matrix: np.ndarray = field(init=False, repr=False)  # T^T W T
    normal_rhs: np.ndarray = field(init=False, repr=False)     # T^T W y

    def __post_init__(self):
        m, nn = self.t_matrix.shape
        if self.y.shape != (m,) or self.quad_weights.shape != (m,):
            raise ValueError("y and quad_weights must match the matrix row count")
        if self.penalty.shape != (nn, nn):
            raise ValueError(f"penalty must be {nn}x{nn}")
        scale = max(np.max(np.abs(self.penalty)), 1.0)
        defect = np.max(np.abs(self.penalty - self.penalty.T)) / scale
        if defect > 1e-12:
            raise ValueError(f"penalty symmetry defect {defect:.2e} > 1e-12")
        w = self.quad_weights
        object.__setattr__(
            self, "normal_matrix", self.t_matrix.T @ (self.t_matrix * w[:, None])
        )
        object.__setattr__(self, "normal_rhs", (w * self.y) @ self.t_matrix)

    @property
    def n_elements(self) -> int:
        return self.t_matrix.shape[1] - 1


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered coefficient with the parameters of its solve."""

    spline: ParameterSpline
    alpha: float
    residual: float

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be >= 0")


def build_tikhonov_problem(
    data: TraceData, n_elements: int, penalty: Optional[np.ndarray] = None
) -> TikhonovProblem:
    """Assemble the normal equations for `data` on the n-element spline grid.

    The penalty K + P depends only on (interval, n_elements); a precomputed
    one can be passed in when assembling many problems on one grid.
    """
    interval = data.interval
    if penalty is None:
        penalty = gradient_penalty_matrix(interval, n_elements) + (
            antiderivative_penalty_matrix(interval, n_elements)
        )
    return TikhonovProblem(
        t_matrix=assemble_t_matrix(interval, n_elements, data),
        y=np.asarray(data.y_values, dtype=float),
        quad_weights=np.asarray(data.quad_weights, dtype=float),
        penalty=penalty,
        interval=interval,
    )


def _solve(problem: TikhonovProblem, alpha: float) -> tuple[np.ndarray, float]:
    """Cholesky solve of the normal equations at alpha: (nodes, residual)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    try:
        factor = cho_factor(problem.normal_matrix + alpha * problem.penalty)
    except LinAlgError as exc:
        raise NumericalError(
            f"normal-equation factorization failed at alpha={alpha!r} "
            f"(size {problem.penalty.shape[0]}); system not positive definite: {exc}"
        ) from exc
    nodes = cho_solve(factor, problem.normal_rhs)
    residual = quadrature_norm(problem.t_matrix @ nodes - problem.y, problem.quad_weights)
    return nodes, residual


def solve_tikhonov(problem: TikhonovProblem, alpha: float) -> ReconstructionResult:
    """Unique minimizer of the Tikhonov functional at parameter alpha > 0."""
    nodes, residual = _solve(problem, alpha)
    spline = ParameterSpline(problem.interval, nodes)
    return ReconstructionResult(spline=spline, alpha=float(alpha), residual=residual)


def tikhonov_objective(
    problem: TikhonovProblem, node_values: np.ndarray, alpha: float
) -> float:
    """Value of the Tikhonov functional at the given nodal values."""
    a = np.asarray(node_values, dtype=float)
    misfit = problem.t_matrix @ a - problem.y
    return float(
        np.sum(problem.quad_weights * misfit**2) + alpha * (a @ problem.penalty @ a)
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
    spline = ParameterSpline(problem.interval, nodes)
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
