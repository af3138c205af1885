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
half-width 2, factored by one banded Cholesky (LAPACK dpbtrf) per alpha.
The nodal values are a_0 = 2 d_0 / dx and a_j = (d_j - d_{j-1}) / dx.

The penalty K + P depends on the grid alone, so its band is assembled once
per (interval, n_elements), kept in a small memo and shared, read-only, by
every problem on that grid.  `build_tikhonov_problem(data, n_elements)`
assembles the band of T^T W T and the vector T^T W y once per data set;
alpha is chosen per solve, either directly with
`solve_tikhonov(problem, alpha)` or by the discrepancy principle with
`alpha_discrepancy(problem, delta)`, a safeguarded Newton iteration on
log(residual) against log(alpha) that stops once the residual lies in
[tau delta, tau delta (1 + 2.5e-4)], at the lower edge of the bracket
[tau delta, 1.5 tau delta].  Both return a `ReconstructionResult`, which
carries the alpha used.  Also provided: the two a-priori parameter-choice
rules and the naive differentiation reconstruction that serves as the
instability baseline.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

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

# discrepancy search: the initial bracket in alpha, the ratio hi/lo at which
# it gives up on Newton and returns the upper end, the relative width of the
# residual window [tau delta, tau delta (1 + DISCREPANCY_TOL)] it aims for,
# and the largest factor by which one Newton step may change alpha.  Newton
# gets as many steps as bisection needs to reach ALPHA_RATIO (17); after
# that the search bisects, so it ends within twice that many solves.
ALPHA_MIN = 1e-16
ALPHA_MAX = 1e4
ALPHA_RATIO = 1.0005
DISCREPANCY_TOL = 2.5e-4
MAX_LOG_STEP = np.log(100.0)
MAX_NEWTON_STEPS = int(
    np.ceil(np.log2(np.log(ALPHA_MAX / ALPHA_MIN) / np.log(ALPHA_RATIO)))
)


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
    """Upper band of sum_i w_i r_i r_i^T in LAPACK `dpbtrf` layout, (3, size)."""
    first, weights = rows
    band = np.zeros((3, size + 2))
    for p in range(3):
        for q in range(p, 3):
            products = row_weights * weights[:, p] * weights[:, q]
            band[2 + p - q] += np.bincount(first + q, products, minlength=size + 2)
    return band[:, :size]


def _band_apply(band: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M d for the symmetric M whose upper band is `band`."""
    out = band[2] * d
    for k in (1, 2):
        out[:-k] += band[2 - k, k:] * d[k:]
        out[k:] += band[2 - k, k:] * d[:-k]
    return out


def _nodes(d: np.ndarray, dx: float) -> np.ndarray:
    return np.concatenate(([2 * d[0]], np.diff(d))) / dx


def _coefficients(a: np.ndarray, dx: float) -> np.ndarray:
    return dx * (np.cumsum(a) - a[0] / 2)


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Banded normal equations of the least-squares problem for one data set.

    Built once by `build_tikhonov_problem`; the parameter alpha is given per
    solve.  The system matrix T^T W T + alpha (K + P) is symmetric positive
    definite for alpha > 0 since P is definite on splines.  Every array is
    read-only; the penalty band is shared by all problems on the same grid.
    """

    data: TraceData
    n_elements: int
    t_rows: tuple              # (first column, (m, 3) weights) of T in d
    normal_band: np.ndarray    # (3, n+1) upper band of T^T W T
    penalty_band: np.ndarray   # (3, n+1) upper band of K + P, shared per grid
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


@functools.lru_cache(maxsize=8)
def _penalty_band(interval: StateInterval, n: int) -> np.ndarray:
    """Read-only upper band of K + P on the n-element grid, (3, n+1)."""
    points, gauss_weights = _element_gauss_rule(interval, n)
    dx = interval.length / n
    # K: (a_{k+1} - a_k)^2 / dx = (d_{k+1} - 2 d_k + d_{k-1})^2 / dx^3
    k_rows = _fold(np.arange(n) - 1, np.tile([1.0, -2.0, 1.0], (n, 1)))
    p_rows = _value_rows(interval, n, points)
    rows = tuple(np.concatenate(pair) for pair in zip(k_rows, p_rows))
    band = _gram_band(rows, np.concatenate((np.full(n, dx**-3), gauss_weights)), n + 1)
    band.flags.writeable = False
    return band


def build_tikhonov_problem(data: TraceData, n_elements: int) -> TikhonovProblem:
    """Assemble the banded normal equations for `data` on the n-element grid.

    Raises ValueError unless n_elements is an integer >= 1, and DomainError
    if any state lies outside the spline interval (clamping must have
    happened upstream).
    """
    if not isinstance(n_elements, numbers.Integral) or n_elements < 1:
        raise ValueError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    n = int(n_elements)
    t_rows = _value_rows(data.interval, n, data.h_values)
    first, weights = t_rows
    wy = data.quad_weights * data.y_values
    rhs = sum(
        np.bincount(first + p, wy * weights[:, p], minlength=n + 3) for p in range(3)
    )[: n + 1]
    normal_band = _gram_band(t_rows, data.quad_weights, n + 1)
    for array in (*t_rows, normal_band, rhs):
        array.flags.writeable = False
    return TikhonovProblem(
        data=data,
        n_elements=n,
        t_rows=t_rows,
        normal_band=normal_band,
        penalty_band=_penalty_band(data.interval, n),
        normal_rhs=rhs,
    )


def _factor(problem: TikhonovProblem, alpha: float) -> np.ndarray:
    """Banded Cholesky factor of T^T W T + alpha (K + P), upper band (3, n+1)."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    factor, info = dpbtrf(problem.normal_band + alpha * problem.penalty_band)
    # LAPACK neither checks finiteness nor flags a NaN pivot, so a band that
    # overflowed shows only as a non-finite diagonal of the factor
    if info != 0 or not np.isfinite(factor[2]).all():
        raise NumericalError(
            f"normal-equation factorization failed at alpha={alpha!r} "
            f"(size {problem.n_elements + 1}, LAPACK info {info}); "
            "system not finite and positive definite"
        )
    return factor


def _apply_inverse(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs with the banded Cholesky factor of M from `_factor`."""
    x, _ = dpbtrs(factor, rhs)  # info < 0 only flags an illegal argument
    return x


def _solve(
    problem: TikhonovProblem, alpha: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Normal equations at alpha: (factor, B-spline coefficients d, residual)."""
    factor = _factor(problem, alpha)
    d = _apply_inverse(factor, problem.normal_rhs)
    data = problem.data
    residual = quadrature_norm(_apply(problem.t_rows, d) - data.y_values, data.quad_weights)
    return factor, d, residual


def _result(
    problem: TikhonovProblem, alpha: float, d: np.ndarray, residual: float
) -> ReconstructionResult:
    spline = ParameterSpline(problem.data.interval, _nodes(d, problem.spacing))
    return ReconstructionResult(spline=spline, alpha=float(alpha), residual=residual)


def solve_tikhonov(problem: TikhonovProblem, alpha: float) -> ReconstructionResult:
    """Unique minimizer of the Tikhonov functional at parameter alpha > 0."""
    _, d, residual = _solve(problem, alpha)
    return _result(problem, alpha, d, residual)


def tikhonov_objective(
    problem: TikhonovProblem, node_values: np.ndarray, alpha: float
) -> float:
    """Value of the Tikhonov functional at the given nodal values."""
    d = _coefficients(np.asarray(node_values, dtype=float), problem.spacing)
    misfit = _apply(problem.t_rows, d) - problem.data.y_values
    return float(
        np.sum(problem.data.quad_weights * misfit**2)
        + alpha * (d @ _band_apply(problem.penalty_band, d))
    )


def alpha_a_priori(delta: float, rule: str = "quadratic", coeff: float = 0.1) -> float:
    """A-priori regularization parameter from the noise level.

    rule="quadratic" gives delta^2; rule="eight_fifths" (with an
    underscore) gives coeff * delta^(8/5) with the default coefficient 0.1.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if rule == "quadratic":
        return float(delta) ** 2
    if rule == "eight_fifths":
        return coeff * float(delta) ** 1.6
    raise ValueError(f"unknown parameter-choice rule {rule!r}")


def alpha_discrepancy(
    problem: TikhonovProblem, delta: float, tau: float = 1.5
) -> ReconstructionResult:
    """Choose alpha a-posteriori so that the residual lands in [tau*d, 1.5*tau*d].

    The residual r is nondecreasing in alpha and tends to ||y||_W as alpha
    grows, so ||y||_W < tau*delta means no alpha can reach the bracket.
    Otherwise a safeguarded Newton iteration on ln r against ln alpha aims
    at the middle of the window [tau*d, tau*d (1 + DISCREPANCY_TOL)] at the
    lower edge of the bracket.  It starts at sqrt(ALPHA_MIN * ALPHA_MAX),
    changes alpha by at most a factor 100 per step, keeps the bracket
    (lo, hi) with r(lo) < tau*d <= r(hi), and bisects ln alpha whenever a
    step would leave it or after MAX_NEWTON_STEPS steps.  The slope costs
    one back-substitution with the factor already computed: from
    T^T W (T d - y) = -alpha (K + P) d,

        d ln r / d ln alpha = alpha^2 w^T M^{-1} w / r^2,  w = (K + P) d,

    with M = T^T W T + alpha (K + P).  The search stops when r lands in the
    window or, failing that, when hi/lo < ALPHA_RATIO, and returns the
    solution at hi.  When r(ALPHA_MIN) already lies in the bracket, the
    window is out of reach and the ALPHA_MIN solution is returned.

    Raises NoiseLevelTooSmallError if the residual at ALPHA_MIN already
    exceeds the bracket, DataTooRoughError if ||y||_W stays below it, and
    NumericalError if the upper end never lands inside it.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if not 1 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 1, got {tau}")
    target_lo = tau * delta
    target_hi = 1.5 * tau * delta
    window_hi = target_lo * (1 + DISCREPANCY_TOL)
    log_goal = np.log(target_lo * (1 + DISCREPANCY_TOL / 2))

    data = problem.data
    data_norm = quadrature_norm(data.y_values, data.quad_weights)
    if data_norm < target_lo:
        raise DataTooRoughError(
            f"data norm {data_norm:.3e}, the residual as alpha grows without bound, "
            f"is below {target_lo:.3e}; the noise level {delta:g} exceeds the data scale"
        )
    _, d, res = _solve(problem, ALPHA_MIN)
    if res > target_hi:
        raise NoiseLevelTooSmallError(
            f"residual {res:.3e} at alpha={ALPHA_MIN:g} already exceeds "
            f"{target_hi:.3e}; the claimed noise level {delta:g} is below what "
            "the data can be fitted to"
        )
    if res >= target_lo:
        return _result(problem, ALPHA_MIN, d, res)

    lo, hi = ALPHA_MIN, ALPHA_MAX
    upper = None  # (d, residual) at hi once a tried alpha has reached tau*delta
    alpha = float(np.sqrt(lo * hi))
    for solves in itertools.count(1):
        factor, d, res = _solve(problem, alpha)
        if res < target_lo:
            lo = alpha
        else:
            hi, upper = alpha, (d, res)
        if target_lo <= res <= window_hi or hi / lo < ALPHA_RATIO:
            break
        if solves <= MAX_NEWTON_STEPS:
            w = _band_apply(problem.penalty_band, d)
            slope = alpha**2 * (w @ _apply_inverse(factor, w)) / res**2
            gap = log_goal - np.log(res)
            if abs(gap) < MAX_LOG_STEP * slope:
                step = gap / slope
            else:  # also when slope = 0, i.e. (K + P) d = 0
                step = np.copysign(MAX_LOG_STEP, gap)
            alpha *= np.exp(step)
        if not lo < alpha < hi:
            alpha = float(np.sqrt(lo * hi))
    if upper is None or upper[1] > target_hi:
        raise NumericalError(
            "discrepancy search did not land in the residual bracket "
            f"[{target_lo:.3e}, {target_hi:.3e}]"
        )
    return _result(problem, hi, *upper)


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
