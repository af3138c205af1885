"""Tikhonov regularization of the linearized identification problem.

The reconstruction minimizes

    ||T a - y||_W^2  +  alpha * (||a'||^2 + ||A||^2)

over the nodal values a of the coefficient spline, where T maps a to its
antiderivative A(u) = int_{u_min}^u a at the measured states, W holds the
curve quadrature weights, and both penalty terms are exact L2 norms over
the state interval (||a'|| = ||A''||).

The system is solved in the coefficients d of A in the quadratic B-spline
basis that `difflaw.splines` owns; this module does the band and row
algebra on its rows.  Every row of T and of the penalties has three
nonzeros, so the normal matrix T^T W T + alpha (K + P) is a symmetric
positive definite band of half-width 2, factored by one banded Cholesky
(LAPACK dpbtrf) per alpha and solved with that factor (dpbtrs).  Every band
is stored once, in LAPACK's lower layout: the C-order (..., n+1, 3) array
whose row j holds M[j, j], M[j+1, j] and M[j+2, j], which is the Fortran
(3, n+1) band both routines take with uplo = 'L'; there, the rank-one
update at each column of dpbtrf runs on unit-stride vectors.  LAPACK is
numpy's own: the OpenBLAS that numpy's wheels bundle as scipy-openblas64,
called through ctypes with 64-bit integers.

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
carries the alpha used.

A problem is a stack of S members, one per data set; the data sets share
the interval and the quadrature, and a single `TraceData` is a stack of
one.  Every array but the penalty band has a leading stack axis, and each
member is solved with its own alpha (or delta).  The members' bands are
laid end to end in one (S, n+1, 3) array, LAPACK's (3, S (n+1)) band: the
entries that would couple two blocks are the ones past each member's last
row, M[n+1, n], M[n+2, n] and M[n+1, n-1], all zeros, so one dpbtrf and one
dpbtrs call factor and solve every member, each bit for bit as it would be
alone.  A stack returns a tuple of results in stack order.  Also provided:
the two a-priori parameter-choice rules and the naive differentiation
reconstruction that serves as the instability baseline.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from ._lapack import DOUBLES, INT, bind, dptr, int64
from .exceptions import DataTooRoughError, NoiseLevelTooSmallError, NumericalError
from .forward import CurveParametrization, TraceData, quadrature_norm
from .splines import ParameterSpline, StateInterval, _element_gauss_rule
from .splines import _antiderivative, _coefficients, _fold, _nodes, _value_rows  # basis of A

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


# (uplo, n, kd, ab, ldab, info) and (uplo, n, kd, nrhs, ab, ldab, b, ldb, info)
_dpbtrf = bind("dpbtrf", INT, INT, DOUBLES, INT, INT)
_dpbtrs = bind("dpbtrs", INT, INT, INT, DOUBLES, INT, DOUBLES, INT, INT)


def _columns(first: np.ndarray, width: int) -> np.ndarray:
    """Columns `first` shifted into member blocks of `width` laid end to end."""
    count = first.size // first.shape[-1]
    return first + width * np.arange(count).reshape(first.shape[:-1] + (1,))


def _apply(rows: tuple[np.ndarray, np.ndarray], d: np.ndarray) -> np.ndarray:
    """Row-by-row products with the coefficient vectors d, member by member."""
    first, weights = rows
    padded = np.zeros(d.shape[:-1] + (d.shape[-1] + 2,))
    padded[..., :-2] = d
    columns, values = _columns(first, padded.shape[-1]), padded.ravel()
    out = np.take(values, columns)
    out *= weights[..., 0]
    for p in (1, 2):
        term = np.take(values, columns + p)
        term *= weights[..., p]
        out += term
    return out


def _gram_band(
    rows: tuple[np.ndarray, np.ndarray], row_weights: np.ndarray, size: int
) -> np.ndarray:
    """Lower band of sum_i w_i r_i r_i^T in LAPACK `dpbtrf` layout, (..., size, 3).

    No row reaches past column size - 1, so the entries past the last row are zeros.
    """
    first, weights = rows
    stack = first.shape[:-1]
    columns = _columns(first, size + 2).ravel()
    band = np.zeros((int(np.prod(stack)) * (size + 2), 3))
    for p in range(3):
        weighted = row_weights * weights[..., p]
        for q in range(p, 3):
            products = (weighted * weights[..., q]).ravel()
            band[:, q - p] += np.bincount(columns + p, products, minlength=len(band))
    return band.reshape((*stack, size + 2, 3))[..., :size, :]


def _band_apply(band: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M d for the symmetric M whose lower band is `band`, member by member."""
    out = band[..., 0] * d
    for k in (1, 2):
        out[..., :-k] += band[..., :-k, k] * d[..., k:]
        out[..., k:] += band[..., :-k, k] * d[..., :-k]
    return out


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Banded normal equations of the least-squares problems of a stack of data sets.

    Built once by `build_tikhonov_problem`; the parameter alpha is given per
    solve and per member.  The system matrix T^T W T + alpha (K + P) is
    symmetric positive definite for alpha > 0 since P is definite on
    splines.  Every array is read-only; the penalty band is shared by all
    problems on the same grid.
    """

    data: TraceData | tuple    # one data set, or the stack's S data sets
    n_elements: int
    t_rows: tuple              # (first column (S, m), weights (S, m, 3)) of T in d
    normal_band: np.ndarray    # (S, n+1, 3) lower bands of T^T W T
    penalty_band: np.ndarray   # (n+1, 3) lower band of K + P, shared per grid
    normal_rhs: np.ndarray     # (S, n+1) T^T W y
    y_values: np.ndarray       # (S, m) data of the members

    @property
    def members(self) -> tuple:
        """The data sets of the stack, in stack order."""
        return (self.data,) if isinstance(self.data, TraceData) else self.data

    @property
    def quad_weights(self) -> np.ndarray:
        return self.members[0].quad_weights

    @property
    def spacing(self) -> float:
        return self.members[0].interval.length / self.n_elements


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
    """Read-only lower band of K + P on the n-element grid, (n+1, 3)."""
    points, gauss_weights = _element_gauss_rule(interval, n)
    dx = interval.length / n
    # K: (a_{k+1} - a_k)^2 / dx = (d_{k+1} - 2 d_k + d_{k-1})^2 / dx^3
    k_rows = _fold(np.arange(n) - 1, np.tile([1.0, -2.0, 1.0], (n, 1)))
    p_rows = _value_rows(interval, n, points)
    rows = tuple(np.concatenate(pair) for pair in zip(k_rows, p_rows))
    band = _gram_band(rows, np.concatenate((np.full(n, dx**-3), gauss_weights)), n + 1)
    band.flags.writeable = False
    return band


def _same(ours: np.ndarray, theirs: np.ndarray) -> bool:
    # noisy data from `add_noise` shares the arrays of its source
    return ours is theirs or np.array_equal(ours, theirs)


def _stack_members(data) -> tuple:
    """The data sets of a stack: `data` itself, or a sequence sharing its grid."""
    members = (data,) if isinstance(data, TraceData) else tuple(data)
    if not members or not all(isinstance(member, TraceData) for member in members):
        raise ValueError("data must be a TraceData or a non-empty sequence of them")
    head = members[0]
    for member in members[1:]:
        if not (
            member.interval == head.interval
            and _same(member.s_nodes, head.s_nodes)
            and _same(member.quad_weights, head.quad_weights)
        ):
            raise ValueError(
                "stacked data sets must share the interval, s_nodes and quad_weights"
            )
    return members


def build_tikhonov_problem(data, n_elements: int) -> TikhonovProblem:
    """Assemble the banded normal equations for `data` on the n-element grid.

    `data` is one TraceData or a sequence of them that share the interval,
    s_nodes and quad_weights; each becomes one member of the stack.  Raises
    ValueError unless n_elements is an integer >= 1 or for any other data,
    and DomainError if any state lies outside the spline interval (clamping
    must have happened upstream).
    """
    if not isinstance(n_elements, numbers.Integral) or n_elements < 1:
        raise ValueError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    n = int(n_elements)
    members = _stack_members(data)
    interval, quad_weights = members[0].interval, members[0].quad_weights
    y = np.stack([member.y_values for member in members])
    t_rows = _value_rows(interval, n, np.stack([member.h_values for member in members]))
    first, weights = t_rows
    count, width = len(members), n + 3
    columns = _columns(first, width).ravel()
    wy = quad_weights * y
    rhs = sum(
        np.bincount(columns + p, (wy * weights[..., p]).ravel(), minlength=count * width)
        for p in range(3)
    ).reshape(count, width)[:, : n + 1]
    normal_band = _gram_band(t_rows, quad_weights, n + 1)
    for array in (*t_rows, normal_band, rhs, y):
        array.flags.writeable = False
    return TikhonovProblem(
        data=data if isinstance(data, TraceData) else members,
        n_elements=n,
        t_rows=t_rows,
        normal_band=normal_band,
        penalty_band=_penalty_band(interval, n),
        normal_rhs=rhs,
        y_values=y,
    )


def _selected(array: np.ndarray, members) -> np.ndarray:
    """The rows of `array` for the given members: `array` itself when they are all."""
    return array if len(members) == len(array) else array[members]


def _factor(problem: TikhonovProblem, alphas, members) -> np.ndarray:
    """Banded Cholesky factor of T^T W T + alpha (K + P) for the given members.

    `members` lists distinct indices of the stack in increasing order, and
    `alphas` holds one alpha for each of them.  Their lower bands are formed
    side by side in one (len(members), n+1, 3) array, which dpbtrf factors
    in place; returns that array, holding L.
    """
    for alpha in alphas:
        if not 0 < alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    size = problem.n_elements + 1
    band = np.multiply.outer(alphas, problem.penalty_band)
    band += _selected(problem.normal_band, members)
    status = int64()
    _dpbtrf(b"L", int64(band.size // 3), int64(2), dptr(band), int64(3), status, 1)
    info = status.value
    # LAPACK neither checks finiteness nor flags a NaN pivot, so a band that
    # overflowed shows only as a non-finite diagonal of the factor
    finite = np.isfinite(band[..., 0]).all(axis=1)
    if info != 0 or not finite.all():
        k = (info - 1) // size if info > 0 else int(np.argmin(finite))
        raise NumericalError(
            f"normal-equation factorization failed at alpha={alphas[k]!r} "
            f"(size {size}, LAPACK info {info - k * size if info > 0 else info}); "
            "system not finite and positive definite"
        )
    return band


def _apply_inverse(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs, rhs (k, n+1), member by member with the factor of `_factor`."""
    x = np.array(rhs, dtype=float)
    if 3 * x.size != factor.size:
        raise ValueError(f"right-hand sides {x.shape} do not fit the factor {factor.shape}")
    # the status is not read: dpbtrs fails only on an illegal argument
    n = int64(x.size)
    _dpbtrs(b"L", n, int64(2), int64(1), dptr(factor), int64(3), dptr(x), n, int64(), 1)
    return x


def _solve(
    problem: TikhonovProblem, alphas, members
) -> tuple[np.ndarray, np.ndarray, list]:
    """Normal equations of the given members at their alphas.

    Returns the factor, the B-spline coefficients d (k, n+1) and the
    residuals ||T d - y||_W as floats.
    """
    factor = _factor(problem, alphas, members)
    d = _apply_inverse(factor, _selected(problem.normal_rhs, members))
    rows = tuple(_selected(array, members) for array in problem.t_rows)
    misfit = _apply(rows, d) - _selected(problem.y_values, members)
    return factor, d, quadrature_norm(misfit, problem.quad_weights).tolist()


def _results(problem: TikhonovProblem, alphas, d, residuals):
    """One ReconstructionResult per member: a tuple for a stack, else the one."""
    interval = problem.members[0].interval
    nodes = _nodes(np.asarray(d), problem.spacing)
    results = tuple(
        ReconstructionResult(ParameterSpline(interval, a), alpha=float(alpha), residual=r)
        for alpha, a, r in zip(alphas, nodes, residuals)
    )
    return results[0] if isinstance(problem.data, TraceData) else results


def _per_member(problem: TikhonovProblem, value) -> list:
    """One value per member of the stack, from one value or a sequence of them."""
    size = len(problem.members)
    values = list(value) if np.ndim(value) else [value] * size
    if len(values) != size:
        raise ValueError(f"need one value per member ({size}), got {len(values)}")
    return values


def solve_tikhonov(problem: TikhonovProblem, alpha):
    """Unique minimizer of the Tikhonov functional at parameter alpha > 0.

    alpha is one value for every member or a sequence of one per member.
    Returns a ReconstructionResult for a problem built from one TraceData,
    else a tuple of them in stack order.
    """
    alphas = _per_member(problem, alpha)
    _, d, residuals = _solve(problem, alphas, np.arange(len(alphas)))
    return _results(problem, alphas, d, residuals)


def tikhonov_objective(problem: TikhonovProblem, node_values: np.ndarray, alpha: float):
    """Value of the Tikhonov functional at the given nodal values.

    node_values is one vector (n+1,), giving a float, or a stack (k, n+1),
    giving an array of k values.  Defined for a problem built from one
    TraceData; raises ValueError for a stack of data sets.
    """
    if not isinstance(problem.data, TraceData):
        raise ValueError("tikhonov_objective takes a problem built from one data set")
    node_values = np.asarray(node_values, dtype=float)
    d = np.atleast_2d(_coefficients(node_values, problem.spacing))
    data = problem.data
    misfit = _antiderivative(data.interval, np.atleast_2d(node_values), data.h_values)
    misfit -= data.y_values
    value = np.sum(data.quad_weights * misfit**2, axis=-1) + alpha * np.vecdot(
        d, _band_apply(problem.penalty_band, d)
    )
    return float(value[0]) if node_values.ndim == 1 else value


def alpha_a_priori(delta: float, rule: str = "quadratic", coeff: float = 0.1) -> float:
    """A-priori regularization parameter from the noise level.

    rule="quadratic" gives delta^2; rule="eight_fifths" (with an
    underscore) gives coeff * delta^(8/5) with the default coefficient 0.1.
    delta, and coeff under eight_fifths, must be finite and > 0.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if rule == "quadratic":
        return float(delta) ** 2
    if rule == "eight_fifths":
        if not 0 < coeff < np.inf:
            raise ValueError(f"coeff must be finite and > 0, got {coeff}")
        return coeff * float(delta) ** 1.6
    raise ValueError(f"unknown parameter-choice rule {rule!r}")


class _Search:
    """One member's bracket and Newton iterate in `alpha_discrepancy`."""

    def __init__(self, delta: float, tau: float, alpha_start: float | None):
        self.target_lo = target_lo = tau * delta
        self.target_hi = 1.5 * tau * delta
        self.window_hi = target_lo * (1 + DISCREPANCY_TOL)
        self.log_goal = np.log(target_lo * (1 + DISCREPANCY_TOL / 2))
        self.lo, self.hi = ALPHA_MIN, ALPHA_MAX
        self.upper = None  # (d, residual) at hi once a tried alpha has reached target_lo
        self.alpha = float(np.sqrt(self.lo * self.hi) if alpha_start is None else alpha_start)
        self.keep_in_bracket()
        self.solves = 0

    def landed(self, d: np.ndarray, res: float) -> bool:
        """Take in the solve at self.alpha; True once the search is over."""
        self.solves += 1
        if res < self.target_lo:
            self.lo = self.alpha
        else:
            self.hi, self.upper = self.alpha, (d, res)
        return self.target_lo <= res <= self.window_hi or self.hi / self.lo < ALPHA_RATIO

    def newton_step(self, res: float, w_minv_w: float) -> None:
        """Move alpha by a Newton step on ln r, given w^T M^{-1} w."""
        slope = self.alpha**2 * w_minv_w / res**2
        gap = self.log_goal - np.log(res)
        if abs(gap) < MAX_LOG_STEP * slope:
            step = gap / slope
        else:  # also when slope = 0, i.e. (K + P) d = 0
            step = np.copysign(MAX_LOG_STEP, gap)
        self.alpha *= np.exp(step)

    def keep_in_bracket(self) -> None:
        if not self.lo < self.alpha < self.hi:
            self.alpha = float(np.sqrt(self.lo * self.hi))


def alpha_discrepancy(problem: TikhonovProblem, delta, tau: float = 1.5, alpha_start=None):
    """Choose alpha a-posteriori so that the residual lands in [tau*d, 1.5*tau*d].

    The residual r is nondecreasing in alpha and tends to ||y||_W as alpha
    grows, so ||y||_W < tau*delta means no alpha can reach the bracket.
    Otherwise a safeguarded Newton iteration on ln r against ln alpha aims
    at the middle of the window [tau*d, tau*d (1 + DISCREPANCY_TOL)] at the
    lower edge of the bracket.  It starts at alpha_start, or at
    sqrt(ALPHA_MIN * ALPHA_MAX) when that is None or lies outside
    (ALPHA_MIN, ALPHA_MAX), changes alpha by at most a factor 100 per step,
    keeps the bracket (lo, hi) with r(lo) < tau*d <= r(hi), and bisects
    ln alpha whenever a step would leave it or after MAX_NEWTON_STEPS
    steps.  The slope costs one back-substitution with the factor already
    computed: from T^T W (T d - y) = -alpha (K + P) d,

        d ln r / d ln alpha = alpha^2 w^T M^{-1} w / r^2,  w = (K + P) d,

    with M = T^T W T + alpha (K + P).  The search stops when r lands in the
    window or, failing that, when hi/lo < ALPHA_RATIO, and returns the
    solution at hi.  When r(ALPHA_MIN) already lies in the bracket, the
    window is out of reach and the ALPHA_MIN solution is returned.

    delta is one noise level for every member or a sequence of one per
    member, and so is alpha_start unless None; a start must be finite and
    > 0.  A start near the answer saves Newton rounds; an answer that lands
    in the window moves with the start by no more than the window's width
    in alpha.  The members search side by side: each round
    factors and solves the members still searching in one call, and a
    member drops out of the rounds once its search is over.  Returns a
    ReconstructionResult for a problem built from one TraceData, else a
    tuple of them in stack order.

    Raises NoiseLevelTooSmallError if the residual at ALPHA_MIN already
    exceeds the bracket, DataTooRoughError if ||y||_W stays below it, and
    NumericalError if the upper end never lands inside it, for any member.
    """
    deltas = _per_member(problem, delta)
    for value in deltas:
        if not 0 < value < np.inf:
            raise ValueError(f"delta must be finite and > 0, got {value}")
    if not 1 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 1, got {tau}")
    starts = [None] * len(deltas)
    if alpha_start is not None:
        starts = _per_member(problem, alpha_start)
        for value in starts:
            if not 0 < value < np.inf:
                raise ValueError(f"alpha_start must be finite and > 0, got {value}")
    searches = [_Search(value, tau, start) for value, start in zip(deltas, starts)]
    data_norms = quadrature_norm(problem.y_values, problem.quad_weights)
    for value, search, data_norm in zip(deltas, searches, data_norms):
        if data_norm < search.target_lo:
            raise DataTooRoughError(
                f"data norm {data_norm:.3e}, the residual as alpha grows without bound, "
                f"is below {search.target_lo:.3e}; the noise level {value:g} exceeds "
                "the data scale"
            )

    outcomes = [None] * len(searches)  # (alpha, d, residual) once a member is done
    _, d, res = _solve(problem, [ALPHA_MIN] * len(searches), np.arange(len(searches)))
    for i, (value, search) in enumerate(zip(deltas, searches)):
        if res[i] > search.target_hi:
            raise NoiseLevelTooSmallError(
                f"residual {res[i]:.3e} at alpha={ALPHA_MIN:g} already exceeds "
                f"{search.target_hi:.3e}; the claimed noise level {value:g} is below what "
                "the data can be fitted to"
            )
        if res[i] >= search.target_lo:
            outcomes[i] = (ALPHA_MIN, d[i], res[i])

    active = [i for i, outcome in enumerate(outcomes) if outcome is None]
    while active:
        factor, d, res = _solve(problem, [searches[i].alpha for i in active], active)
        going = [j for j, i in enumerate(active) if not searches[i].landed(d[j], res[j])]
        x = None
        for j in going:
            search = searches[active[j]]
            if search.solves <= MAX_NEWTON_STEPS:
                if x is None:  # one back-substitution gives every member's slope
                    w = _band_apply(problem.penalty_band, d)
                    x = _apply_inverse(factor, w)
                search.newton_step(res[j], w[j] @ x[j])
            search.keep_in_bracket()
        active = [active[j] for j in going]

    for i, search in enumerate(searches):
        if outcomes[i] is not None:
            continue
        if search.upper is None or search.upper[1] > search.target_hi:
            raise NumericalError(
                "discrepancy search did not land in the residual bracket "
                f"[{search.target_lo:.3e}, {search.target_hi:.3e}]"
            )
        outcomes[i] = (search.hi, *search.upper)
    return _results(problem, *zip(*outcomes))


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
