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
every problem on that grid; `difflaw.hilbert_scale` builds the scale of the
penalty from the same band and rows.  `build_tikhonov_problem(data, n_elements)`
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
alone.  A member whose band fails to factor gets the identity in its
block, and dpbtrf goes on from the next member; when a solution
overflows, dpbtrs solves each member on its own.  A stack returns a tuple
in stack order of each member's result or of the exception it raises
alone, and a failed member leaves the discrepancy search.  Also provided:
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
from .splines import ParameterSpline, StateInterval, _apply_rows, _columns, _element_gauss_rule
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
        weighted = row_weights * weights[p]
        for q in range(p, 3):
            products = (weighted * weights[q]).ravel()
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
    t_rows: tuple              # (first column (S, m), weights (3, S, m)) of T in d
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


def _penalty_rows(interval: StateInterval, n: int) -> tuple:
    """The rows of K and of P on the n-element grid, apart: (rows, row weights) each.

    d^T K d = ||A''||^2 and d^T P d = ||A||^2 are the weighted sums of the
    squares of their rows' products with d.
    """
    points, gauss_weights = _element_gauss_rule(interval, n)
    dx = interval.length / n
    try:
        k_weight = dx**-3
    except OverflowError:
        message = f"1/dx^3 overflows on n={n} elements of length {interval.length!r}"
        raise NumericalError(message) from None
    # K: (a_{k+1} - a_k)^2 / dx = (d_{k+1} - 2 d_k + d_{k-1})^2 / dx^3
    k_rows = _fold(np.arange(n) - 1, np.repeat([[1.0], [-2.0], [1.0]], n, axis=1))
    return (k_rows, np.full(n, k_weight)), (_value_rows(interval, n, points), gauss_weights)


@functools.lru_cache(maxsize=8)
def _penalty_band(interval: StateInterval, n: int) -> np.ndarray:
    """Read-only lower band of K + P on the n-element grid, (n+1, 3)."""
    (k_rows, k_weights), (p_rows, p_weights) = _penalty_rows(interval, n)
    rows = tuple(np.concatenate(pair, axis=-1) for pair in zip(k_rows, p_rows))
    band = _gram_band(rows, np.concatenate((k_weights, p_weights)), n + 1)
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
        np.bincount(columns + p, (wy * weights[p]).ravel(), minlength=count * width)
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


def _selected(array: np.ndarray, members, axis: int = 0) -> np.ndarray:
    """The given members of `array` along its stack axis: `array` itself when they are all."""
    return array if len(members) == array.shape[axis] else array.take(members, axis)


def _factor(problem: TikhonovProblem, alphas, members) -> tuple[np.ndarray, list]:
    """Banded Cholesky factors of T^T W T + alpha (K + P) for the given members.

    `members` lists distinct indices of the stack in increasing order, and
    `alphas` holds one alpha > 0 for each of them.  Their lower bands are
    formed side by side in one (len(members), n+1, 3) array, which dpbtrf
    factors in place.  Returns that array, holding L (the identity for a
    member that fails), and per member None or its NumericalError.
    """
    size = problem.n_elements + 1
    normal_band = _selected(problem.normal_band, members)
    band = np.empty(normal_band.shape)
    errors, start = [None] * len(alphas), 0
    while start < len(alphas):
        rest = band[start:]
        np.multiply.outer(alphas[start:], problem.penalty_band, out=rest)
        rest += normal_band[start:]
        status = int64()
        _dpbtrf(b"L", int64(rest.size // 3), int64(2), dptr(rest), int64(3), status, 1)
        info = status.value
        # LAPACK neither checks finiteness nor flags a NaN pivot, so a band that
        # overflowed shows only as a non-finite diagonal of the factor: the
        # first such member fails, or else the member LAPACK stopped in
        stop = (info - 1) // size if info > 0 else len(rest)
        finite = np.isfinite(rest[:stop, :, 0]).all(axis=1)
        k = stop if finite.all() else int(np.argmin(finite))
        if k == len(rest):
            break
        info = info - k * size if k == stop else 0
        errors[start + k] = NumericalError(
            f"normal-equation factorization failed at alpha={alphas[start + k]!r} "
            f"(size {size}, LAPACK info {info}); system not finite and positive definite"
        )
        rest[k] = (1.0, 0.0, 0.0)
        start += k + 1
    return band, errors


def _apply_inverse(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs, rhs (k, n+1), member by member with the factor of `_factor`."""
    x = np.array(rhs, dtype=float)
    if 3 * x.size != factor.size:
        raise ValueError(f"right-hand sides {x.shape} do not fit the factor {factor.shape}")
    # the status is not read: dpbtrs fails only on an illegal argument
    n = int64(x.size)
    _dpbtrs(b"L", n, int64(2), int64(1), dptr(factor), int64(3), dptr(x), n, int64(), 1)
    if len(x) > 1 and not np.isfinite(x).all():
        # a member whose solution overflows makes the zeros that couple it
        # to its neighbours NaN (0 * inf): then each member is solved alone
        x = np.concatenate([_apply_inverse(f[None], b[None]) for f, b in zip(factor, rhs)])
    return x


def _solve(problem: TikhonovProblem, alphas, members) -> tuple:
    """Normal equations of the given members at their alphas.

    Returns the factor, the B-spline coefficients d (k, n+1), the residuals
    ||T d - y||_W as floats and the errors of `_factor`.
    """
    factor, errors = _factor(problem, alphas, members)
    d = _apply_inverse(factor, _selected(problem.normal_rhs, members))
    first, weights = problem.t_rows
    rows = (_selected(first, members), _selected(weights, members, axis=1))
    misfit = _apply_rows(rows, d, paired=True) - _selected(problem.y_values, members)
    return factor, d, quadrature_norm(misfit, problem.quad_weights).tolist(), errors


def _results(problem: TikhonovProblem, outcomes):
    """Each member's ReconstructionResult from its (alpha, d, residual), or its error.

    A stack gives them as a tuple in stack order; a problem built from one
    TraceData returns its result or raises its error.
    """
    # every member's nodes in one pass; a failed member's d is a placeholder
    d = [np.zeros(problem.n_elements + 1) if isinstance(o, Exception) else o[1] for o in outcomes]
    results = []
    for outcome, a in zip(outcomes, _nodes(np.stack(d), problem.spacing)):
        if not isinstance(outcome, Exception):
            alpha, _, residual = outcome
            try:  # a solve that left the floats gives non-finite nodes
                spline = ParameterSpline(problem.members[0].interval, a)
                outcome = ReconstructionResult(spline, alpha=float(alpha), residual=residual)
            except ValueError as exc:
                outcome = exc
        results.append(outcome)
    if not isinstance(problem.data, TraceData):
        return tuple(results)
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _per_member(problem: TikhonovProblem, value, name: str) -> list:
    """One finite `name` > 0 per member of the stack, from one value or a sequence."""
    size = len(problem.members)
    values = list(value) if np.ndim(value) else [value] * size
    if len(values) != size:
        raise ValueError(f"need one value per member ({size}), got {len(values)}")
    for item in values:
        if not 0 < item < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {item}")
    return values


def solve_tikhonov(problem: TikhonovProblem, alpha):
    """Unique minimizer of the Tikhonov functional at parameter alpha > 0.

    alpha is one value for every member or a sequence of one per member.
    Returns the ReconstructionResult of a problem built from one TraceData,
    or raises its error; for a stack, a tuple in stack order of each
    member's result or of the exception it raises alone.
    """
    alphas = _per_member(problem, alpha, "alpha")
    _, d, residuals, errors = _solve(problem, alphas, np.arange(len(alphas)))
    outcomes = zip(errors, alphas, d, residuals)
    return _results(problem, [(a, x, r) if e is None else e for e, a, x, r in outcomes])


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
    delta, and coeff under eight_fifths, must be finite and > 0, and so
    must the alpha they give.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if rule == "eight_fifths" and not 0 < coeff < np.inf:
        raise ValueError(f"coeff must be finite and > 0, got {coeff}")
    if rule not in ("quadratic", "eight_fifths"):
        raise ValueError(f"unknown parameter-choice rule {rule!r}")
    try:
        alpha = float(delta) ** 2 if rule == "quadratic" else coeff * float(delta) ** 1.6
    except OverflowError:
        alpha = np.inf
    if not 0 < alpha < np.inf:
        raise ValueError(f"the {rule} rule gives alpha={alpha} at delta={delta!r}")
    return alpha


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
    in alpha.  The members search side by side: each round factors and
    solves the members still searching in one call, and a member drops out
    of the rounds once its search is over or has failed.

    A member fails with NoiseLevelTooSmallError if its residual at
    ALPHA_MIN already exceeds the bracket, DataTooRoughError if ||y||_W
    stays below it, and NumericalError if a factorization fails or the upper
    end never lands inside it.  Returns what `solve_tikhonov` returns.
    """
    deltas = _per_member(problem, delta, "delta")
    if not 1 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 1, got {tau}")
    starts = [None] * len(deltas)
    if alpha_start is not None:
        starts = _per_member(problem, alpha_start, "alpha_start")
    searches = [_Search(value, tau, start) for value, start in zip(deltas, starts)]
    data_norms = quadrature_norm(problem.y_values, problem.quad_weights)
    # per member: (alpha, d, residual) or its error, once it is done
    outcomes = [None] * len(searches)
    _, d, res, errors = _solve(problem, [ALPHA_MIN] * len(searches), np.arange(len(searches)))
    for i, (value, search, data_norm) in enumerate(zip(deltas, searches, data_norms)):
        if data_norm < search.target_lo:
            outcomes[i] = DataTooRoughError(
                f"data norm {data_norm:.3e}, the residual as alpha grows without bound, "
                f"is below {search.target_lo:.3e}; the noise level {value:g} exceeds "
                "the data scale"
            )
        elif errors[i] is not None:
            outcomes[i] = errors[i]
        elif res[i] > search.target_hi:
            outcomes[i] = NoiseLevelTooSmallError(
                f"residual {res[i]:.3e} at alpha={ALPHA_MIN:g} already exceeds "
                f"{search.target_hi:.3e}; the claimed noise level {value:g} is below what "
                "the data can be fitted to"
            )
        elif res[i] >= search.target_lo:
            outcomes[i] = (ALPHA_MIN, d[i], res[i])

    active = [i for i, outcome in enumerate(outcomes) if outcome is None]
    while active:
        factor, d, res, errors = _solve(problem, [searches[i].alpha for i in active], active)
        going = []
        for j, i in enumerate(active):
            if errors[j] is not None:
                outcomes[i] = errors[j]
            elif not searches[i].landed(d[j], res[j]):
                going.append(j)
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
        if outcomes[i] is None and (search.upper is None or search.upper[1] > search.target_hi):
            outcomes[i] = NumericalError(
                "discrepancy search did not land in the residual bracket "
                f"[{search.target_lo:.3e}, {search.target_hi:.3e}]"
            )
        elif outcomes[i] is None:
            outcomes[i] = (search.hi, *search.upper)
    return _results(problem, outcomes)


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
