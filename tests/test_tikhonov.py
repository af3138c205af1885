import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difflaw import (
    DataTooRoughError,
    NoiseLevelTooSmallError,
    NumericalError,
    ParameterSpline,
    StateInterval,
    TraceData,
    add_noise,
    alpha_a_priori,
    alpha_discrepancy,
    antiderivative_l2_norm,
    build_tikhonov_problem,
    checks,
    make_exact_data,
    naive_reconstruction,
    reference_curve,
    reference_exact_data,
    reference_interval,
    solve_tikhonov,
    tikhonov_objective,
)
from difflaw._lapack import DOUBLES, INT, dptr, int64
from difflaw._lapack import bind as _lapack
from difflaw.tikhonov import (
    ALPHA_MIN,
    DISCREPANCY_TOL,
    _apply_inverse,
    _factor,
    _penalty_band,
)


def _noisy(exact_data, delta, seed):
    return add_noise(exact_data, delta, np.random.default_rng(seed))


def _data_on(interval, seed, m=40):
    rng = np.random.default_rng(seed)
    return TraceData(
        s_nodes=np.linspace(0.0, 1.0, m),
        quad_weights=np.full(m, 1.0 / m),
        h_values=rng.uniform(interval.u_min, interval.u_max, m),
        y_values=rng.normal(size=m),
        delta=0.0,
        interval=interval,
    )


def _penalty(spline):
    # ||A''||^2 + ||A||^2, with A'' = a' piecewise constant
    grad_sq = np.sum(np.diff(spline.node_values) ** 2) / spline.spacing
    return grad_sq + antiderivative_l2_norm(spline) ** 2


def test_zero_data_gives_zero_spline(exact_data):
    data = replace(exact_data, y_values=np.zeros(exact_data.m))
    problem = build_tikhonov_problem(data, 200)
    result = solve_tikhonov(problem, 1e-4)
    assert result.spline.l2_norm() <= 1e-12


def test_noiseless_recovery():
    checks.check_noiseless_recovery()


def test_large_alpha_kills_the_solution(exact_data):
    problem = build_tikhonov_problem(exact_data, 200)
    small = solve_tikhonov(problem, 1e-12)
    large = solve_tikhonov(problem, 1e8)
    assert large.spline.l2_norm() <= 1e-4 * small.spline.l2_norm()


@pytest.mark.parametrize("n", [1, 5, 14, 18, 20, 200, 1000])
def test_antiderivative_penalty_matches_exact_norm(n):
    # includes grid sizes at which equispaced sample points round past u_max;
    # the data are fitted exactly, so the objective at alpha = 1 is the penalty
    interval = reference_interval()
    a = np.random.default_rng(n).normal(size=n + 1)
    spline = ParameterSpline(interval, a)
    problem = build_tikhonov_problem(
        make_exact_data(reference_curve(), spline.antiderivative, 50), n
    )
    exact = _penalty(spline)
    assert tikhonov_objective(problem, a, 1.0) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize(
    "interval, n",
    [(reference_interval(), 1), (reference_interval(), 5), (reference_interval(), 200),
     (StateInterval(0.0, 1.0), 7)],
)
def test_penalty_band_matches_fresh_assembly(interval, n):
    band = build_tikhonov_problem(_data_on(interval, n), n).penalty_band
    fresh = _penalty_band.__wrapped__(interval, n)
    assert band.shape == fresh.shape and band.tobytes() == fresh.tobytes()


def test_penalty_band_shared_per_grid():
    interval = reference_interval()
    band = build_tikhonov_problem(_data_on(interval, 1), 50).penalty_band
    assert build_tikhonov_problem(_data_on(interval, 2), 50).penalty_band is band
    finer = build_tikhonov_problem(_data_on(interval, 1), 51).penalty_band
    unit = build_tikhonov_problem(_data_on(StateInterval(0.0, 1.0), 1), 50).penalty_band
    assert finer.shape == (52, 3)
    assert unit.shape == band.shape and not np.array_equal(unit, band)


def test_equal_intervals_compute_alike():
    # float32 endpoints compare and hash equal to their float64 values, so
    # both intervals get one shared band, which must be the float64 one
    _penalty_band.cache_clear()
    narrow = StateInterval(np.float32(0.1), np.float32(1.3))
    band = build_tikhonov_problem(_data_on(narrow, 0), 30).penalty_band
    wide = StateInterval(float(np.float32(0.1)), float(np.float32(1.3)))
    assert band.tobytes() == _penalty_band.__wrapped__(wide, 30).tobytes()


def test_problem_arrays_are_read_only(exact_data):
    problem = build_tikhonov_problem(exact_data, 50)
    arrays = (
        problem.normal_band,
        problem.penalty_band,
        problem.normal_rhs,
        problem.y_values,
        *problem.t_rows,
    )
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] *= 0


@pytest.mark.parametrize("n", [2.5, 0, -3, np.nan, "3"])
def test_n_elements_must_be_an_integer(exact_data, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_elements"):
            build_tikhonov_problem(exact_data, n)


def test_numpy_integer_n_elements(exact_data):
    problem = build_tikhonov_problem(exact_data, np.int64(7))
    assert type(problem.n_elements) is int
    assert problem.penalty_band is build_tikhonov_problem(exact_data, 7).penalty_band


def _same(result, other):
    return (
        result.alpha == other.alpha
        and result.residual == other.residual
        and result.spline.node_values.tobytes() == other.spline.node_values.tobytes()
    )


# (n, m, noise levels): one noise level and one draw per member
STACKS = [
    (1, 20, np.geomspace(8e-2, 2e-2, 10)),
    (200, 500, [3e-3]),
    # 2.45e-9 and 2.5e-9 sit at the discretization floor and end at ALPHA_MIN
    (200, 500, [1e-2, 2.45e-9, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 2.5e-9]),
]


@pytest.mark.parametrize("n, m, deltas", STACKS)
def test_stack_members_solve_as_alone(n, m, deltas):
    # each member of a stack, bit for bit, as its own stack of one and as a
    # problem built from its one data set, at its own alpha
    exact = reference_exact_data(m)
    data = [_noisy(exact, delta, seed) for seed, delta in enumerate(deltas)]
    alphas = np.geomspace(1e-9, 1e-3, len(data))
    stacked = solve_tikhonov(build_tikhonov_problem(data, n), alphas)
    assert isinstance(stacked, tuple) and len(stacked) == len(data)
    for member, alpha, result in zip(data, alphas, stacked):
        (alone,) = solve_tikhonov(build_tikhonov_problem([member], n), [alpha])
        assert _same(result, alone)
        assert _same(result, solve_tikhonov(build_tikhonov_problem(member, n), alpha))


@pytest.mark.parametrize("n, m, deltas", STACKS)
def test_stack_members_search_as_alone(n, m, deltas):
    # the members freeze in different rounds of the side-by-side search
    # (two at ALPHA_MIN), and each ends bit for bit where it ends alone,
    # from the default start and from a start of its own
    exact = reference_exact_data(m)
    data = [_noisy(exact, delta, seed) for seed, delta in enumerate(deltas)]
    problem = build_tikhonov_problem(data, n)
    for starts in (None, np.geomspace(1e-12, 1e-1, len(data))):
        stacked = alpha_discrepancy(problem, deltas, alpha_start=starts)
        assert isinstance(stacked, tuple) and len(stacked) == len(data)
        own = [None] * len(data) if starts is None else starts
        for member, delta, start, result in zip(data, deltas, own, stacked):
            (alone,) = alpha_discrepancy(
                build_tikhonov_problem([member], n), [delta], alpha_start=start
            )
            assert _same(result, alone)
            single = build_tikhonov_problem(member, n)
            assert _same(result, alpha_discrepancy(single, delta, alpha_start=start))
        if len(deltas) == 10 and n == 200:
            assert [r.alpha == ALPHA_MIN for r in stacked].count(True) == 2


def test_stack_needs_one_grid(exact_data):
    others = [
        replace(exact_data, interval=StateInterval(-1.0, 1.0)),
        replace(exact_data, quad_weights=exact_data.quad_weights * 1.01),
        replace(exact_data, s_nodes=exact_data.s_nodes + 1e-3),
        reference_exact_data(400),
    ]
    for other in others:
        with pytest.raises(ValueError, match="share the interval, s_nodes and quad_weights"):
            build_tikhonov_problem([exact_data, other], 50)
    for bad in ([], [exact_data, exact_data.y_values], "data"):
        with pytest.raises(ValueError, match="TraceData"):
            build_tikhonov_problem(bad, 50)
    stack = build_tikhonov_problem([exact_data, exact_data], 50)
    assert stack.normal_band.shape == (2, 51, 3) and stack.t_rows[1].shape == (3, 2, 500)
    with pytest.raises(ValueError, match="one value per member"):
        solve_tikhonov(stack, [1e-6, 1e-6, 1e-6])
    with pytest.raises(ValueError, match="one data set"):
        tikhonov_objective(stack, np.zeros(51), 1e-6)


def _lower(band):
    """The lower triangle whose band, in `dpbtrf` lower layout, is `band`."""
    return sum(np.diag(band[: len(band) - k, k], -k) for k in range(3))


def _dense(band):
    """The symmetric matrix whose lower band, in `dpbtrf` layout, is `band`."""
    lower = _lower(band)
    return lower + np.tril(lower, -1).T


@pytest.mark.parametrize("n", [1, 2, 5, 200])
@pytest.mark.parametrize("count", [1, 3])
def test_factor_solves_like_dense(n, count):
    # the LAPACK binding against numpy's dense solve, member by member
    data = [_data_on(reference_interval(), seed, m=500) for seed in range(count)]
    problem = build_tikhonov_problem(data, n)
    alphas = [1e-6, 1e-5, 1e-4][:count]
    rhs = np.random.default_rng(n).normal(size=(count, n + 1))
    given = rhs.copy()
    factor = _factor(problem, alphas, np.arange(count))
    x = _apply_inverse(factor, rhs)
    np.testing.assert_array_equal(rhs, given)
    with pytest.raises(ValueError, match="do not fit the factor"):
        _apply_inverse(factor, rhs[:, 1:])
    for i, alpha in enumerate(alphas):
        dense = _dense(problem.normal_band[i] + alpha * problem.penalty_band)
        expected = np.linalg.solve(dense, rhs[i])
        assert np.linalg.norm(x[i] - expected) <= 1e-10 * np.linalg.norm(expected)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 300),
    extra=st.integers(0, 300),
    log_alphas=st.lists(st.floats(-12.0, 3.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_and_solve_are_backward_stable(n, extra, log_alphas, seed):
    # band Cholesky of half-width 2: each entry of L L^T is a sum of at most
    # three products, so |L L^T - M| <= gamma_3 |L| |L^T|, whose entries are
    # at most sqrt(M_ii M_jj) <= ||M||; over five nonzeros per row that is
    # 7.5 eps ||M|| in the infinity norm, and 16 eps leaves room for the
    # rounding of the check itself and for the two triangular solves
    count = len(log_alphas)
    data = [_data_on(reference_interval(), seed + i, m=2 * (n + 1) + extra) for i in range(count)]
    problem = build_tikhonov_problem(data, n)
    alphas = [10.0**e for e in log_alphas]
    rhs = np.random.default_rng(seed).normal(size=(count, n + 1))
    factor = _factor(problem, alphas, np.arange(count))
    x = _apply_inverse(factor, rhs)
    eps = np.finfo(float).eps
    for band in (problem.normal_band, problem.penalty_band, factor):
        # past each member's last row: M[n+1, n], M[n+2, n] and M[n+1, n-1]
        assert np.all(band[..., -1, 1:] == 0.0) and np.all(band[..., -2, 2] == 0.0)
    for i, alpha in enumerate(alphas):
        matrix = _dense(problem.normal_band[i] + alpha * problem.penalty_band)
        size = np.linalg.norm(matrix, np.inf)
        lower = _lower(factor[i])
        assert np.linalg.norm(lower @ lower.T - matrix, np.inf) <= 16 * eps * size
        residual = np.linalg.norm(matrix @ x[i] - rhs[i], np.inf)
        assert residual <= 16 * eps * size * np.linalg.norm(x[i], np.inf)


def _upper(lower):
    """The same band in `dpbtrf` upper layout: row j holds M[j-2, j], M[j-1, j], M[j, j]."""
    upper = np.zeros_like(lower)
    upper[..., 2] = lower[..., 0]
    upper[..., 1:, 1] = lower[..., :-1, 1]
    upper[..., 2:, 0] = lower[..., :-2, 2]
    return upper


@pytest.mark.parametrize("n", [1, 2, 3, 5, 37, 200])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("alpha", [1e-16, 1e-6, 1.0, 1e3])
def test_factor_is_the_upper_layout_factor(n, count, alpha):
    # L, read as the upper band of U = L^T, against dpbtrf('U') on the same
    # stack, bit for bit: LAPACK's two layouts give one factor
    data = [_data_on(reference_interval(), seed, m=500) for seed in range(count)]
    problem = build_tikhonov_problem(data, n)
    alphas = [alpha * 2.0**i for i in range(count)]
    upper = _upper(np.multiply.outer(alphas, problem.penalty_band) + problem.normal_band)
    status = int64()
    dpbtrf = _lapack("dpbtrf", INT, INT, DOUBLES, INT, INT)
    dpbtrf(b"U", int64(upper.size // 3), int64(2), dptr(upper), int64(3), status, 1)
    assert status.value == 0
    assert np.array_equal(_upper(_factor(problem, alphas, np.arange(count))), upper)


def test_factor_names_the_indefinite_member(exact_data):
    # LAPACK's info, read back as a 64-bit integer, locates the failing pivot
    problem = build_tikhonov_problem([exact_data] * 3, 20)
    normal_band = problem.normal_band.copy()
    normal_band[1, 5, 0] = -1e6
    indefinite = replace(problem, normal_band=normal_band)
    with pytest.raises(NumericalError, match=r"alpha=0\.2 \(size 21, LAPACK info 6\)"):
        _factor(indefinite, [0.1, 0.2, 0.3], np.arange(3))


def test_missing_lapack_routine_names_the_numpy_build():
    with pytest.raises(ImportError, match=r"scipy-openblas64, numpy>=2\.4"):
        _lapack("dnosuch")


def test_alpha_must_be_positive(exact_data):
    problem = build_tikhonov_problem(exact_data, 50)
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha"):
            solve_tikhonov(problem, alpha)


def test_alpha_overflow_is_numerical_error(exact_data):
    # LAPACK factors a non-finite band without complaint (info 0, NaN nodes);
    # at alpha = 1e305 the penalty band of this grid overflows
    problem = build_tikhonov_problem(exact_data, 50)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match=r"alpha=1e\+305"):
            solve_tikhonov(problem, 1e305)


def test_solve_is_deterministic():
    checks.check_tikhonov_optimality(noise_seed=0, n_directions=0)


def test_first_order_optimality():
    checks.check_tikhonov_optimality(noise_seed=1, direction_seed=2)


def test_monotonicity_in_alpha(exact_data):
    problem = build_tikhonov_problem(_noisy(exact_data, 1e-3, 3), 200)
    prev_residual = -np.inf
    prev_h1 = np.inf
    for alpha in np.logspace(-10, 2, 10):
        result = solve_tikhonov(problem, alpha)
        # H1 norm of the antiderivative: ||A||^2 + ||A'||^2 = ||A||^2 + ||a||^2
        h1_of_antiderivative = np.hypot(
            antiderivative_l2_norm(result.spline), result.spline.l2_norm()
        )
        assert result.residual >= prev_residual - 1e-13
        assert h1_of_antiderivative <= prev_h1 + 1e-13
        prev_residual = result.residual
        prev_h1 = h1_of_antiderivative


def test_error_in_strong_norm_stays_bounded(exact_data, exact_spline):
    # the reconstruction error measured in (||A''||^2 + ||A||^2)^(1/2) must
    # not blow up as the noise level decreases with alpha = delta^2
    values = {}
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        errs = []
        for seed in range(5):
            data = _noisy(exact_data, delta, seed)
            result = solve_tikhonov(build_tikhonov_problem(data, 200), delta**2)
            errs.append(np.sqrt(_penalty(result.spline - exact_spline)))
        values[delta] = np.median(errs)
    for delta in (1e-3, 1e-4, 1e-5):
        assert values[delta] <= 3.0 * values[1e-2]


def test_alpha_a_priori_rules():
    assert alpha_a_priori(1e-2, "quadratic") == pytest.approx(1e-4, rel=1e-15)
    assert alpha_a_priori(1.0, "quadratic") == 1.0
    assert alpha_a_priori(1e-2, "eight_fifths") == pytest.approx(6.3096e-5, rel=1e-4)
    assert alpha_a_priori(1e-2, "eight_fifths", coeff=1.0) == pytest.approx(
        10 ** (-3.2), rel=1e-12
    )
    for delta in (0.0, -1e-2, np.nan, np.inf):
        for rule in ("quadratic", "eight_fifths"):
            with pytest.raises(ValueError, match="delta"):
                alpha_a_priori(delta, rule)
    for coeff in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="coeff"):
            alpha_a_priori(1e-2, "eight_fifths", coeff=coeff)
    with pytest.raises(ValueError):
        alpha_a_priori(1e-2, "cubic")


def test_residual_monotone_for_random_alphas(exact_data):
    problem = build_tikhonov_problem(_noisy(exact_data, 1e-3, 4), 200)
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = 10.0 ** rng.uniform(-12, 2)
        r1 = solve_tikhonov(problem, alpha).residual
        r2 = solve_tikhonov(problem, 10 * alpha).residual
        assert r2 >= r1 - 1e-13


def test_discrepancy_reference_bracket(exact_data):
    delta, tau = 1e-3, 1.5
    data = _noisy(exact_data, delta, 6)
    problem = build_tikhonov_problem(data, 200)
    result = alpha_discrepancy(problem, delta, tau=tau)
    assert tau * delta <= result.residual <= 1.5 * tau * delta
    assert result.alpha > 0


def test_discrepancy_fine_grid():
    # at n = 10^4 the banded Cholesky solve fails for alpha near 10^4, so the
    # search must reach the bracket without solving there
    delta = 1e-2
    data = _noisy(reference_exact_data(20000), delta, 0)
    result = alpha_discrepancy(build_tikhonov_problem(data, 10000), delta)
    assert 1.5 * delta <= result.residual <= 2.25 * delta


def test_discrepancy_noise_level_too_small(exact_data):
    # discretization floor ~1e-8 exceeds the bracket for delta = 1e-10
    problem = build_tikhonov_problem(exact_data, 200)
    with pytest.raises(NoiseLevelTooSmallError):
        alpha_discrepancy(problem, 1e-10, tau=1.5)


def test_discrepancy_data_too_rough(exact_data):
    # delta far above ||y|| cannot be matched even by maximal smoothing
    problem = build_tikhonov_problem(exact_data, 200)
    with pytest.raises(DataTooRoughError):
        alpha_discrepancy(problem, 10.0, tau=1.5)


def _log_alpha_window(problem, results):
    """Width in ln alpha of each member's residual window, at its result.

    From the slope d ln r / d ln alpha, by central differences.
    """
    alphas = np.array([r.alpha for r in results])
    step = 1e-3
    up, down = (solve_tikhonov(problem, alphas * np.exp(s)) for s in (step, -step))
    slope = np.log([u.residual / d.residual for u, d in zip(up, down)]) / (2 * step)
    return np.log1p(DISCREPANCY_TOL) / slope


@pytest.mark.parametrize("delta", [1e-2, 1e-4])
def test_discrepancy_lands_alike_from_any_start(exact_data, delta):
    # from any start each member lands in the window, so its alpha lies in
    # the window's width in alpha around the default start's; a start out
    # of (ALPHA_MIN, ALPHA_MAX) is the default start
    problem = build_tikhonov_problem([_noisy(exact_data, delta, s) for s in range(5)], 200)
    cold = alpha_discrepancy(problem, delta)
    width = _log_alpha_window(problem, cold)
    starts = [None, 1e-12, 1e-2, [1.1 * r.alpha for r in cold], 1e-20, 1e6]
    for start in starts:
        results = alpha_discrepancy(problem, delta, alpha_start=start)
        for result, base, w in zip(results, cold, width):
            assert 1.5 * delta <= result.residual <= 1.5 * delta * (1 + DISCREPANCY_TOL)
            assert abs(np.log(result.alpha / base.alpha)) <= 1.05 * w
            if start in (None, 1e-20, 1e6):
                assert _same(result, base)


@pytest.mark.parametrize("start", [1e-12, 1e-2, 1e-20, 1e6])
def test_discrepancy_errors_do_not_depend_on_the_start(exact_data, start):
    problem = build_tikhonov_problem(exact_data, 200)
    with pytest.raises(NoiseLevelTooSmallError):
        alpha_discrepancy(problem, 1e-10, alpha_start=start)
    with pytest.raises(DataTooRoughError):
        alpha_discrepancy(problem, 10.0, alpha_start=start)


@pytest.mark.parametrize("start", [0.0, -1.0, np.nan, np.inf, [1e-6, np.nan]])
def test_discrepancy_validates_the_start(exact_data, start):
    data = [_noisy(exact_data, 1e-3, seed) for seed in range(2)]
    with pytest.raises(ValueError, match="alpha_start"):
        alpha_discrepancy(build_tikhonov_problem(data, 50), 1e-3, alpha_start=start)


def test_discrepancy_validates_arguments(exact_data):
    problem = build_tikhonov_problem(exact_data, 50)
    bad = [(-1.0, 1.5), (1e-3, 0.9), (np.nan, 1.5), (np.inf, 1.5), (1e-3, np.nan), (1e-3, np.inf)]
    for delta, tau in bad:
        with pytest.raises(ValueError):
            alpha_discrepancy(problem, delta, tau=tau)


def test_naive_noiseless(exact_data, exact_spline):
    naive = naive_reconstruction(exact_data, reference_curve(), 200)
    assert (naive - exact_spline).l2_norm() <= 5e-3


def test_naive_constant_data(exact_data):
    data = replace(exact_data, y_values=np.full(exact_data.m, 2.5))
    naive = naive_reconstruction(data, reference_curve(), 200)
    assert naive.l2_norm() <= 1e-10


def test_naive_amplifies_noise():
    checks.check_naive_contrast(seeds=range(50, 55))


def test_naive_requires_three_points(exact_data):
    from difflaw import make_exact_data, exact_antiderivative

    tiny = make_exact_data(reference_curve(), exact_antiderivative, 2)
    with pytest.raises(ValueError):
        naive_reconstruction(tiny, reference_curve(), 10)
