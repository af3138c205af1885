from dataclasses import replace

import numpy as np
import pytest

from difflaw import (
    DataTooRoughError,
    NoiseLevelTooSmallError,
    ParameterSpline,
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


def _noisy(exact_data, delta, seed):
    return add_noise(exact_data, delta, np.random.default_rng(seed))


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


def test_alpha_must_be_positive(exact_data):
    problem = build_tikhonov_problem(exact_data, 50)
    with pytest.raises(ValueError):
        solve_tikhonov(problem, 0.0)


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
    with pytest.raises(ValueError):
        alpha_a_priori(0.0, "quadratic")
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
