"""Property-based tests over grid sizes, state intervals and noise levels."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from difflaw import (
    CurveParametrization,
    NoiseLevelTooSmallError,
    ParameterSpline,
    StateInterval,
    add_noise,
    alpha_discrepancy,
    antiderivative_l2_norm,
    build_scale_operator,
    build_tikhonov_problem,
    operator_norm_ratio,
    reference_exact_data,
    reference_interval,
    solve_tikhonov,
    tikhonov_objective,
)
from difflaw.splines import _antiderivative
from difflaw.tikhonov import ALPHA_MIN, DISCREPANCY_TOL

from conftest import dense_penalty_rows

intervals = st.builds(
    lambda lo, length: StateInterval(lo, lo + length),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 10.0),
)
seeds = st.integers(0, 2**32 - 1)
TEMPLATE = reference_exact_data(52)


def _oracle_antiderivative(spline, u):
    """A(u) from the nodal values alone, independent of the package's B-spline rows.

    The full elements left of u add their trapezoids, and the element that
    holds u adds (u - x_k)(a_k + a(u))/2, exact for the linear a.
    """
    x, a = spline.nodes, spline.node_values
    k = np.clip(np.searchsorted(x, u, side="right") - 1, 0, spline.n_elements - 1)
    full = np.concatenate(([0.0], np.cumsum(spline.spacing * (a[:-1] + a[1:]) / 2)))
    return full[k] + (u - x[k]) * (a[k] + spline(u)) / 2


def _oracle_l2_sq(spline):
    """||A||^2 by 3-point Gauss-Legendre per element, exact for the quartic A^2."""
    g, w = np.polynomial.legendre.leggauss(3)
    dx = spline.spacing
    points = (spline.nodes[:-1, None] + (g + 1) * dx / 2).ravel()
    weights = np.tile(w * dx / 2, spline.n_elements)
    return np.sum(weights * _oracle_antiderivative(spline, points) ** 2)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(interval=intervals, n=st.integers(1, 2000), seed=seeds)
def test_antiderivative_matches_nodal_oracle(interval, n, seed):
    # at points that include both ends and every node; a state u carries a
    # rounding error of order eps |u|, so the scale is the largest |u| when
    # that exceeds the length
    rng = np.random.default_rng(seed)
    spline = ParameterSpline(interval, rng.normal(size=n + 1))
    u = np.concatenate((spline.nodes, rng.uniform(interval.u_min, interval.u_max, 200)))
    error = np.max(np.abs(spline.antiderivative(u) - _oracle_antiderivative(spline, u)))
    scale = max(interval.length, abs(interval.u_min), abs(interval.u_max))
    assert error <= 1e-12 * scale * np.max(np.abs(spline.node_values))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(interval=intervals, n=st.integers(1, 2000), seed=seeds)
def test_objective_matches_spline_forms(interval, n, seed):
    # the banded system's objective against the nodal-basis forms: the
    # misfit and ||A||^2 through the nodal oracle of A, ||a'||^2 from the
    # nodes
    rng = np.random.default_rng(seed)
    h = np.concatenate(
        ([interval.u_min, interval.u_max], rng.uniform(interval.u_min, interval.u_max, 50))
    )
    data = replace(
        TEMPLATE,
        interval=interval,
        h_values=h,
        y_values=rng.normal(size=h.size),
        quad_weights=rng.uniform(0.1, 2.0, h.size),
    )
    a = rng.normal(size=n + 1)
    alpha = 10.0 ** rng.uniform(-8, 2)
    spline = ParameterSpline(interval, a)
    misfit = _oracle_antiderivative(spline, h) - data.y_values
    penalty = np.sum(np.diff(a) ** 2) / spline.spacing + _oracle_l2_sq(spline)
    expected = np.sum(data.quad_weights * misfit**2) + alpha * penalty
    problem = build_tikhonov_problem(data, n)
    assert abs(tikhonov_objective(problem, a, alpha) - expected) <= 1e-10 * expected


@settings(derandomize=True, deadline=None, max_examples=40)
@given(interval=intervals, n=st.integers(1, 200), size=st.integers(1, 8), seed=seeds)
def test_stacked_objective_matches_one_vector(interval, n, size, seed):
    rng = np.random.default_rng(seed)
    h = np.concatenate(
        ([interval.u_min, interval.u_max], rng.uniform(interval.u_min, interval.u_max, 50))
    )
    data = replace(
        TEMPLATE,
        interval=interval,
        h_values=h,
        y_values=rng.normal(size=h.size),
        quad_weights=rng.uniform(0.1, 2.0, h.size),
    )
    problem = build_tikhonov_problem(data, n)
    nodes = rng.normal(size=(size, n + 1))
    alpha = 10.0 ** rng.uniform(-8, 2)
    stacked = tikhonov_objective(problem, nodes, alpha)
    assert stacked.shape == (size,)
    for value, a in zip(stacked, nodes):
        single = tikhonov_objective(problem, a, alpha)
        assert isinstance(single, float)
        assert abs(value - single) <= 1e-14 * single


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(20, 400),
    m_factor=st.floats(2.0, 4.0),
    log_delta=st.floats(-5.0, -2.0),
    tau=st.floats(1.1, 3.0),
    seed=seeds,
)
def test_discrepancy_lands_in_window(n, m_factor, log_delta, tau, seed):
    # the Newton search stops with the residual in [tau d, tau d (1 + tol)]
    # unless the weakest regularization already overshoots that window, and
    # its reported residual is that of a plain solve at its alpha
    m = int(round(m_factor * n))
    delta = 10.0**log_delta
    data = add_noise(reference_exact_data(m), delta, np.random.default_rng(seed))
    problem = build_tikhonov_problem(data, n)
    try:
        result = alpha_discrepancy(problem, delta, tau=tau)
    except NoiseLevelTooSmallError:
        assert solve_tikhonov(problem, ALPHA_MIN).residual > 1.5 * tau * delta
        return
    window = tau * delta * (1 + DISCREPANCY_TOL)
    if result.alpha == ALPHA_MIN:
        assert tau * delta <= result.residual <= 1.5 * tau * delta
    else:
        assert tau * delta <= result.residual <= window
    again = solve_tikhonov(problem, result.alpha).residual
    assert abs(again - result.residual) <= 1e-12 * result.residual


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    interval=intervals,
    n=st.integers(1, 400),
    size=st.integers(1, 8),
    m=st.integers(2, 300),
    seed=seeds,
)
def test_stacked_splines_match_one_spline(interval, n, size, m, seed):
    # a stack of splines evaluates as its members do one by one: A-values
    # bit for bit at points that include both interval ends, the norms and
    # ratios (row sums) within a few ulps
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(size, n + 1))
    splines = [ParameterSpline(interval, a) for a in nodes]
    u = np.concatenate(
        ([interval.u_min, interval.u_max], rng.uniform(interval.u_min, interval.u_max, 30))
    )
    stacked = _antiderivative(interval, nodes, u)
    assert stacked.shape == (size, u.size)
    for row, spline in zip(stacked, splines):
        assert np.array_equal(row, spline.antiderivative(u))
    np.testing.assert_allclose(
        antiderivative_l2_norm(splines),
        [antiderivative_l2_norm(spline) for spline in splines],
        rtol=1e-14,
        atol=0,
    )
    # a straight curve through the interval, so h' is its length
    curve = CurveParametrization(
        s_lo=0.0,
        s_hi=1.0,
        h=lambda s: interval.u_min + interval.length * s,
        h_prime=lambda s: np.full_like(s, interval.length),
        interval=interval,
    )
    np.testing.assert_allclose(
        operator_norm_ratio(splines, curve, m),
        [operator_norm_ratio(spline, curve, m) for spline in splines],
        rtol=1e-14,
        atol=0,
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(interval=intervals, n=st.integers(1, 80), size=st.integers(1, 8), seed=seeds)
def test_stacked_scale_norms_match_one_vector(interval, n, size, seed):
    # levels given per row; the margin is a difference that cancels, so it
    # is compared against the norms it is taken from
    op = build_scale_operator(interval, n)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(size, n + 1))
    r = rng.uniform(-2.0, 1.0, size)
    t = r + rng.uniform(1e-3, 2.0, size)
    s = rng.uniform(r, t)
    norms = op.scale_norm(d, s)
    margins = op.interpolation_margin(d, r, s, t)
    for i in range(size):
        single = op.scale_norm(d[i], s[i])
        assert abs(norms[i] - single) <= 1e-13 * single
        lhs = op.x_norm(d[i], s[i])
        margin = op.interpolation_margin(d[i], r[i], s[i], t[i])
        assert abs(margins[i] - margin) <= 1e-13 * (lhs + margin)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(interval=intervals, n=st.integers(1, 80))
@example(interval=reference_interval(), n=1)
@example(interval=reference_interval(), n=4)
@example(interval=reference_interval(), n=37)
@example(interval=reference_interval(), n=200)
@example(interval=reference_interval(), n=400)
def test_scale_operator_matches_dense_svd(interval, n):
    # the banded eigensolver against the eigenpairs of the dense SVD of
    # F R^{-1}, P = R^T R, from the solver's own rows: lambda = 1 + sigma^2,
    # with 0 for the null space of F (A linear); the eigenvalues are simple,
    # so each eigenvector is fixed up to sign
    op = build_scale_operator(interval, n)
    f, q = dense_penalty_rows(interval, n)
    mass = q.T @ q
    lower = np.linalg.cholesky(mass)  # R = lower^T
    _, sigma, vt = np.linalg.svd(np.linalg.solve(lower, f.T).T, full_matrices=True)
    lam = 1.0 + np.append(sigma**2, 0.0)
    order = np.argsort(lam)
    oracle = np.linalg.solve(lower.T, vt.T)[:, order]
    assert np.all(op.eigenvalues >= 1.0)
    assert np.max(np.abs(op.eigenvalues - lam[order]) / lam[order]) <= 1e-10
    v = op.eigenvectors
    cosines = np.abs(np.sum((mass @ v) * oracle, axis=0))
    assert np.min(cosines) >= 1.0 - 1e-10
    assert np.max(np.abs(v.T @ mass @ v - np.eye(n + 1))) <= 1e-10
