import numpy as np
import pytest

from difflaw import (
    DomainError,
    GridMismatchError,
    ParameterSpline,
    StateInterval,
    antiderivative_l2_norm,
    checks,
    reference_interval,
)

SQRT2 = np.sqrt(2.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        StateInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        StateInterval(2.0, -1.0)
    assert StateInterval(0.0, 2.0).length == 2.0


def test_interval_length_must_be_finite():
    # finite ends whose difference overflows would give inf spacings and NaN values
    with pytest.raises(ValueError, match="length"):
        StateInterval(-1e308, 1e308)
    assert StateInterval(-8e307, 8e307).length == 1.6e308


def test_spline_rejects_non_finite_node():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="node 1"):
            ParameterSpline(StateInterval(0.0, 1.0), [1.0, bad, 1.0])


def test_eval_at_node_is_exact():
    interval = reference_interval()
    spline = ParameterSpline(interval, 1 + interval.uniform_grid(200) ** 2)
    # 0 is a node for even n
    assert spline(0.0) == 1.0


def test_eval_linear_interpolation():
    spline = ParameterSpline(StateInterval(0.0, 1.0), [0.0, 1.0])
    assert spline(0.25) == pytest.approx(0.25, abs=1e-15)


def test_eval_interpolation_error_bound():
    # |f - spline| <= h^2/8 * max|f''| with h = sqrt(2)/200, f'' = 2
    interval = reference_interval()
    spline = ParameterSpline(interval, 1 + interval.uniform_grid(200) ** 2)
    assert abs(spline(0.5) - 1.25) <= 2.5e-5


def test_eval_outside_interval_raises():
    spline = ParameterSpline(StateInterval(0.0, 1.0), [1.0, 1.0])
    with pytest.raises(DomainError):
        spline(1.0 + 1e-12)
    with pytest.raises(DomainError):
        spline.antiderivative(-0.1)


def test_antiderivative_constant():
    spline = ParameterSpline(StateInterval(0.0, 1.0), [1.0, 1.0, 1.0])
    assert spline.antiderivative(0.7) == pytest.approx(0.7, rel=1e-14)
    assert spline.antiderivative(0.0) == 0.0


def test_antiderivative_of_reference_parameter():
    # int over I of 1+u^2 = 2g + 2g^3/3 with g = 1/sqrt(2), within the
    # trapezoid-rule error of the sampled spline
    interval = reference_interval()
    spline = ParameterSpline(interval, 1 + interval.uniform_grid(200) ** 2)
    exact = 7.0 / (3.0 * SQRT2)
    assert exact == pytest.approx(1.64992, abs=1e-5)
    trapezoid_error = interval.length * (interval.length / 200) ** 2 * 2 / 12
    assert abs(spline.antiderivative(interval.u_max) - exact) <= trapezoid_error
    # cross-check by fine composite quadrature of the sampled spline itself
    fine = np.linspace(interval.u_min, interval.u_max, 200 * 8 + 1)
    h = fine[1] - fine[0]
    w = np.ones(fine.size)
    w[1:-1:2], w[2:-2:2] = 4.0, 2.0
    simpson = np.sum(w * spline(fine)) * h / 3.0
    assert spline.antiderivative(interval.u_max) == pytest.approx(simpson, rel=1e-13)


def test_antiderivative_strictly_increasing_for_positive_nodes():
    rng = np.random.default_rng(101)
    interval = reference_interval()
    u = np.linspace(interval.u_min, interval.u_max, 50)
    for _ in range(100):
        n = rng.integers(2, 40)
        spline = ParameterSpline(interval, rng.uniform(0.05, 3.0, n + 1))
        assert np.all(np.diff(spline.antiderivative(u)) > 0.0)


def test_antiderivative_linear_in_nodes():
    checks.check_antiderivative(n_splines=25, n_elements=20, n_points=37, seed=102)


def test_antiderivative_derivative_matches_eval():
    # central difference of the piecewise-quadratic A is exact inside elements
    rng = np.random.default_rng(103)
    interval = reference_interval()
    spline = ParameterSpline(interval, rng.normal(size=51) + 2.0)
    step = 1e-6 * interval.length
    nodes = spline.nodes
    for _ in range(50):
        k = rng.integers(0, 50)
        t = rng.uniform(0.1, 0.9)
        u = nodes[k] + t * spline.spacing
        diff = (spline.antiderivative(u + step) - spline.antiderivative(u - step)) / (
            2 * step
        )
        assert diff == pytest.approx(spline(u), rel=1e-6)


def test_norms_of_constant():
    spline = ParameterSpline(StateInterval(0.0, 1.0), [-2.0, -2.0, -2.0])
    assert spline.l2_norm() == pytest.approx(2.0, rel=1e-14)
    assert spline.h1_norm() == pytest.approx(2.0, rel=1e-14)


def test_norms_of_linear_ramp():
    spline = ParameterSpline(StateInterval(0.0, 1.0), [0.0, 1.0])
    assert spline.l2_norm() == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-14)
    assert spline.h1_norm() == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)


def test_norms_match_simpson_quadrature():
    # Simpson per element is exact for the quadratic integrands
    rng = np.random.default_rng(104)
    interval = reference_interval()
    spline = ParameterSpline(interval, rng.normal(size=33))
    nodes = spline.nodes
    dx = spline.spacing
    l2_sq = 0.0
    h1_semi_sq = 0.0
    for k in range(spline.n_elements):
        a, mid, b = nodes[k], nodes[k] + dx / 2, nodes[k + 1]
        vals = spline(np.array([a, mid, b])) ** 2
        l2_sq += dx / 6.0 * (vals[0] + 4 * vals[1] + vals[2])
        slope = (spline(b - 1e-9) - spline(a + 1e-9)) / (b - a - 2e-9)
        h1_semi_sq += dx * slope**2
    assert spline.l2_norm() == pytest.approx(np.sqrt(l2_sq), rel=1e-12)
    assert spline.h1_norm() == pytest.approx(np.sqrt(l2_sq + h1_semi_sq), rel=1e-6)


def test_difference_and_norm_consistency():
    interval = StateInterval(0.0, 1.0)
    p = ParameterSpline(interval, [1.0, 2.0])
    q = ParameterSpline(interval, [0.5, 0.5])
    np.testing.assert_array_equal((p - q).node_values, [0.5, 1.5])
    assert (p - p).l2_norm() == 0.0
    direct = ParameterSpline(interval, p.node_values - q.node_values)
    assert (p - q).l2_norm() == direct.l2_norm()


def test_difference_grid_mismatch():
    p = ParameterSpline(StateInterval(0.0, 1.0), [1.0, 2.0])
    q = ParameterSpline(StateInterval(0.0, 1.0), [1.0, 2.0, 3.0])
    with pytest.raises(GridMismatchError):
        p - q
    r = ParameterSpline(StateInterval(0.0, 2.0), [1.0, 2.0])
    with pytest.raises(GridMismatchError):
        p - r


def test_node_values_are_read_only():
    spline = ParameterSpline(StateInterval(0.0, 1.0), [1.0, 2.0])
    with pytest.raises(ValueError):
        spline.node_values[0] = 5.0


def test_antiderivative_l2_norm_exact_on_constant():
    # a = 1 on [0,1]: A = u, ||A||^2 = 1/3
    spline = ParameterSpline(StateInterval(0.0, 1.0), [1.0, 1.0, 1.0])
    assert antiderivative_l2_norm(spline) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-14)
