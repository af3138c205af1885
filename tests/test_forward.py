from dataclasses import replace

import numpy as np
import pytest

from difflaw import (
    ANTIDERIVATIVE_OFFSET,
    DomainError,
    GridMismatchError,
    ParameterSpline,
    add_noise,
    checks,
    exact_antiderivative,
    make_exact_data,
    operator_norm_ratio,
    reference_curve,
    reference_interval,
    residual_norm,
    splines,
)

SQRT2 = np.sqrt(2.0)


def test_exact_data_midpoint_layout(exact_data):
    assert exact_data.m == 500
    assert exact_data.delta == 0.0
    assert np.sum(exact_data.quad_weights) == pytest.approx(np.pi / 2, rel=1e-14)
    assert np.all(np.diff(exact_data.s_nodes) > 0)
    assert np.all(exact_data.interval.contains(exact_data.h_values))


def test_exact_data_center_node():
    # with an odd node count the central midpoint node is exactly pi/2,
    # where h = 0 and y equals the integration constant
    data = make_exact_data(reference_curve(), exact_antiderivative, 5)
    assert abs(data.h_values[2]) <= 1e-12
    assert data.y_values[2] == pytest.approx(ANTIDERIVATIVE_OFFSET, abs=1e-12)
    assert ANTIDERIVATIVE_OFFSET == pytest.approx(0.824958, abs=1e-6)


def test_exact_data_endpoint_values():
    curve = reference_curve()
    assert curve.h(curve.s_lo) == pytest.approx(1 / SQRT2, abs=1e-15)
    assert exact_antiderivative(1 / SQRT2) == pytest.approx(1.64992, abs=1e-5)
    assert exact_antiderivative(-1 / SQRT2) == pytest.approx(0.0, abs=1e-15)


def test_exact_data_zero_antiderivative():
    data = make_exact_data(reference_curve(), lambda u: np.zeros_like(u), 16)
    assert np.all(data.y_values == 0.0)


def test_make_exact_data_requires_two_nodes():
    with pytest.raises(ValueError):
        make_exact_data(reference_curve(), exact_antiderivative, 1)


def test_add_noise_zero_delta_is_identity():
    checks.check_zero_noise_identity(m=500, seed=0)


def test_add_noise_amplitude_bounds(exact_data):
    delta = 3e-3
    noisy = add_noise(exact_data, delta, np.random.default_rng(1))
    # clamping can only shrink the h perturbation
    assert np.max(np.abs(noisy.h_values - exact_data.h_values)) <= delta
    assert np.max(np.abs(noisy.y_values - exact_data.y_values)) <= delta
    assert np.all(exact_data.interval.contains(noisy.h_values))
    assert noisy.delta == delta


def test_add_noise_sample_mean(exact_data):
    # uniform on [-d, d] has variance d^2/3; 3-sigma bound on the mean
    delta, m = 1e-2, exact_data.m
    noisy = add_noise(exact_data, delta, np.random.default_rng(2))
    eta = noisy.y_values - exact_data.y_values
    assert abs(np.mean(eta)) <= 3 * delta / np.sqrt(3 * m)


def test_add_noise_rejects_negative_delta(exact_data):
    for delta in (-1e-3, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            add_noise(exact_data, delta, np.random.default_rng(0))


@pytest.mark.parametrize("field", ["s_nodes", "quad_weights", "y_values", "delta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_data_rejects_non_finite(exact_data, field, bad):
    value = bad
    if field != "delta":
        value = getattr(exact_data, field).copy()
        value[3] = bad
    with pytest.raises(ValueError, match=field):
        replace(exact_data, **{field: value})


def test_add_noise_shares_checked_nodes(exact_data):
    noisy = add_noise(exact_data, 1e-3, np.random.default_rng(0))
    assert noisy.s_nodes is exact_data.s_nodes
    assert noisy.quad_weights is exact_data.quad_weights
    for name in ("s_nodes", "quad_weights", "h_values", "y_values"):
        assert not getattr(noisy, name).flags.writeable
    # the new values are still checked
    near_max = replace(exact_data, y_values=np.full(exact_data.m, np.finfo(float).max))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="y_values must be finite"):
        add_noise(near_max, 1e300, np.random.default_rng(0))
    h, y = exact_data.h_values, exact_data.y_values
    with pytest.raises(DomainError, match="outside the state interval"):
        exact_data._with_values(h + 10.0, y, 0.0)
    with pytest.raises(ValueError, match="equal length"):
        exact_data._with_values(h, y[:-1], 0.0)
    with pytest.raises(ValueError, match="delta"):
        exact_data._with_values(h, y, -1.0)


def test_add_noise_deterministic(exact_data):
    a = add_noise(exact_data, 1e-3, np.random.default_rng(7))
    b = add_noise(exact_data, 1e-3, np.random.default_rng(7))
    np.testing.assert_array_equal(a.h_values, b.h_values)
    np.testing.assert_array_equal(a.y_values, b.y_values)


def test_t_matrix_constant_spline(exact_data):
    interval = exact_data.interval
    np.testing.assert_allclose(
        ParameterSpline(interval, np.ones(51)).antiderivative(exact_data.h_values),
        exact_data.h_values - interval.u_min,
        rtol=1e-13,
    )
    zero = ParameterSpline(interval, np.zeros(51))
    assert np.all(zero.antiderivative(exact_data.h_values) == 0.0)


def test_t_matrix_matches_exact_data():
    checks.check_forward_consistency()


def test_t_matrix_linearity(exact_data):
    rng = np.random.default_rng(3)
    p, q = rng.normal(size=81), rng.normal(size=81)

    def t(nodes):
        return ParameterSpline(exact_data.interval, nodes).antiderivative(exact_data.h_values)

    np.testing.assert_allclose(
        t(2.0 * p - 0.5 * q), 2.0 * t(p) - 0.5 * t(q), rtol=1e-12, atol=1e-15
    )


def test_t_matrix_zero_noise_identical():
    checks.check_zero_noise_identity(m=500, n_elements=120, seed=4)


def test_residual_norm_zero_spline_and_homogeneity(exact_data):
    interval = exact_data.interval
    zero = ParameterSpline(interval, np.zeros(201))
    expected = np.sqrt(np.sum(exact_data.quad_weights * exact_data.y_values**2))
    assert residual_norm(zero, exact_data) == pytest.approx(expected, rel=1e-14)
    # scaling y by 2 doubles the zero-spline residual
    from dataclasses import replace

    doubled = replace(exact_data, y_values=2.0 * exact_data.y_values)
    assert residual_norm(zero, doubled) == pytest.approx(2 * expected, rel=1e-14)


def test_residual_norm_exact_spline(exact_data, exact_spline):
    checks.check_exact_spline_residual(exact_data, exact_spline)


def test_operator_norm_ratio_band():
    checks.check_mapping_band(n_splines=100, seed=5)


@pytest.mark.parametrize(
    "check, size",
    [
        (checks.check_mapping_band, "n_splines"),
        (checks.check_perturbation_stability, "n_functions"),
    ],
)
def test_stacked_checks_locate_each_point_set_once(monkeypatch, check, size):
    # a check evaluates its samples as one stack: the points are located
    # as often for 50 samples as for 5
    located = []
    locate = splines._locate

    def counting_locate(*args):
        located.append(args[-1])
        return locate(*args)

    monkeypatch.setattr(splines, "_locate", counting_locate)
    counts = []
    for samples in (5, 50):
        located.clear()
        check(**{size: samples})
        counts.append(len(located))
    assert counts[0] == counts[1] > 0


def test_operator_norm_ratio_stack():
    curve = reference_curve()
    interval = reference_interval()
    rng = np.random.default_rng(7)
    stack = [ParameterSpline(interval, rng.normal(size=41)) for _ in range(3)]
    ratios = operator_norm_ratio(stack, curve, 200)
    assert ratios.shape == (3,)
    assert ratios[1] == operator_norm_ratio(stack[1], curve, 200)
    with pytest.raises(ValueError):
        operator_norm_ratio([stack[0], ParameterSpline(interval, np.zeros(41))], curve, 200)
    with pytest.raises(GridMismatchError):
        operator_norm_ratio([stack[0], ParameterSpline(interval, np.ones(21))], curve, 200)
    with pytest.raises(ValueError):
        operator_norm_ratio([], curve, 200)


def test_operator_norm_ratio_localized():
    # a = derivative of a narrow bump at u=0, so A is the bump and the
    # weight is ~1 on its support
    curve = reference_curve()
    interval = reference_interval()
    grid = interval.uniform_grid(200)
    sigma = 0.08
    nodes = -2 * grid / sigma**2 * np.exp(-((grid / sigma) ** 2))
    ratio = operator_norm_ratio(ParameterSpline(interval, nodes), curve, 500)
    assert ratio == pytest.approx(1.0, abs=5e-3)


def test_operator_norm_ratio_scale_invariant():
    rng = np.random.default_rng(6)
    curve = reference_curve()
    interval = reference_interval()
    nodes = rng.normal(size=101)
    r1 = operator_norm_ratio(ParameterSpline(interval, nodes), curve, 300)
    r2 = operator_norm_ratio(ParameterSpline(interval, 17.0 * nodes), curve, 300)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_operator_norm_ratio_zero_spline():
    with pytest.raises(ValueError):
        operator_norm_ratio(
            ParameterSpline(reference_interval(), np.zeros(11)), reference_curve(), 100
        )


def test_perturbation_scales_with_noise():
    # ||(T - T^d) w|| <= C d ||W||_{H2}: C stable from 1e-2 down to 1e-5
    checks.check_perturbation_stability(
        n_functions=20, deltas=(1e-2, 1e-3, 1e-4, 1e-5), seed=8
    )
