import numpy as np
import pytest

from difflaw import (
    NumericalError,
    build_scale_operator,
    checks,
    hilbert_scale,
    reference_interval,
)

from conftest import dense_difference


@pytest.fixture(scope="module")
def op400():
    return build_scale_operator(reference_interval(), 400)


def _stiffness(op):
    """The assembled stiffness matrix K = F^T F."""
    factor = dense_difference(op)
    return factor.T @ factor


def _random_constrained(op, rng):
    u = np.zeros(op.n_points)
    u[1:] = rng.normal(size=op.n_points - 1)
    return u


def test_construction_invariants(op400):
    assert op400.difference_band.shape == (399, 3) and op400.difference_band[0, 0] == 0.0
    k = _stiffness(op400)
    assert np.max(np.abs(k - k.T)) <= 1e-14 * np.max(np.abs(k))
    m = op400.mass
    assert m.shape == (400,)
    assert np.all(m > 0)
    assert op400.eigenvalues[0] >= 1.0 - 1e-10
    assert np.all(np.diff(op400.eigenvalues) >= 0)
    v = op400.eigenvectors
    assert np.all(v[0] == 0.0)
    gram = v[1:].T @ (m[:, None] * v[1:])
    assert np.max(np.abs(gram - np.eye(400))) <= 1e-10


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        build_scale_operator(reference_interval(), 3)


def test_build_takes_no_dense_svd(monkeypatch):
    def dense_svd(*args, **kwargs):
        raise AssertionError("build_scale_operator called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", dense_svd)
    op = build_scale_operator(reference_interval(), 50)
    assert op.eigenvalues[0] == 1.0


@pytest.mark.parametrize("routine, lengths", [("dgbbrd", 1), ("dbdsdc", 2)])
def test_lapack_failure_names_the_routine(monkeypatch, routine, lengths):
    # the status argument sits just before the trailing character lengths
    def failing(*args):
        args[-1 - lengths].value = 3

    monkeypatch.setattr(hilbert_scale, f"_{routine}", failing)
    with pytest.raises(NumericalError, match=rf"LAPACK {routine}\) failed: info 3"):
        build_scale_operator(reference_interval(), 10)


def test_linear_function_rayleigh_quotient(op400):
    # u(x) = x - u_min has vanishing interior second differences, so its
    # stiffness energy ||F u||^2 is exactly zero and the Rayleigh quotient is 1
    u = op400.grid - op400.grid[0]
    energy = np.sum((dense_difference(op400) @ u[1:]) ** 2)
    quotient = 1.0 + energy / (u[1:] @ (op400.mass * u[1:]))
    assert 1.0 <= quotient <= 1.0 + 1e-8
    # the factored form and the assembled matrix agree up to assembly rounding
    assert abs(u[1:] @ _stiffness(op400) @ u[1:] - energy) <= 1e-7


def test_scale_norm_at_minus_one_is_l2(op400):
    checks.check_scale_operator(op400, n_samples=20, seed=0)


def test_scale_norm_of_eigenvector(op400):
    for k in (0, 3, 200, 399):
        u = np.concatenate(([0.0], op400.eigenvectors[1:, k]))
        lam = op400.eigenvalues[k]
        for s in (-1.0, 0.0, 1.0, 2.0):
            assert op400.scale_norm(u, s) == pytest.approx(
                lam ** ((s + 1.0) / 4.0), rel=1e-10
            )


def test_scale_norm_s1_matches_direct_quadrature():
    # s = 1 norm^2 should match ||u''||^2 + ||u||^2 for a smooth compatible
    # function, within 2% at N=400 and improving at N=800
    interval = reference_interval()
    length = interval.length
    oracle = (np.pi / length) ** 4 * length / 2.0 + length / 2.0
    errors = {}
    for n in (400, 800):
        op = build_scale_operator(interval, n)
        u = np.sin(np.pi * (op.grid - interval.u_min) / length)
        u[0] = 0.0
        norm_sq = op.scale_norm(u, 1.0) ** 2
        errors[n] = abs(norm_sq - oracle) / oracle
    assert errors[400] <= 0.02
    assert errors[800] <= errors[400]


def test_scale_norm_monotone_in_s(op400):
    rng = np.random.default_rng(1)
    u = _random_constrained(op400, rng)
    values = [op400.scale_norm(u, s) for s in np.linspace(-2.0, 2.0, 9)]
    assert np.all(np.diff(values) >= -1e-12 * values[0])


def test_apply_power_identity_and_eigenpair(op400):
    rng = np.random.default_rng(2)
    u = _random_constrained(op400, rng)
    np.testing.assert_allclose(op400.apply_power(u, 0.0), u, rtol=0, atol=1e-10)
    # t = 4 reproduces the eigenpair; measure in the mass norm since the
    # spectral sum amplifies orthogonality defects by lambda_max
    for k in (17, 399):
        v = op400.eigenvectors[:, k].copy()
        out = op400.apply_power(v, 4.0)
        err = out - op400.eigenvalues[k] * v
        rel = np.sqrt(err[1:] @ (op400.mass * err[1:])) / op400.eigenvalues[k]
        assert rel <= 1e-9


def test_apply_power_inverse_composition(op400):
    rng = np.random.default_rng(3)
    u = _random_constrained(op400, rng)
    roundtrip = op400.apply_power(op400.apply_power(u, -1.0), 1.0)
    assert np.max(np.abs(roundtrip - u)) <= 1e-9 * np.max(np.abs(u))


def test_interpolation_inequality_random(op400):
    checks.check_scale_operator(op400, n_samples=500, seed=4)


def test_interpolation_equality_on_eigenvector(op400):
    v = np.concatenate(([0.0], op400.eigenvectors[1:, 42]))
    margin = op400.interpolation_margin(v, 0.0, 1.0, 2.0)
    rhs = op400.x_norm(v, 2.0)
    assert abs(margin) <= 1e-12 * rhs


def test_interpolation_margin_homogeneous(op400):
    rng = np.random.default_rng(5)
    u = _random_constrained(op400, rng)
    m1 = op400.interpolation_margin(u, 0.0, 1.0, 2.0)
    m2 = op400.interpolation_margin(3.5 * u, 0.0, 1.0, 2.0)
    assert m2 == pytest.approx(3.5 * m1, rel=1e-9, abs=1e-12)


def test_interpolation_margin_argument_errors(op400):
    u = np.zeros(op400.n_points)
    u[1] = 1.0
    with pytest.raises(ValueError):
        op400.interpolation_margin(u, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        op400.interpolation_margin(np.zeros(op400.n_points), 0.0, 1.0, 2.0)


def test_vectors_must_satisfy_essential_condition(op400):
    u = np.ones(op400.n_points)
    with pytest.raises(ValueError):
        op400.scale_norm(u, 0.0)
    with pytest.raises(ValueError):
        op400.scale_norm(np.ones(3), 0.0)


def test_stacked_rows_are_each_checked(op400):
    rng = np.random.default_rng(6)
    u = np.stack([_random_constrained(op400, rng) for _ in range(3)])
    levels = np.array([0.0, 0.5, 1.0])
    assert op400.interpolation_margin(u, levels, levels + 0.5, levels + 1.0).shape == (3,)
    assert op400.scale_norm(u, 1.0).shape == (3,)
    with pytest.raises(ValueError):  # r <= s <= t fails in the last row only
        op400.interpolation_margin(u, levels, [0.5, 1.0, 0.5], levels + 1.0)
    with pytest.raises(ValueError):  # r < t fails in the first row only
        op400.interpolation_margin(u, levels, levels, [0.0, 1.0, 2.0])
    zero_row = u.copy()
    zero_row[1] = 0.0
    with pytest.raises(ValueError):
        op400.interpolation_margin(zero_row, 0.0, 1.0, 2.0)
    unconstrained = u.copy()
    unconstrained[2, 0] = 1.0
    with pytest.raises(ValueError):
        op400.scale_norm(unconstrained, 0.0)
