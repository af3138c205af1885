import ctypes

import numpy as np
import pytest

from difflaw import (
    NumericalError,
    ParameterSpline,
    antiderivative_l2_norm,
    build_scale_operator,
    checks,
    hilbert_scale,
    reference_interval,
)
from difflaw.splines import _coefficients
from difflaw.tikhonov import _band_apply, _penalty_band

from conftest import dense_penalty_rows


@pytest.fixture(scope="module")
def op400():
    return build_scale_operator(reference_interval(), 400)


def _random_vector(op, rng):
    return rng.normal(size=op.eigenvalues.size)


def _mass_norm(op, d):
    return np.sqrt(d @ _band_apply(op.mass_band, d))


def _assert_invariants(op):
    n = op.n_elements
    f, q = dense_penalty_rows(op.interval, n)
    mass = q.T @ q
    dense_band = np.stack([np.append(np.diagonal(mass, -k), np.zeros(k)) for k in range(3)], 1)
    assert op.mass_band.shape == (n + 1, 3)
    assert np.max(np.abs(op.mass_band - dense_band)) <= 1e-15 * np.max(np.abs(mass))
    assert op.eigenvalues[0] == 1.0 and np.all(np.diff(op.eigenvalues) >= 0)
    v = op.eigenvectors
    assert v.shape == (n + 1, n + 1)
    assert np.max(np.abs(v.T @ mass @ v - np.eye(n + 1))) <= 1e-10
    # above the bottom, the eigenvalues are the Rayleigh quotients 1 + |F v|^2 / v^T P v
    quotients = 1.0 + np.sum((f @ v) ** 2, axis=0) / np.sum((q @ v) ** 2, axis=0)
    np.testing.assert_allclose(op.eigenvalues[1:], quotients[1:], rtol=1e-12, atol=0)


def test_construction_invariants(op400):
    _assert_invariants(op400)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_grids_build(n):
    op = build_scale_operator(reference_interval(), n)
    _assert_invariants(op)
    checks.check_scale_operator(op, n_samples=20, seed=n)


@pytest.mark.parametrize("n", [10.9, "12", 0, -1, np.nan, None])
def test_rejects_what_the_solver_rejects(n):
    with pytest.raises(ValueError, match=rf"n_elements must be an integer >= 1, got {n!r}"):
        build_scale_operator(reference_interval(), n)


def test_build_takes_no_dense_svd(monkeypatch):
    def dense_svd(*args, **kwargs):
        raise AssertionError("build_scale_operator called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", dense_svd)
    op = build_scale_operator(reference_interval(), 50)
    assert op.eigenvalues[0] == 1.0


def test_build_factors_the_solvers_penalty(monkeypatch):
    # one dsbgvd call, on the solver's band of K + P and the band of P,
    # each read before dsbgvd overwrites it
    calls = []
    solver = hilbert_scale._dsbgvd

    def band(arg):
        return np.array((ctypes.c_double * (31 * 3)).from_address(ctypes.addressof(arg)))

    def recording(*args):
        calls.append((band(args[5]), band(args[7])))
        solver(*args)

    monkeypatch.setattr(hilbert_scale, "_dsbgvd", recording)
    op = build_scale_operator(reference_interval(), 30)
    ((pencil, mass),) = calls
    assert pencil.tobytes() == _penalty_band(reference_interval(), 30).tobytes()
    assert mass.tobytes() == op.mass_band.tobytes()


@pytest.mark.parametrize(
    "info, cause",
    [(3, r"info 3$"), (11 + 3, r"info 14; P is not positive definite")],
    ids=["dsbgvd-no-convergence", "dsbgvd-mass-not-definite"],
)
def test_lapack_failure_names_the_routine(monkeypatch, info, cause):
    # the status argument sits just before the two trailing character lengths;
    # an info above n + 1 reports that the Cholesky factor of P failed
    def failing(*args):
        args[-3].value = info

    monkeypatch.setattr(hilbert_scale, "_dsbgvd", failing)
    with pytest.raises(NumericalError, match=rf"LAPACK dsbgvd\) failed: {cause}"):
        build_scale_operator(reference_interval(), 10)


def test_linear_function_rayleigh_quotient(op400):
    # a = 1 gives A(u) = u - u_min, with A'' = 0: its Rayleigh quotient is 1,
    # it spans the first eigenvector, and its penalty norm is its L2 norm
    interval = op400.interval
    d = _coefficients(np.ones(401), interval.length / 400)
    f, q = dense_penalty_rows(interval, 400)
    assert 1.0 <= 1.0 + np.sum((f @ d) ** 2) / np.sum((q @ d) ** 2) <= 1.0 + 1e-12
    cosine = abs(d @ _band_apply(op400.mass_band, op400.eigenvectors[:, 0]))
    assert cosine / _mass_norm(op400, d) >= 1.0 - 1e-10
    l2 = np.sqrt(interval.length**3 / 3)
    assert op400.scale_norm(d, -1.0) == pytest.approx(l2, rel=1e-12)
    assert op400.scale_norm(d, 1.0) == pytest.approx(l2, rel=1e-5)


def test_scale_norm_at_minus_one_is_l2(op400):
    checks.check_scale_operator(op400, n_samples=20, seed=0)


@pytest.mark.parametrize("n", [1, 5, 37, 200])
def test_scale_norm_at_minus_one_is_the_l2_norm_of_a(n):
    # the exact L2 norm of the antiderivative, by the splines' own quadrature
    interval = reference_interval()
    op = build_scale_operator(interval, n)
    rng = np.random.default_rng(n)
    splines = [ParameterSpline(interval, rng.normal(size=n + 1)) for _ in range(10)]
    d = _coefficients(np.stack([spline.node_values for spline in splines]), interval.length / n)
    np.testing.assert_allclose(
        op.scale_norm(d, -1.0), antiderivative_l2_norm(splines), rtol=1e-12, atol=0
    )


def test_scale_norm_s1_matches_direct_quadrature():
    # sum lambda c^2 = d^T (K + P) d, the solver's exact quadrature of the
    # penalty ||A''||^2 + ||A||^2.  Smooth A weights its few large
    # coefficients by lambda_max times the eigenvectors' squared error,
    # measured worst 2.6e-6 (n = 400, a = 1), so it gets its own bound
    interval = reference_interval()
    for n in (1, 5, 37, 200, 400):
        op = build_scale_operator(interval, n)
        penalty = _penalty_band(interval, n)
        grid = interval.uniform_grid(n)
        shape = np.pi * (grid - interval.u_min) / interval.length
        smooth = np.stack((np.ones(n + 1), 1.0 + grid**2, np.cos(shape)))
        for d, bound in (
            (np.random.default_rng(n).normal(size=(10, n + 1)), 1e-12),
            (_coefficients(smooth, interval.length / n), 1e-5),
        ):
            np.testing.assert_allclose(
                op.scale_norm(d, 1.0) ** 2,
                np.vecdot(d, _band_apply(penalty, d)),
                rtol=bound,
                atol=0,
                err_msg=f"n = {n}",
            )


def test_scale_norm_of_eigenvector(op400):
    for k in (0, 3, 200, 400):
        v = op400.eigenvectors[:, k]
        lam = op400.eigenvalues[k]
        for s in (-1.0, 0.0, 1.0, 2.0):
            assert op400.scale_norm(v, s) == pytest.approx(lam ** ((s + 1.0) / 4.0), rel=1e-10)


def test_scale_norm_monotone_in_s(op400):
    rng = np.random.default_rng(1)
    d = _random_vector(op400, rng)
    values = [op400.scale_norm(d, s) for s in np.linspace(-2.0, 2.0, 9)]
    assert np.all(np.diff(values) >= -1e-12 * values[0])


def test_apply_power_identity_and_eigenpair(op400):
    rng = np.random.default_rng(2)
    d = _random_vector(op400, rng)
    np.testing.assert_allclose(op400.apply_power(d, 0.0), d, rtol=0, atol=1e-10)
    # t = 4 reproduces the eigenpair; measure in the P norm since the
    # spectral sum amplifies orthogonality defects by lambda_max
    for k in (17, 400):
        v = op400.eigenvectors[:, k]
        err = op400.apply_power(v, 4.0) - op400.eigenvalues[k] * v
        assert _mass_norm(op400, err) / op400.eigenvalues[k] <= 1e-9


def test_apply_power_inverse_composition(op400):
    rng = np.random.default_rng(3)
    d = _random_vector(op400, rng)
    roundtrip = op400.apply_power(op400.apply_power(d, -1.0), 1.0)
    assert np.max(np.abs(roundtrip - d)) <= 1e-9 * np.max(np.abs(d))


def test_interpolation_inequality_random(op400):
    checks.check_scale_operator(op400, n_samples=500, seed=4)


def test_interpolation_equality_on_eigenvector(op400):
    v = op400.eigenvectors[:, 42]
    margin = op400.interpolation_margin(v, 0.0, 1.0, 2.0)
    rhs = op400.x_norm(v, 2.0)
    assert abs(margin) <= 1e-12 * rhs


def test_interpolation_margin_homogeneous(op400):
    rng = np.random.default_rng(5)
    d = _random_vector(op400, rng)
    m1 = op400.interpolation_margin(d, 0.0, 1.0, 2.0)
    m2 = op400.interpolation_margin(3.5 * d, 0.0, 1.0, 2.0)
    assert m2 == pytest.approx(3.5 * m1, rel=1e-9, abs=1e-12)


def test_interpolation_margin_argument_errors(op400):
    d = np.zeros(op400.eigenvalues.size)
    d[0] = 1.0
    with pytest.raises(ValueError):
        op400.interpolation_margin(d, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        op400.interpolation_margin(np.zeros_like(d), 0.0, 1.0, 2.0)


def test_vectors_must_have_one_entry_per_coefficient(op400):
    for shape in ((3,), (400,), (2, 402), (2, 2, 401)):
        with pytest.raises(ValueError, match="coefficient vectors of length 401"):
            op400.scale_norm(np.ones(shape), 0.0)


def test_stacked_rows_are_each_checked(op400):
    rng = np.random.default_rng(6)
    d = np.stack([_random_vector(op400, rng) for _ in range(3)])
    levels = np.array([0.0, 0.5, 1.0])
    assert op400.interpolation_margin(d, levels, levels + 0.5, levels + 1.0).shape == (3,)
    assert op400.scale_norm(d, 1.0).shape == (3,)
    with pytest.raises(ValueError):  # r <= s <= t fails in the last row only
        op400.interpolation_margin(d, levels, [0.5, 1.0, 0.5], levels + 1.0)
    with pytest.raises(ValueError):  # r < t fails in the first row only
        op400.interpolation_margin(d, levels, levels, [0.0, 1.0, 2.0])
    zero_row = d.copy()
    zero_row[1] = 0.0
    with pytest.raises(ValueError):
        op400.interpolation_margin(zero_row, 0.0, 1.0, 2.0)
