"""Self-contained property checks behind the `verify` CLI subcommand.

Each check raises AssertionError with a diagnostic on failure and returns a
short detail string on success.  They mirror the module property suites at
reduced sizes so the whole run stays fast.
"""

from __future__ import annotations

import numpy as np

from .forward import add_noise, assemble_t_matrix, operator_norm_ratio, residual_norm
from .hilbert_scale import build_scale_operator
from .reference import (
    exact_parameter_spline,
    reference_curve,
    reference_exact_data,
    reference_interval,
)
from .splines import ParameterSpline
from .tikhonov import (
    antiderivative_penalty_matrix,
    build_tikhonov_problem,
    naive_reconstruction,
    solve_tikhonov,
    tikhonov_objective,
)

__all__ = ["run_all_checks", "ALL_CHECKS"]


def check_spline_norms():
    """l2/h1 norms match fine composite-Simpson quadrature."""
    rng = np.random.default_rng(0)
    interval = reference_interval()
    for _ in range(5):
        spline = ParameterSpline(interval, rng.normal(size=31))
        grid = spline.nodes
        fine = np.linspace(grid[0], grid[-1], 30 * 16 + 1)
        vals = spline(fine)
        h = fine[1] - fine[0]
        w = np.ones(fine.size)
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        simpson = np.sqrt(np.sum(w * vals**2) * h / 3.0)
        assert abs(spline.l2_norm() - simpson) <= 1e-12 * simpson, (
            f"l2 {spline.l2_norm()} vs simpson {simpson}"
        )
    return "l2 norm vs Simpson oracle on 5 random splines"


def check_antiderivative():
    """Antiderivative is linear in the nodes and increasing for positive ones."""
    rng = np.random.default_rng(1)
    interval = reference_interval()
    u = np.linspace(interval.u_min, interval.u_max, 50)
    for _ in range(20):
        p = ParameterSpline(interval, rng.uniform(0.1, 2.0, 25))
        q = ParameterSpline(interval, rng.normal(size=25))
        lin = ParameterSpline(interval, p.node_values + 2.5 * q.node_values)
        lhs = lin.antiderivative(u)
        rhs = p.antiderivative(u) + 2.5 * q.antiderivative(u)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14), "not linear in nodes"
        assert np.all(np.diff(p.antiderivative(u)) > 0), "not increasing"
    return "linearity and monotonicity on 20 random splines"


def check_forward_consistency():
    """Exact-spline forward values match the exact data closely."""
    data = reference_exact_data(500)
    spline = exact_parameter_spline(200)
    t = assemble_t_matrix(data.interval, 200, data)
    worst = np.max(np.abs(t @ spline.node_values - data.y_values))
    assert worst <= 3e-5, f"forward mismatch {worst:.2e} > 3e-5"
    assert residual_norm(spline, data) <= 3e-5 * np.sqrt(np.pi / 2)
    return f"max forward mismatch {worst:.2e}"


def check_zero_noise_identity():
    """Zero noise leaves the data, and hence the operator, unchanged."""
    data = reference_exact_data(200)
    rng = np.random.default_rng(2)
    noisy = add_noise(data, 0.0, rng)
    assert np.array_equal(noisy.h_values, data.h_values)
    assert np.array_equal(noisy.y_values, data.y_values)
    t0 = assemble_t_matrix(data.interval, 100, data)
    t1 = assemble_t_matrix(data.interval, 100, noisy)
    assert np.array_equal(t0, t1), "operator changed under zero noise"
    return "T matrices identical at delta=0"


def check_mapping_band():
    """||TA||/||A|| stays inside the analytic weight band on random splines."""
    rng = np.random.default_rng(3)
    curve = reference_curve()
    interval = reference_interval()
    ratios = [
        operator_norm_ratio(ParameterSpline(interval, rng.normal(size=201)), curve, 500)
        for _ in range(30)
    ]
    lo, hi = min(ratios), max(ratios)
    assert 0.98 <= lo and hi <= 1.214, f"ratio range [{lo:.4f}, {hi:.4f}]"
    return f"30 random splines in [{lo:.4f}, {hi:.4f}]"


def check_perturbation_stability():
    """Operator perturbation scales linearly with the noise level."""
    interval = reference_interval()
    data = reference_exact_data(500)
    anti = antiderivative_penalty_matrix(interval, 200)
    grid = interval.uniform_grid(200)
    dx = interval.length / 200
    rng = np.random.default_rng(4)
    length = interval.length
    tests = [
        sum(
            c * np.cos(k * np.pi * (grid - interval.u_min) / length)
            for k, c in enumerate(rng.normal(size=5))
        )
        for _ in range(10)
    ]
    t_exact = assemble_t_matrix(interval, 200, data)
    worst = {}
    for delta in (1e-2, 1e-5):
        w_max = 0.0
        for draw in range(3):
            noisy = add_noise(data, delta, np.random.default_rng([draw, int(delta * 1e9)]))
            diff = t_exact - assemble_t_matrix(interval, 200, noisy)
            for w in tests:
                num = np.sqrt(np.sum(data.quad_weights * (diff @ w) ** 2))
                h2 = np.sqrt(
                    w @ anti @ w
                    + np.sum(dx * (w[:-1] ** 2 + w[:-1] * w[1:] + w[1:] ** 2) / 3)
                    + np.sum(np.diff(w) ** 2) / dx
                )
                w_max = max(w_max, num / (delta * h2))
        worst[delta] = w_max
    ratio = worst[1e-2] / worst[1e-5]
    assert 0.25 <= ratio <= 4.0, f"constant drifts by factor {ratio:.2f}"
    return f"perturbation constants {worst[1e-2]:.3f} vs {worst[1e-5]:.3f}"


def check_scale_operator():
    """Spectral invariants of the discrete fourth-order operator."""
    op = build_scale_operator(reference_interval(), 200)
    assert op.eigenvalues[0] >= 1.0 - 1e-10, f"lambda_min={op.eigenvalues[0]!r}"
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = np.concatenate(([0.0], rng.normal(size=200)))
        m_norm = np.sqrt(u[1:] @ (np.diagonal(op.mass) * u[1:]))
        assert abs(op.scale_norm(u, -1.0) - m_norm) <= 1e-12 * m_norm
        r, t = sorted(rng.uniform(-2.0, 3.0, 2))
        if t - r < 1e-2:
            continue
        s = rng.uniform(r, t)
        margin = op.interpolation_margin(u, r, s, t)
        rhs = op.x_norm(u, r) ** ((t - s) / (t - r)) * op.x_norm(u, t) ** ((s - r) / (t - r))
        assert margin >= -1e-10 * rhs, f"margin {margin:.2e} at (r,s,t)=({r},{s},{t})"
    return "interpolation and norm identities on 50 random vectors"


def check_tikhonov_optimality():
    """Returned minimizer is a first-order optimum and solves are deterministic."""
    data = add_noise(reference_exact_data(500), 1e-3, np.random.default_rng(6))
    problem = build_tikhonov_problem(data, 200)
    result = solve_tikhonov(problem, 1e-6)
    again = solve_tikhonov(problem, 1e-6)
    assert np.allclose(
        result.spline.node_values, again.spline.node_values, rtol=1e-14, atol=0
    )
    base = tikhonov_objective(problem, result.spline.node_values, 1e-6)
    rng = np.random.default_rng(7)
    for _ in range(10):
        step = rng.normal(size=201)
        step *= 1e-4 / np.linalg.norm(step)
        for sign in (+1, -1):
            perturbed = tikhonov_objective(
                problem, result.spline.node_values + sign * step, 1e-6
            )
            assert perturbed >= base - 1e-14, "objective decreased under perturbation"
    return "optimality along 10 random directions"


def check_residual_monotonicity():
    """Residual grows and the penalized norm shrinks as alpha increases."""
    data = add_noise(reference_exact_data(500), 1e-3, np.random.default_rng(8))
    problem = build_tikhonov_problem(data, 200)
    prev_res, prev_norm = -np.inf, np.inf
    for alpha in np.logspace(-10, 2, 10):
        result = solve_tikhonov(problem, alpha)
        nodes = result.spline.node_values
        pen_norm = float(np.sqrt(nodes @ problem.penalty @ nodes))
        assert result.residual >= prev_res - 1e-13, "residual decreased"
        assert pen_norm <= prev_norm + 1e-13, "penalized norm increased"
        prev_res, prev_norm = result.residual, pen_norm
    return "monotone residual/penalty over 10-point alpha grid"


def check_noiseless_recovery():
    """Noise-free data is recovered to the discretization floor."""
    data = reference_exact_data(500)
    result = solve_tikhonov(build_tikhonov_problem(data, 200), 1e-12)
    err0 = (result.spline - exact_parameter_spline(200)).l2_norm()
    assert err0 <= 1e-3, f"noiseless err0 {err0:.2e} > 1e-3"
    return f"noiseless err0 {err0:.2e}"


def check_naive_contrast():
    """Naive differentiation explodes under noise; Tikhonov does not."""
    data = reference_exact_data(500)
    curve = reference_curve()
    exact = exact_parameter_spline(200)
    clean_err = (naive_reconstruction(data, curve, 200) - exact).l2_norm()
    assert clean_err <= 5e-3, f"noise-free naive err0 {clean_err:.2e} > 5e-3"
    noisy = add_noise(data, 1e-2, np.random.default_rng(9))
    naive_err = (naive_reconstruction(noisy, curve, 200) - exact).l2_norm()
    tikh = solve_tikhonov(build_tikhonov_problem(noisy, 200), 1e-4)
    tikh_err = (tikh.spline - exact).l2_norm()
    assert naive_err >= 10 * tikh_err, (
        f"contrast only {naive_err / tikh_err:.1f}x"
    )
    return f"contrast {naive_err / tikh_err:.0f}x at delta=1e-2"


ALL_CHECKS = [
    ("spline norms", check_spline_norms),
    ("antiderivative", check_antiderivative),
    ("forward consistency", check_forward_consistency),
    ("zero-noise identity", check_zero_noise_identity),
    ("operator mapping band", check_mapping_band),
    ("perturbation stability", check_perturbation_stability),
    ("scale operator", check_scale_operator),
    ("tikhonov optimality", check_tikhonov_optimality),
    ("residual monotonicity", check_residual_monotonicity),
    ("noiseless recovery", check_noiseless_recovery),
    ("naive contrast", check_naive_contrast),
]


def run_all_checks(write=print) -> bool:
    """Run every check, print one pass/fail line each, return overall success."""
    ok = True
    for name, check in ALL_CHECKS:
        try:
            detail = check()
            write(f"PASS {name}: {detail}")
        except AssertionError as exc:
            ok = False
            write(f"FAIL {name}: {exc}")
    return ok
