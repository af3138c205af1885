"""The package's property checks: one implementation of each property.

Each check measures one property the method rests on (the norm equivalence
of T, the operator perturbation growing linearly in delta, the
Hilbert-scale interpolation inequality, first-order optimality of the
Tikhonov minimizer, ...).  It raises AssertionError with a diagnostic when
the property fails, and otherwise returns a CheckResult holding a one-line
detail and the measured values.

Checks that the test suites or the acceptance criteria also call take
keyword arguments for their sample count and seed, so those callers run
them at their own seeds and sizes; the defaults are the reduced sizes the
`verify` CLI subcommand runs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .forward import add_noise, apply_t, operator_norm_ratio, quadrature_norm, residual_norm
from .hilbert_scale import build_scale_operator
from .reference import (
    exact_parameter_spline,
    reference_curve,
    reference_exact_data,
    reference_interval,
)
from .splines import ParameterSpline, antiderivative_l2_norm
from .tikhonov import (
    build_tikhonov_problem,
    naive_reconstruction,
    solve_tikhonov,
    tikhonov_objective,
)

__all__ = ["CheckResult", "run_all_checks", "ALL_CHECKS"]


def _require(holds: bool, message: str) -> None:
    """Fail the check; an explicit raise, so `python -O` cannot strip it."""
    if not holds:
        raise AssertionError(message)


class CheckResult(NamedTuple):
    """A passed check: its one-line detail and the values it measured."""

    detail: str
    values: dict


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
        _require(
            abs(spline.l2_norm() - simpson) <= 1e-12 * simpson,
            f"l2 {spline.l2_norm()} vs simpson {simpson}",
        )
    return CheckResult("l2 norm vs Simpson oracle on 5 random splines", {})


def check_antiderivative(n_splines=20, n_elements=24, n_points=50, seed=1):
    """Antiderivative is linear in the nodes and increasing for positive ones."""
    rng = np.random.default_rng(seed)
    interval = reference_interval()
    u = np.linspace(interval.u_min, interval.u_max, n_points)
    for _ in range(n_splines):
        p = ParameterSpline(interval, rng.uniform(0.1, 2.0, n_elements + 1))
        q = ParameterSpline(interval, rng.normal(size=n_elements + 1))
        c = rng.normal()
        lin = ParameterSpline(interval, p.node_values + c * q.node_values)
        lhs = lin.antiderivative(u)
        rhs = p.antiderivative(u) + c * q.antiderivative(u)
        _require(np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14), "not linear in nodes")
        _require(np.all(np.diff(p.antiderivative(u)) > 0), "not increasing")
    return CheckResult(f"linearity and monotonicity on {n_splines} random splines", {})


def check_forward_consistency():
    """Exact-spline forward values match the exact data closely."""
    data = reference_exact_data(500)
    spline = exact_parameter_spline(200)
    worst = np.max(np.abs(apply_t(spline, data) - data.y_values))
    _require(worst <= 3e-5, f"forward mismatch {worst:.2e} > 3e-5")
    check_exact_spline_residual(data, spline)
    return CheckResult(f"max forward mismatch {worst:.2e}", {})


def check_exact_spline_residual(data, spline):
    """The exact spline's data residual stays within 3e-5 * sqrt(pi/2)."""
    residual = residual_norm(spline, data)
    _require(residual <= 3e-5 * np.sqrt(np.pi / 2), f"exact-spline residual {residual:.2e}")


def check_zero_noise_identity(m=200, n_elements=100, seed=2):
    """Zero noise leaves the data, and hence the operator, unchanged."""
    data = reference_exact_data(m)
    noisy = add_noise(data, 0.0, np.random.default_rng(seed))
    _require(np.array_equal(noisy.h_values, data.h_values), "h changed under zero noise")
    _require(np.array_equal(noisy.y_values, data.y_values), "y changed under zero noise")
    p0 = build_tikhonov_problem(data, n_elements)
    p1 = build_tikhonov_problem(noisy, n_elements)
    same = np.array_equal(p0.normal_band, p1.normal_band) and np.array_equal(
        p0.normal_rhs, p1.normal_rhs
    )
    _require(same, "operator changed under zero noise")
    return CheckResult("T matrices identical at delta=0", {})


def check_mapping_band(n_splines=30, seed=3):
    """||TA||/||A|| stays inside the analytic weight band on random splines."""
    rng = np.random.default_rng(seed)
    curve = reference_curve()
    interval = reference_interval()
    ratios = [
        operator_norm_ratio(ParameterSpline(interval, rng.normal(size=201)), curve, 500)
        for _ in range(n_splines)
    ]
    lo, hi = min(ratios), max(ratios)
    _require(0.98 <= lo and hi <= 1.214, f"ratio range [{lo:.4f}, {hi:.4f}]")
    return CheckResult(
        f"{n_splines} random splines in [{lo:.4f}, {hi:.4f}]", {"lo": lo, "hi": hi}
    )


def check_perturbation_stability(n_functions=10, deltas=(1e-2, 1e-5), seed=4):
    """||(T - T^delta) w|| <= C delta ||W||_{H2} with C stable across delta.

    W is the antiderivative of the test spline w; C is the worst ratio over
    the test functions and three noise draws per level, and its spread
    (largest over smallest C) across the levels must stay within 4.
    """
    interval = reference_interval()
    data = reference_exact_data(500)
    grid = interval.uniform_grid(200)
    rng = np.random.default_rng(seed)
    tests = [
        ParameterSpline(
            interval,
            sum(
                c * np.cos(k * np.pi * (grid - interval.u_min) / interval.length)
                for k, c in enumerate(rng.normal(size=5))
            ),
        )
        for _ in range(n_functions)
    ]
    h2_norms = [np.hypot(antiderivative_l2_norm(w), w.h1_norm()) for w in tests]
    exact_values = [apply_t(w, data) for w in tests]
    constants = {}
    for delta in deltas:
        worst = 0.0
        for draw in range(3):
            noisy = add_noise(data, delta, np.random.default_rng([draw, int(1 / delta)]))
            for w, values, h2 in zip(tests, exact_values, h2_norms):
                norm = quadrature_norm(values - apply_t(w, noisy), data.quad_weights)
                worst = max(worst, norm / (delta * h2))
        constants[delta] = worst
    spread = max(constants.values()) / min(constants.values())
    _require(spread <= 4.0, f"constant drifts by factor {spread:.2f}")
    return CheckResult(
        f"perturbation constants {constants[deltas[0]]:.3f} vs {constants[deltas[-1]]:.3f}",
        {"constants": constants, "spread": spread},
    )


def check_scale_operator(op, n_samples=50, seed=5):
    """Spectral invariants of the discrete fourth-order operator `op`.

    Each sample draws a constrained vector u, then levels r < t (redrawing
    both when t - r < 1e-3), then s in [r, t], and checks the interpolation
    inequality at (r, s, t) and the L2 identity of the index -1 norm.
    """
    lam_min = op.eigenvalues[0]
    _require(lam_min >= 1.0 - 1e-10, f"lambda_min={lam_min!r}")
    rng = np.random.default_rng(seed)
    worst_margin, worst_l2 = np.inf, 0.0
    checked = 0
    while checked < n_samples:
        u = np.zeros(op.n_points)
        u[1:] = rng.normal(size=op.n_points - 1)
        r, t = np.sort(rng.uniform(-2.0, 3.0, 2))
        if t - r < 1e-3:
            continue
        s = rng.uniform(r, t)
        rhs = op.x_norm(u, r) ** ((t - s) / (t - r)) * op.x_norm(u, t) ** (
            (s - r) / (t - r)
        )
        worst_margin = min(worst_margin, op.interpolation_margin(u, r, s, t) / rhs)
        m_norm = np.sqrt(u[1:] @ (op.mass * u[1:]))
        worst_l2 = max(worst_l2, abs(op.scale_norm(u, -1.0) - m_norm) / m_norm)
        checked += 1
    _require(worst_margin >= -1e-10, f"interpolation margin/RHS {worst_margin:.2e}")
    _require(worst_l2 <= 1e-12, f"|scale_norm(-1) - L2|/L2 = {worst_l2:.2e}")
    return CheckResult(
        f"interpolation and norm identities on {n_samples} random vectors",
        {"lam_min": lam_min, "worst_margin": worst_margin, "worst_l2": worst_l2},
    )


def check_tikhonov_optimality(noise_seed=6, direction_seed=7, n_directions=10):
    """Returned minimizer is a first-order optimum and solves are deterministic."""
    data = add_noise(reference_exact_data(500), 1e-3, np.random.default_rng(noise_seed))
    problem = build_tikhonov_problem(data, 200)
    nodes = solve_tikhonov(problem, 1e-6).spline.node_values
    again = solve_tikhonov(problem, 1e-6).spline.node_values
    _require(np.allclose(nodes, again, rtol=1e-14, atol=0), "repeated solve differs")
    base = tikhonov_objective(problem, nodes, 1e-6)
    rng = np.random.default_rng(direction_seed)
    for _ in range(n_directions):
        step = rng.normal(size=nodes.size)
        step *= 1e-4 / np.linalg.norm(step)
        for sign in (+1, -1):
            perturbed = tikhonov_objective(problem, nodes + sign * step, 1e-6)
            _require(perturbed >= base - 1e-14, "objective decreased under perturbation")
    return CheckResult(f"optimality along {n_directions} random directions", {})


def check_residual_monotonicity():
    """Residual grows and the penalized norm shrinks as alpha increases."""
    data = add_noise(reference_exact_data(500), 1e-3, np.random.default_rng(8))
    problem = build_tikhonov_problem(data, 200)
    prev_res, prev_norm = -np.inf, np.inf
    for alpha in np.logspace(-10, 2, 10):
        result = solve_tikhonov(problem, alpha)
        spline = result.spline
        # ||A''||^2 = ||a'||^2, exact for the piecewise-linear a
        grad_norm = np.linalg.norm(np.diff(spline.node_values)) / np.sqrt(spline.spacing)
        pen_norm = float(np.hypot(grad_norm, antiderivative_l2_norm(spline)))
        _require(result.residual >= prev_res - 1e-13, "residual decreased")
        _require(pen_norm <= prev_norm + 1e-13, "penalized norm increased")
        prev_res, prev_norm = result.residual, pen_norm
    return CheckResult("monotone residual/penalty over 10-point alpha grid", {})


def check_noiseless_recovery():
    """Noise-free data is recovered to the discretization floor."""
    data = reference_exact_data(500)
    result = solve_tikhonov(build_tikhonov_problem(data, 200), 1e-12)
    err0 = (result.spline - exact_parameter_spline(200)).l2_norm()
    _require(err0 <= 1e-3, f"noiseless err0 {err0:.2e} > 1e-3")
    return CheckResult(f"noiseless err0 {err0:.2e}", {"err0": err0})


def check_naive_contrast(seeds=(9,)):
    """Naive differentiation explodes under noise; Tikhonov does not.

    Each seed draws one data set at delta = 1e-2, reconstructed both naively
    and by Tikhonov with alpha = delta^2; the median naive error must be at
    least ten times the median Tikhonov error.
    """
    delta = 1e-2
    data = reference_exact_data(500)
    curve = reference_curve()
    exact = exact_parameter_spline(200)
    clean_naive = (naive_reconstruction(data, curve, 200) - exact).l2_norm()
    _require(clean_naive <= 5e-3, f"noise-free naive err0 {clean_naive:.2e} > 5e-3")
    naive_errs, tikh_errs = [], []
    for seed in seeds:
        noisy = add_noise(data, delta, np.random.default_rng(seed))
        naive_errs.append((naive_reconstruction(noisy, curve, 200) - exact).l2_norm())
        tikh = solve_tikhonov(build_tikhonov_problem(noisy, 200), delta**2)
        tikh_errs.append((tikh.spline - exact).l2_norm())
    naive, tikhonov = float(np.median(naive_errs)), float(np.median(tikh_errs))
    contrast = naive / tikhonov
    _require(contrast >= 10, f"contrast only {contrast:.1f}x")
    return CheckResult(
        f"contrast {contrast:.0f}x at delta=1e-2",
        {"contrast": contrast, "naive": naive, "tikhonov": tikhonov, "clean_naive": clean_naive},
    )


ALL_CHECKS = [
    ("spline norms", check_spline_norms),
    ("antiderivative", check_antiderivative),
    ("forward consistency", check_forward_consistency),
    ("zero-noise identity", check_zero_noise_identity),
    ("operator mapping band", check_mapping_band),
    ("perturbation stability", check_perturbation_stability),
    (
        "scale operator",
        lambda: check_scale_operator(build_scale_operator(reference_interval(), 200)),
    ),
    ("tikhonov optimality", check_tikhonov_optimality),
    ("residual monotonicity", check_residual_monotonicity),
    ("noiseless recovery", check_noiseless_recovery),
    ("naive contrast", check_naive_contrast),
]


def run_all_checks() -> bool:
    """Run every check, print one pass/fail line each, return overall success."""
    ok = True
    for name, check in ALL_CHECKS:
        try:
            print(f"PASS {name}: {check().detail}")
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
    return ok
