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
`verify` CLI subcommand runs.  A check draws its random samples one by one,
in a fixed order, and then evaluates them as one stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .forward import (
    _midpoint_rule,
    add_noise,
    operator_norm_ratio,
    quadrature_norm,
    residual_norm,
)
from .hilbert_scale import build_scale_operator
from .reference import (
    exact_parameter_spline,
    reference_curve,
    reference_exact_data,
    reference_interval,
)
from .splines import ParameterSpline, _antiderivative, _norms, antiderivative_l2_norm
from .tikhonov import (
    _band_apply,
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
    draws = [
        (rng.uniform(0.1, 2.0, n_elements + 1), rng.normal(size=n_elements + 1), rng.normal())
        for _ in range(n_splines)
    ]
    p, q, c = (np.array(column) for column in zip(*draws))
    c = c[:, None]
    lin, p_values, q_values = _antiderivative(interval, np.stack((p + c * q, p, q)), u)
    rhs = p_values + c * q_values
    _require(np.allclose(lin, rhs, rtol=1e-12, atol=1e-14), "not linear in nodes")
    _require(np.all(np.diff(p_values) > 0), "not increasing")
    return CheckResult(f"linearity and monotonicity on {n_splines} random splines", {})


def check_forward_consistency():
    """Exact-spline forward values match the exact data closely."""
    data = reference_exact_data(500)
    spline = exact_parameter_spline(200)
    misfit = spline.antiderivative(data.h_values) - data.y_values
    worst = np.max(np.abs(misfit))
    _require(worst <= 3e-5, f"forward mismatch {worst:.2e} > 3e-5")
    _require_exact_residual(quadrature_norm(misfit, data.quad_weights))
    return CheckResult(f"max forward mismatch {worst:.2e}", {})


def check_exact_spline_residual(data, spline):
    """The exact spline's data residual stays within 3e-5 * sqrt(pi/2)."""
    _require_exact_residual(residual_norm(spline, data))


def _require_exact_residual(residual: float) -> None:
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
    m = 500
    rng = np.random.default_rng(seed)
    curve = reference_curve()
    interval = reference_interval()
    splines = [ParameterSpline(interval, rng.normal(size=201)) for _ in range(n_splines)]
    ratios = operator_norm_ratio(splines, curve, m)
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    # ||TA||^2 = int A(u)^2 w(u) du with w = 1 / |h'|, so the ratio lies in
    # [min sqrt(w), max sqrt(w)]; 2 % slack covers the m-point quadrature
    s = np.concatenate(([curve.s_lo, curve.s_hi], _midpoint_rule(curve, m)[0]))
    root_w = np.abs(curve.h_prime(s)) ** -0.5
    band = (0.98 * float(np.min(root_w)), 1.02 * float(np.max(root_w)))
    _require(
        band[0] <= lo and hi <= band[1],
        f"ratio range [{lo:.4f}, {hi:.4f}] outside the band [{band[0]:.4f}, {band[1]:.4f}]",
    )
    return CheckResult(
        f"{n_splines} random splines in [{lo:.4f}, {hi:.4f}]",
        {"lo": lo, "hi": hi, "band": band},
    )


def check_perturbation_stability(n_functions=10, deltas=(1e-2, 1e-5), seed=4):
    """||(T - T^delta) w|| <= C delta ||W||_{H2} with C stable across delta.

    W is the antiderivative of the test spline w; C is the worst ratio over
    the test functions and three noise draws per level, and its spread
    (largest over smallest C) across the levels must stay within 4.
    """
    n_elements = 200
    interval = reference_interval()
    data = reference_exact_data(500)
    grid = interval.uniform_grid(n_elements)
    rng = np.random.default_rng(seed)
    modes = np.cos(np.arange(5)[:, None] * np.pi * (grid - interval.u_min) / interval.length)
    coefficients = rng.normal(size=(n_functions, 5))
    nodes = sum(coefficients[:, k, None] * mode for k, mode in enumerate(modes))
    tests = [ParameterSpline(interval, w) for w in nodes]
    h1_norms = _norms(nodes, interval.length / n_elements)[1]
    h2_norms = np.hypot(antiderivative_l2_norm(tests), h1_norms)
    # states of the exact data, then of three noise draws per level: (1 + 3 D, m)
    noisy = [
        add_noise(data, delta, np.random.default_rng([draw, int(1 / delta)]))
        for delta in deltas
        for draw in range(3)
    ]
    states = np.stack([data.h_values, *(member.h_values for member in noisy)])
    values = _antiderivative(interval, nodes, states)  # (n_functions, 1 + 3 D, m)
    norms = quadrature_norm(values[:, :1] - values[:, 1:], data.quad_weights)
    ratios = norms.reshape(n_functions, len(deltas), 3) / (
        np.array(deltas)[:, None] * h2_norms[:, None, None]
    )
    constants = {delta: float(worst) for delta, worst in zip(deltas, ratios.max(axis=(0, 2)))}
    spread = max(constants.values()) / min(constants.values())
    _require(spread <= 4.0, f"constant drifts by factor {spread:.2f}")
    return CheckResult(
        f"perturbation constants {constants[deltas[0]]:.3f} vs {constants[deltas[-1]]:.3f}",
        {"constants": constants, "spread": spread},
    )


def check_scale_operator(op, n_samples=50, seed=5):
    """Spectral invariants of the scale operator `op` of the solver's penalty.

    Each sample draws a coefficient vector d, then levels r < t (redrawing
    both when t - r < 1e-3), then s in [r, t], and checks the interpolation
    inequality at (r, s, t) and that the index -1 norm is the L2 norm
    sqrt(d^T P d) of the antiderivative.
    """
    lam_min = float(op.eigenvalues[0])
    _require(lam_min >= 1.0 - 1e-10, f"lambda_min={lam_min!r}")
    rng = np.random.default_rng(seed)
    d = np.empty((n_samples, op.eigenvalues.size))
    levels = np.empty((3, n_samples))  # r, s, t per sample
    checked = 0
    while checked < n_samples:
        d[checked] = rng.normal(size=op.eigenvalues.size)
        r, t = np.sort(rng.uniform(-2.0, 3.0, 2))
        if t - r < 1e-3:
            continue
        levels[:, checked] = r, rng.uniform(r, t), t
        checked += 1
    r, s, t = levels
    rhs = op.x_norm(d, r) ** ((t - s) / (t - r)) * op.x_norm(d, t) ** ((s - r) / (t - r))
    margins = op.interpolation_margin(d, r, s, t) / rhs
    worst_margin = float(np.min(margins))
    l2 = np.sqrt(np.vecdot(d, _band_apply(op.mass_band, d)))
    worst_l2 = float(np.max(np.abs(op.scale_norm(d, -1.0) - l2) / l2))
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
    # each direction is one draw scaled to length 1e-4, tried with both signs
    steps = np.random.default_rng(direction_seed).normal(size=(n_directions, nodes.size))
    steps *= 1e-4 / np.linalg.norm(steps, axis=1, keepdims=True)
    perturbed = nodes + np.stack((steps, -steps), axis=1).reshape(-1, nodes.size)
    objective = tikhonov_objective(problem, np.vstack((nodes, perturbed)), 1e-6)
    decreased = np.any(objective[1:] < objective[0] - 1e-14)
    _require(not decreased, "objective decreased under perturbation")
    return CheckResult(f"optimality along {n_directions} random directions", {})


def check_residual_monotonicity():
    """Residual grows and the penalized norm shrinks as alpha increases."""
    data = add_noise(reference_exact_data(500), 1e-3, np.random.default_rng(8))
    alphas = np.logspace(-10, 2, 10)
    # one member per alpha: every solve is one banded Cholesky call
    results = solve_tikhonov(build_tikhonov_problem([data] * alphas.size, 200), alphas)
    for result in results:  # a failed member raises what it raises alone
        if isinstance(result, Exception):
            raise result
    splines = [result.spline for result in results]
    nodes = np.stack([spline.node_values for spline in splines])
    # ||A''||^2 = ||a'||^2, exact for the piecewise-linear a
    grad_norms = np.linalg.norm(np.diff(nodes), axis=-1) / np.sqrt(splines[0].spacing)
    pen_norms = np.hypot(grad_norms, antiderivative_l2_norm(splines))
    residuals = np.array([result.residual for result in results])
    _require(np.all(residuals[1:] >= residuals[:-1] - 1e-13), "residual decreased")
    _require(np.all(pen_norms[1:] <= pen_norms[:-1] + 1e-13), "penalized norm increased")
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
