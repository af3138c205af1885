"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
without -s they are shown for failing criteria only.
"""

import time

import numpy as np

import difflaw as dl

from conftest import median_of

TABLE_ERR0 = {1e-2: 0.036672, 1e-3: 0.008765, 1e-4: 0.002147}


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_error_bands():
    start = time.perf_counter()
    config = dl.StudyConfig(
        delta_list=(1e-2, 1e-3, 1e-4), alpha_rule="quadratic", trials=10, base_seed=0
    )
    records = dl.run_study(config)
    elapsed = time.perf_counter() - start
    ratios = {
        delta: median_of(records, delta, "err0") / reference
        for delta, reference in TABLE_ERR0.items()
    }
    ok = all(1.0 / 3.0 <= r <= 3.0 for r in ratios.values()) and elapsed <= 60.0
    detail = (
        "median err0 / reference = "
        + ", ".join(f"{d:g}: {r:.2f}" for d, r in ratios.items())
        + f"; runtime {elapsed:.1f}s"
    )
    _report("criterion 1 (error bands, alpha=delta^2)", ok, detail)


def test_criterion_2_rate_slopes(quadratic_records, eight_fifths_records):
    slope_q = dl.fit_rate(quadratic_records, "err0")
    slope_e = dl.fit_rate(eight_fifths_records, "err0")
    slope_h1 = dl.fit_rate(quadratic_records, "err1")
    ok = (
        0.35 <= slope_q <= 0.65
        and 0.45 <= slope_e <= 0.75
        and -0.05 <= slope_h1 <= 0.35
    )
    detail = (
        f"err0 slope {slope_q:.3f} (target 0.5+-0.15), "
        f"{slope_e:.3f} under the 8/5 rule (target 0.6+-0.15), "
        f"err1 slope {slope_h1:.3f} (target [-0.05, 0.35])"
    )
    _report("criterion 2 (convergence-rate slopes)", ok, detail)


def test_criterion_3_residual_scaling(quadratic_records):
    ratios = {
        delta: median_of(quadratic_records, delta, "residual") / delta
        for delta in (1e-2, 1e-3, 1e-4)
    }
    ok = all(0.3 <= r <= 3.0 for r in ratios.values())
    detail = "median residual/delta = " + ", ".join(
        f"{d:g}: {r:.2f}" for d, r in ratios.items()
    )
    _report("criterion 3 (residual tracks noise level)", ok, detail)


def test_criterion_4_operator_mapping_band():
    rng = np.random.default_rng(2024)
    curve = dl.reference_curve()
    interval = dl.reference_interval()
    ratios = [
        dl.operator_norm_ratio(
            dl.ParameterSpline(interval, rng.normal(size=201)), curve, 500
        )
        for _ in range(100)
    ]
    lo, hi = min(ratios), max(ratios)
    ok = lo >= 0.98 and hi <= 1.214
    _report(
        "criterion 4 (operator norm equivalence)",
        ok,
        f"100 random splines, ratio in [{lo:.4f}, {hi:.4f}] (band [0.98, 1.214])",
    )


def test_criterion_5_perturbation_linearity(exact_data, penalty_matrices):
    _, anti = penalty_matrices
    interval = exact_data.interval
    grid = interval.uniform_grid(200)
    dx = interval.length / 200
    rng = np.random.default_rng(77)
    tests = [
        sum(
            c * np.cos(k * np.pi * (grid - interval.u_min) / interval.length)
            for k, c in enumerate(rng.normal(size=5))
        )
        for _ in range(20)
    ]

    def h2_norm(w):
        return np.sqrt(
            w @ anti @ w
            + np.sum(dx * (w[:-1] ** 2 + w[:-1] * w[1:] + w[1:] ** 2) / 3)
            + np.sum(np.diff(w) ** 2) / dx
        )

    t_exact = dl.assemble_t_matrix(interval, 200, exact_data)
    constants = {}
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        worst = 0.0
        for draw in range(3):
            noisy = dl.add_noise(
                exact_data, delta, np.random.default_rng([draw, int(1 / delta)])
            )
            diff = t_exact - dl.assemble_t_matrix(interval, 200, noisy)
            for w in tests:
                norm = np.sqrt(np.sum(exact_data.quad_weights * (diff @ w) ** 2))
                worst = max(worst, norm / (delta * h2_norm(w)))
        constants[delta] = worst
    spread = max(constants.values()) / min(constants.values())
    ok = spread <= 4.0
    detail = (
        "fitted C per delta = "
        + ", ".join(f"{d:g}: {c:.3f}" for d, c in constants.items())
        + f"; spread factor {spread:.2f} (limit 4)"
    )
    _report("criterion 5 (operator perturbation linear in delta)", ok, detail)


def test_criterion_6_hilbert_scale_suite():
    op = dl.build_scale_operator(dl.reference_interval(), 400)
    k = op.stiffness
    sym_defect = np.max(np.abs(k - k.T)) / np.max(np.abs(k))
    lam_min = op.eigenvalues[0]
    rng = np.random.default_rng(55)
    m_diag = np.diagonal(op.mass)
    worst_margin = np.inf
    worst_l2 = 0.0
    checks = 0
    while checks < 500:
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
        m_norm = np.sqrt(u[1:] @ (m_diag * u[1:]))
        worst_l2 = max(worst_l2, abs(op.scale_norm(u, -1.0) - m_norm) / m_norm)
        checks += 1
    ok = (
        sym_defect <= 1e-12
        and lam_min >= 1.0 - 1e-10
        and worst_margin >= -1e-10
        and worst_l2 <= 1e-12
    )
    detail = (
        f"symmetry defect {sym_defect:.1e}, lambda_min {lam_min!r}, "
        f"worst interpolation margin/RHS {worst_margin:.1e} over 500 checks, "
        f"worst |scale_norm(-1) - L2|/L2 {worst_l2:.1e}"
    )
    _report("criterion 6 (discrete Hilbert-scale spectral suite)", ok, detail)


def test_criterion_7_instability_contrast(
    exact_data, exact_spline, penalty_matrices, quadratic_records
):
    curve = dl.reference_curve()
    grad, anti = penalty_matrices
    # paired noise draws: same seeds the study used at delta = 1e-2
    naive_errs = []
    for trial in range(10):
        rng = np.random.default_rng(dl.derive_seed(0, 1e-2, trial))
        data = dl.add_noise(exact_data, 1e-2, rng)
        naive = dl.naive_reconstruction(data, curve, 200)
        naive_errs.append((naive - exact_spline).l2_norm())
    naive_median = float(np.median(naive_errs))
    tikh_median = median_of(quadratic_records, 1e-2, "err0")
    contrast = naive_median / tikh_median

    clean_naive = (
        dl.naive_reconstruction(exact_data, curve, 200) - exact_spline
    ).l2_norm()
    clean_tikh = (
        dl.solve_tikhonov(
            dl.build_tikhonov_problem(exact_data, 200, penalty=grad + anti), 1e-12
        ).spline
        - exact_spline
    ).l2_norm()
    ok = contrast >= 10.0 and clean_naive <= 5e-3 and clean_tikh <= 5e-3
    detail = (
        f"noisy contrast {contrast:.0f}x (naive {naive_median:.3f} vs tikhonov "
        f"{tikh_median:.4f}); noise-free err0: naive {clean_naive:.1e}, "
        f"tikhonov {clean_tikh:.1e} (both <= 5e-3)"
    )
    _report("criterion 7 (regularization vs naive differentiation)", ok, detail)


def test_criterion_8_discrepancy_principle(discrepancy_records, quadratic_records):
    tau = 1.5
    bracket_ok = all(
        tau * r.delta <= r.residual <= 1.5 * tau * r.delta
        for r in discrepancy_records
    )
    ratios = {}
    for delta in (1e-2, 1e-3):
        ratios[delta] = median_of(discrepancy_records, delta, "err0") / median_of(
            quadratic_records, delta, "err0"
        )
    errors_ok = all(1.0 / 3.0 <= r <= 3.0 for r in ratios.values())
    ok = bracket_ok and errors_ok
    detail = (
        f"all residuals in [tau d, 1.5 tau d]: {bracket_ok}; "
        "err0 vs a-priori = "
        + ", ".join(f"{d:g}: {r:.2f}x" for d, r in ratios.items())
    )
    _report("criterion 8 (discrepancy principle)", ok, detail)


def test_figure_data_emission(tmp_path, quadratic_records):
    # log-log plot data with the theoretical reference slopes; the
    # inverse-crime level is excluded from fits by default
    series, refs = dl.emit_plot_data(
        quadratic_records, tmp_path / "figure", {"err0": 0.5, "err1": 0.0, "residual": 1.0}
    )
    extended = list(quadratic_records) + [
        dl.ConvergenceRecord(1e-6, 1e-12, 0, 0, 1.0, 1.0, 1.0)
    ]
    unaffected = dl.fit_rate(extended, "err0") == dl.fit_rate(quadratic_records, "err0")
    ok = series.exists() and refs.exists() and unaffected
    _report(
        "figure data (log-log series with reference slopes)",
        ok,
        f"wrote {series.name}, {refs.name}; inverse-crime level excluded: {unaffected}",
    )
