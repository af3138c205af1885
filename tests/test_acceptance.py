"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
without -s they are shown for failing criteria only.
"""

import time

import numpy as np

import difflaw as dl
from difflaw import checks

from conftest import dense_penalty_rows, median_of

TABLE_ERR0 = {1e-2: 0.036672, 1e-3: 0.008765, 1e-4: 0.002147}


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _measure(criterion, check, **sizes):
    """Values measured by `check` at the criterion's sizes; FAIL line if it fails."""
    try:
        return check(**sizes).values
    except AssertionError as exc:
        _report(criterion, False, str(exc))


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
    criterion = "criterion 4 (operator norm equivalence)"
    band = _measure(criterion, checks.check_mapping_band, n_splines=100, seed=2024)
    _report(
        criterion,
        True,
        f"100 random splines, ratio in [{band['lo']:.4f}, {band['hi']:.4f}] "
        f"(band [{band['band'][0]:.3f}, {band['band'][1]:.3f}])",
    )


def test_criterion_5_perturbation_linearity():
    criterion = "criterion 5 (operator perturbation linear in delta)"
    perturbation = _measure(
        criterion,
        checks.check_perturbation_stability,
        n_functions=20,
        deltas=(1e-2, 1e-3, 1e-4, 1e-5),
        seed=77,
    )
    detail = (
        "fitted C per delta = "
        + ", ".join(f"{d:g}: {c:.3f}" for d, c in perturbation["constants"].items())
        + f"; spread factor {perturbation['spread']:.2f} (limit 4)"
    )
    _report(criterion, True, detail)


def test_criterion_6_hilbert_scale_suite():
    criterion = "criterion 6 (discrete Hilbert-scale spectral suite)"
    op = dl.build_scale_operator(dl.reference_interval(), 400)
    suite = _measure(criterion, checks.check_scale_operator, op=op, n_samples=500, seed=55)
    # K + P assembled densely from the solver's rows, whose band the operator factors
    f, q = dense_penalty_rows(op.interval, op.n_elements)
    penalty = f.T @ f + q.T @ q
    sym_defect = np.max(np.abs(penalty - penalty.T)) / np.max(np.abs(penalty))
    detail = (
        f"symmetry defect {sym_defect:.1e}, lambda_min {suite['lam_min']!r}, "
        f"worst interpolation margin/RHS {suite['worst_margin']:.1e} over 500 checks, "
        f"worst |scale_norm(-1) - L2|/L2 {suite['worst_l2']:.1e}"
    )
    _report(criterion, sym_defect <= 1e-12, detail)


def test_criterion_7_instability_contrast():
    criterion = "criterion 7 (regularization vs naive differentiation)"
    # paired noise draws: same seeds the study used at delta = 1e-2
    seeds = [dl.derive_seed(0, 1e-2, trial) for trial in range(10)]
    contrast = _measure(criterion, checks.check_naive_contrast, seeds=seeds)
    clean = _measure(criterion, checks.check_noiseless_recovery)
    detail = (
        f"noisy contrast {contrast['contrast']:.0f}x (naive {contrast['naive']:.3f} vs "
        f"tikhonov {contrast['tikhonov']:.4f}); noise-free err0: naive "
        f"{contrast['clean_naive']:.1e} (<= 5e-3), tikhonov {clean['err0']:.1e} (<= 1e-3)"
    )
    _report(criterion, True, detail)


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
