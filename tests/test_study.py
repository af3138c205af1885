import logging
import warnings
from collections import Counter

import numpy as np
import pytest

from difflaw import (
    ConvergenceRecord,
    NoiseLevelTooSmallError,
    StudyConfig,
    add_noise,
    alpha_a_priori,
    alpha_discrepancy,
    build_tikhonov_problem,
    derive_seed,
    emit_csv,
    emit_plot_data,
    fit_rate,
    exact_parameter_spline,
    read_records_csv,
    reference_exact_data,
    run_study,
)
from difflaw import study, tikhonov

from conftest import median_of


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(delta_list=(1e-3, 1e-2))  # not decreasing
    with pytest.raises(ValueError):
        StudyConfig(delta_list=(1e-2, -1e-3))
    for bad in [(float("nan"),), (float("inf"), 1e-2)]:
        with pytest.raises(ValueError, match="finite"):
            StudyConfig(delta_list=bad)
    with pytest.raises(ValueError):
        StudyConfig(trials=0)
    with pytest.raises(ValueError):
        StudyConfig(alpha_rule="cubic")
    for rule in ["discrepancy:0.5", "discrepancy:1", "discrepancy:nan", "discrepancy:inf",
                 "eight-fifths:-1", "eight-fifths:0", "eight-fifths:nan", "eight-fifths:inf"]:
        with pytest.raises(ValueError, match="alpha rule"):
            StudyConfig(alpha_rule=rule)
    StudyConfig(alpha_rule="eight-fifths:0.05")  # hyphens accepted
    for name, bad in [
        ("trials", 2.5),
        ("trials", "3"),
        ("n_spline", 2.5),
        ("n_spline", 0),
        ("m_quad", 2.5),
        ("m_quad", 1),
    ]:
        with pytest.raises(ValueError, match=name):
            StudyConfig(**{name: bad})
    sizes = StudyConfig(trials=np.int64(2), n_spline=np.int64(10), m_quad=np.int64(20))
    assert sizes.trials == 2


def test_config_parses_alpha_rule_once():
    assert StudyConfig().rule == ("quadratic", 0.0)
    assert StudyConfig(alpha_rule="eight-fifths").rule == ("eight_fifths", 0.1)
    assert StudyConfig(alpha_rule="discrepancy:2").rule == ("discrepancy", 2.0)
    with pytest.raises(TypeError):
        StudyConfig(rule=("quadratic", 0.0))


def test_seed_derivation_is_stable():
    seed = derive_seed(0, 1e-2, 0)
    assert seed == derive_seed(0, 1e-2, 0)
    assert seed != derive_seed(0, 1e-2, 1)
    assert seed != derive_seed(0, 1e-3, 0)
    assert derive_seed(7, 1e-2, 0) == 7 ^ seed


def test_run_study_is_deterministic():
    config = StudyConfig(delta_list=(1e-2,), trials=3, base_seed=11)
    first = run_study(config)
    second = run_study(config)
    assert first == second  # dataclass equality, field by field


def test_records_sorted_and_reproducible(quadratic_records):
    deltas = [r.delta for r in quadratic_records]
    assert deltas == sorted(deltas, reverse=True)
    assert len(quadratic_records) == 4 * 10
    for r in quadratic_records:
        assert r.alpha == pytest.approx(r.delta**2, rel=1e-12)
        assert r.seed == derive_seed(0, r.delta, r.trial)
        assert r.err0 >= 0 and r.err1 >= r.err0 and r.residual >= 0


def test_median_err0_decreases(quadratic_records):
    medians = [median_of(quadratic_records, d, "err0") for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(a > b for a, b in zip(medians, medians[1:]))


def test_residual_tracks_delta(quadratic_records):
    for delta in (1e-2, 1e-3, 1e-4):
        ratio = median_of(quadratic_records, delta, "residual") / delta
        assert 0.3 <= ratio <= 3.0


def test_fit_rate_exact_power_law():
    records = [
        ConvergenceRecord(d, d**2, t, 0, err0=d, err1=d**0.5, residual=d)
        for d in (1e-2, 1e-3, 1e-4, 1e-5)
        for t in range(3)
    ]
    assert fit_rate(records, "err0") == pytest.approx(1.0, abs=1e-12)
    assert fit_rate(records, "err1") == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_excludes_inverse_crime_levels():
    records = [
        ConvergenceRecord(d, d**2, 0, 0, err0=d, err1=d, residual=d)
        for d in (1e-2, 1e-3, 1e-4, 1e-5)
    ]
    # a wildly off value at the floor level changes nothing by default
    records.append(ConvergenceRecord(1e-6, 1e-12, 0, 0, err0=1.0, err1=1.0, residual=1.0))
    assert fit_rate(records, "err0") == pytest.approx(1.0, abs=1e-12)
    assert fit_rate(records, "err0", include_inverse_crime=True) != pytest.approx(
        1.0, abs=1e-3
    )


def test_fit_rate_needs_three_levels():
    records = [
        ConvergenceRecord(d, d**2, 0, 0, err0=d, err1=d, residual=d)
        for d in (1e-2, 1e-3)
    ]
    with pytest.raises(ValueError):
        fit_rate(records, "err0")
    with pytest.raises(ValueError):
        fit_rate(records, "nope")


def test_csv_round_trip(tmp_path, quadratic_records):
    path = tmp_path / "records.csv"
    emit_csv(quadratic_records, path)
    parsed = read_records_csv(path)
    assert parsed == quadratic_records


def test_csv_single_record(tmp_path):
    record = ConvergenceRecord(1e-2, 1e-4, 0, 42, 0.1, 0.5, 0.01)
    path = tmp_path / "one.csv"
    emit_csv([record], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "delta,alpha,trial,seed,err0,err1,residual"


def test_csv_bytes_deterministic(tmp_path):
    config = StudyConfig(delta_list=(1e-2, 1e-3), trials=2, base_seed=5)
    emit_csv(run_study(config), tmp_path / "a.csv")
    emit_csv(run_study(config), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "empty.csv")


def test_plot_data_files(tmp_path, quadratic_records):
    series_path, refs_path = emit_plot_data(quadratic_records, tmp_path / "study")
    series = series_path.read_text().splitlines()
    refs = refs_path.read_text().splitlines()
    assert series[0] == "series,delta,median,min,max"
    assert refs[0] == "series,rate,delta,value"
    # three series, one row per delta each
    assert len(series) == 1 + 3 * 4
    # the rate-1/2 reference line passes through the median at delta = 1e-2
    err0_median = median_of(quadratic_records, 1e-2, "err0")
    anchor_rows = [
        row for row in refs[1:] if row.startswith("err0,0.5,0.01,")
    ]
    assert len(anchor_rows) == 1
    assert float(anchor_rows[0].split(",")[3]) == pytest.approx(err0_median, rel=1e-15)
    # min <= median <= max on every series row
    for row in series[1:]:
        _, _, med, lo, hi = row.split(",")
        assert float(lo) <= float(med) <= float(hi)


def test_study_continues_past_failing_cells():
    # discrepancy cannot reach far below the discretization floor; those
    # cells are skipped with a warning and the rest of the study survives
    config = StudyConfig(
        delta_list=(1e-3, 1e-12), alpha_rule="discrepancy", trials=1, base_seed=0
    )
    with pytest.warns(UserWarning, match="failed"):
        records = run_study(config)
    assert [r.delta for r in records] == [1e-3]


# at 2.4e-9, next to the discretization floor, trials 2 and 4 of six raise
# NoiseLevelTooSmallError at seed 0 and the other four land
PARTLY_FAILING = StudyConfig(
    delta_list=(1e-3, 2.4e-9), alpha_rule="discrepancy", trials=6, base_seed=0
)


def test_partly_failing_level_matches_cell_by_cell():
    # the level's stack fails, so its trials are solved again one by one:
    # the records and warnings are those of solving every cell alone, from
    # the start the level before gives: its median alpha, scaled by the
    # delta^(8/5) rule
    config = PARTLY_FAILING
    exact_data = reference_exact_data(config.m_quad)
    exact_spline = exact_parameter_spline(config.n_spline)
    expected_records, expected_warnings = [], []
    previous = None
    for delta in config.delta_list:
        level = [r.alpha for r in expected_records if r.delta == previous]
        start = None
        if level:
            start = float(np.median(level)) * (
                alpha_a_priori(delta, "eight_fifths") / alpha_a_priori(previous, "eight_fifths")
            )
        previous = delta
        for trial in range(config.trials):
            seed = derive_seed(config.base_seed, delta, trial)
            data = add_noise(exact_data, delta, np.random.default_rng(seed))
            problem = build_tikhonov_problem(data, config.n_spline)
            try:
                result = alpha_discrepancy(problem, delta, tau=1.5, alpha_start=start)
            except NoiseLevelTooSmallError as exc:
                expected_warnings.append(
                    f"study cell (delta={delta:g}, trial={trial}) failed: {exc}"
                )
                continue
            diff = result.spline - exact_spline
            expected_records.append(
                ConvergenceRecord(
                    delta, result.alpha, trial, seed, diff.l2_norm(), diff.h1_norm(),
                    result.residual,
                )
            )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = run_study(config)
    assert records == expected_records
    assert [str(w.message) for w in caught] == expected_warnings
    assert {w.filename for w in caught} == {__file__}  # the caller of run_study
    assert [r.trial for r in records if r.delta == 2.4e-9] == [0, 1, 3, 5]


def test_level_after_one_without_records_starts_cold():
    # every cell at delta = 10 exceeds the data scale and fails, so the
    # level after it searches from the default start, as a first level does
    config = StudyConfig(delta_list=(10.0, 1e-3), alpha_rule="discrepancy", trials=2)
    with pytest.warns(UserWarning, match="exceeds the data scale"):
        records = run_study(config)
    alone = run_study(StudyConfig(delta_list=(1e-3,), alpha_rule="discrepancy", trials=2))
    assert records == alone


def test_warm_start_moves_alpha_within_the_window():
    # the second level's start comes from the first; each of its records
    # still lands in the window, next to where a cold start lands
    warm = run_study(StudyConfig(delta_list=(1e-2, 1e-3), alpha_rule="discrepancy", trials=4))
    cold = run_study(StudyConfig(delta_list=(1e-3,), alpha_rule="discrepancy", trials=4))
    for w, c in zip([r for r in warm if r.delta == 1e-3], cold):
        assert (w.trial, w.seed) == (c.trial, c.seed)
        assert 1.5e-3 <= w.residual <= 1.5e-3 * (1 + tikhonov.DISCREPANCY_TOL)
        assert w.alpha == pytest.approx(c.alpha, rel=1e-3)
        assert w.err0 == pytest.approx(c.err0, rel=2.5e-4)


def test_verbose_log_lines(caplog):
    # DIFFLAW_VERBOSE logs one line per cell with a record, in (delta, trial)
    # order; the failing trials log nothing
    caplog.set_level(logging.INFO, logger="difflaw.study")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_study(PARTLY_FAILING)
    lines = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    assert lines == [
        (
            "difflaw.study",
            logging.INFO,
            f"cell delta={r.delta:g} trial={r.trial}: err0={r.err0:.4g}",
        )
        for r in records
    ]
    assert [line[2].split(":")[0] for line in lines] == [
        *(f"cell delta=0.001 trial={t}" for t in range(6)),
        *(f"cell delta=2.4e-09 trial={t}" for t in (0, 1, 3, 5)),
    ]


def test_penalty_assembled_once_per_study():
    # a count, not a timing: K + P depends on the grid alone, so the 40
    # cells of the benchmark's study-apriori job assemble it once; each of
    # the four noise levels builds one stack, and the other three hit the memo
    tikhonov._penalty_band.cache_clear()
    config = StudyConfig(delta_list=(1e-2, 1e-3, 1e-4, 1e-5), trials=10, base_seed=0)
    assert len(run_study(config)) == 40
    info = tikhonov._penalty_band.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_discrepancy_factorizations_per_cell(monkeypatch):
    # a count, not a timing: factorizations per cell of the discrepancy
    # search on the 40 cells of the benchmark's study-discrepancy job.  A
    # level's cells are factored side by side, so each call counts once for
    # every member (cell) it factors.  At seed 0 the first level takes 7
    # per cell and the warm-started levels 3.9, 3.6 and 3.5
    factor, search = tikhonov._factor, study.alpha_discrepancy
    calls, per_cell = Counter(), []

    def counting_factor(problem, alphas, members):
        calls.update(int(i) for i in members)
        return factor(problem, alphas, members)

    def counting_search(problem, delta, tau, alpha_start=None):
        calls.clear()
        results = search(problem, delta, tau=tau, alpha_start=alpha_start)
        per_cell.append([calls[i] for i in range(len(results))])
        return results

    monkeypatch.setattr(tikhonov, "_factor", counting_factor)
    monkeypatch.setattr(study, "alpha_discrepancy", counting_search)
    config = StudyConfig(
        delta_list=(1e-2, 1e-3, 1e-4, 1e-5),
        alpha_rule="discrepancy:1.5",
        trials=10,
        base_seed=0,
    )
    records = run_study(config)
    cells = [count for level in per_cell for count in level]
    assert len(records) == len(cells) == 40
    assert sum(cells) / len(cells) <= 4.75
    assert max(cells) <= 7
    # levels 2-4 start from the level before, scaled by the delta^(8/5) rule
    for level in per_cell[1:]:
        assert sum(level) / len(level) <= 4.0
    for r in records:
        target = 1.5 * r.delta
        assert target <= r.residual <= target * (1 + tikhonov.DISCREPANCY_TOL)
