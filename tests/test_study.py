import pytest

from difflaw import (
    ConvergenceRecord,
    StudyConfig,
    derive_seed,
    emit_csv,
    emit_plot_data,
    fit_rate,
    read_records_csv,
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
    with pytest.raises(ValueError):
        StudyConfig(alpha_rule="discrepancy:0.5")
    StudyConfig(alpha_rule="eight-fifths:0.05")  # hyphens accepted


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


def test_penalty_assembled_once_per_study():
    # a count, not a timing: K + P depends on the grid alone, so the 40
    # cells of the benchmark's study-apriori job assemble it once
    tikhonov._penalty_band.cache_clear()
    config = StudyConfig(delta_list=(1e-2, 1e-3, 1e-4, 1e-5), trials=10, base_seed=0)
    assert len(run_study(config)) == 40
    info = tikhonov._penalty_band.cache_info()
    assert (info.misses, info.hits) == (1, 39)


def test_discrepancy_factorizations_per_cell(monkeypatch):
    # a count, not a timing: factorizations per cell of the discrepancy
    # search on the 40 cells of the benchmark's study-discrepancy job
    factor, search = tikhonov._factor, study.alpha_discrepancy
    calls, per_cell = [0], []

    def counting_factor(problem, alpha):
        calls[0] += 1
        return factor(problem, alpha)

    def counting_search(problem, delta, tau):
        before = calls[0]
        result = search(problem, delta, tau=tau)
        per_cell.append(calls[0] - before)
        return result

    monkeypatch.setattr(tikhonov, "_factor", counting_factor)
    monkeypatch.setattr(study, "alpha_discrepancy", counting_search)
    config = StudyConfig(
        delta_list=(1e-2, 1e-3, 1e-4, 1e-5),
        alpha_rule="discrepancy:1.5",
        trials=10,
        base_seed=0,
    )
    records = run_study(config)
    assert len(records) == len(per_cell) == 40
    assert sum(per_cell) / len(per_cell) <= 6.5
    assert max(per_cell) <= 8
    for r in records:
        target = 1.5 * r.delta
        assert target <= r.residual <= target * (1 + tikhonov.DISCREPANCY_TOL)
