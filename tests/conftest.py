import numpy as np
import pytest

import difflaw as dl

RATE_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5)


@pytest.fixture(scope="session")
def exact_data():
    return dl.reference_exact_data(500)


@pytest.fixture(scope="session")
def exact_spline():
    return dl.exact_parameter_spline(200)


@pytest.fixture(scope="session")
def quadratic_records():
    config = dl.StudyConfig(
        delta_list=RATE_DELTAS, alpha_rule="quadratic", trials=10, base_seed=0
    )
    return dl.run_study(config)


@pytest.fixture(scope="session")
def eight_fifths_records():
    config = dl.StudyConfig(
        delta_list=RATE_DELTAS, alpha_rule="eight_fifths", trials=10, base_seed=0
    )
    return dl.run_study(config)


@pytest.fixture(scope="session")
def discrepancy_records():
    config = dl.StudyConfig(
        delta_list=(1e-2, 1e-3), alpha_rule="discrepancy:1.5", trials=10, base_seed=0
    )
    return dl.run_study(config)


def median_of(records, delta, column):
    values = [getattr(r, column) for r in records if r.delta == delta]
    assert values, f"no records at delta={delta}"
    return float(np.median(values))


def dense_difference(op):
    """The (N-1, N) weighted second differences F whose band the scale operator stores."""
    band = op.difference_band
    rows = np.arange(len(band))
    factor = np.zeros((rows.size, rows.size + 1))
    factor[rows[1:], rows[1:] - 1] = band[1:, 0]
    factor[rows, rows] = band[:, 1]
    factor[rows, rows + 1] = band[:, 2]
    return factor
