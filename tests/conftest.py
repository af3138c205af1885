import numpy as np
import pytest

import difflaw as dl
from difflaw.tikhonov import _penalty_rows

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


def dense_penalty_rows(interval, n):
    """Dense weighted rows F and Q of the solver's penalty: K = F^T F, P = Q^T Q."""
    factors = []
    for (first, weights), row_weights in _penalty_rows(interval, n):
        rows = np.zeros((first.size, n + 3))
        for p in range(3):
            rows[np.arange(first.size), first + p] += weights[p]
        factors.append(np.sqrt(row_weights)[:, None] * rows[:, : n + 1])
    return tuple(factors)
