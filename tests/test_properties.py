"""Property-based tests over grid sizes and state intervals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from difflaw import (
    ParameterSpline,
    StateInterval,
    antiderivative_l2_norm,
    antiderivative_penalty_matrix,
    antiderivative_weights,
)

intervals = st.builds(
    lambda lo, length: StateInterval(lo, lo + length),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 10.0),
)
seeds = st.integers(0, 2**32 - 1)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(interval=intervals, n=st.integers(1, 2000), seed=seeds)
def test_antiderivative_weights_match_spline(interval, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n + 1)
    u = np.concatenate(
        ([interval.u_min, interval.u_max], rng.uniform(interval.u_min, interval.u_max, 50))
    )
    rows = antiderivative_weights(interval, n, u)
    expected = ParameterSpline(interval, a).antiderivative(u)
    tol = 1e-12 * interval.length * np.max(np.abs(a))
    assert np.max(np.abs(rows @ a - expected)) <= tol


@settings(derandomize=True, deadline=None, max_examples=40)
@given(interval=intervals, n=st.integers(1, 300), seed=seeds)
def test_antiderivative_penalty_is_exact_psd_form(interval, n, seed):
    penalty = antiderivative_penalty_matrix(interval, n)
    assert np.array_equal(penalty, penalty.T)
    eigenvalues = np.linalg.eigvalsh(penalty)
    assert eigenvalues[0] >= -1e-12 * eigenvalues[-1]
    a = np.random.default_rng(seed).normal(size=n + 1)
    exact = antiderivative_l2_norm(ParameterSpline(interval, a)) ** 2
    assert abs(a @ penalty @ a - exact) <= 1e-10 * exact
