"""Property-based tests over grid sizes and state intervals."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from difflaw import (
    ParameterSpline,
    StateInterval,
    antiderivative_l2_norm,
    build_tikhonov_problem,
    reference_exact_data,
    tikhonov_objective,
)

intervals = st.builds(
    lambda lo, length: StateInterval(lo, lo + length),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 10.0),
)
seeds = st.integers(0, 2**32 - 1)
TEMPLATE = reference_exact_data(52)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(interval=intervals, n=st.integers(1, 2000), seed=seeds)
def test_objective_matches_spline_forms(interval, n, seed):
    # the banded system's objective against the nodal-basis forms: the
    # misfit through ParameterSpline.antiderivative, the penalty
    # ||a'||^2 + ||A||^2 from the spline's exact norms
    rng = np.random.default_rng(seed)
    h = np.concatenate(
        ([interval.u_min, interval.u_max], rng.uniform(interval.u_min, interval.u_max, 50))
    )
    data = replace(
        TEMPLATE,
        interval=interval,
        h_values=h,
        y_values=rng.normal(size=h.size),
        quad_weights=rng.uniform(0.1, 2.0, h.size),
    )
    a = rng.normal(size=n + 1)
    alpha = 10.0 ** rng.uniform(-8, 2)
    spline = ParameterSpline(interval, a)
    misfit = spline.antiderivative(h) - data.y_values
    penalty = np.sum(np.diff(a) ** 2) / spline.spacing + antiderivative_l2_norm(spline) ** 2
    expected = np.sum(data.quad_weights * misfit**2) + alpha * penalty
    problem = build_tikhonov_problem(data, n)
    assert abs(tikhonov_objective(problem, a, alpha) - expected) <= 1e-10 * expected
