"""Trace data generation and the linear forward operator.

The forward operator maps the nodal values of the coefficient spline to the
values of its antiderivative at the measured states h(s_i) along the
measurement curve.  It is applied as `spline.antiderivative(data.h_values)`,
which evaluates the B-spline rows of A that the Tikhonov solver assembles,
so it is exactly linear in the nodes.  The noisy-data variant simply uses
the perturbed states, so operator and right-hand side are perturbed
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError
from .splines import (
    ParameterSpline,
    StateInterval,
    _antiderivative,
    _antiderivative_l2_norms,
    _node_stack,
)

__all__ = [
    "CurveParametrization",
    "TraceData",
    "make_exact_data",
    "add_noise",
    "quadrature_norm",
    "residual_norm",
    "operator_norm_ratio",
]


@dataclass(frozen=True)
class CurveParametrization:
    """Measurement curve with the trace h(s) of the boundary state.

    h must be strictly monotone with h' bounded away from zero on
    [s_lo, s_hi], and must map the parameter range into `interval`.
    These are contracts on the callables; they are not checked globally,
    only at the points actually sampled.
    """

    s_lo: float
    s_hi: float
    h: Callable[[np.ndarray], np.ndarray]
    h_prime: Callable[[np.ndarray], np.ndarray]
    interval: StateInterval

    def __post_init__(self):
        if not self.s_lo < self.s_hi:
            raise ValueError(f"need s_lo < s_hi, got [{self.s_lo}, {self.s_hi}]")


@dataclass(frozen=True, eq=False)
class TraceData:
    """Sampled (possibly noise-perturbed) trace data at quadrature nodes.

    h_values are always inside the state interval (perturbed values are
    clamped on construction by `add_noise`); quadrature weights sum to the
    parameter-range length.
    """

    s_nodes: np.ndarray
    quad_weights: np.ndarray
    h_values: np.ndarray
    y_values: np.ndarray
    delta: float
    interval: StateInterval

    def __post_init__(self):
        self._check(("s_nodes", "quad_weights", "h_values", "y_values"))

    def _check(self, fresh: tuple) -> None:
        """Store read-only float copies of the `fresh` arrays and check the data.

        The arrays not named in `fresh` were checked when they were stored.
        """
        for name in fresh:
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        m = self.s_nodes.size
        if any(getattr(self, name).size != m for name in fresh):
            raise ValueError("all data arrays must have equal length")
        # non-finite h_values fall outside the interval and raise DomainError below
        for name in ("s_nodes", "quad_weights", "y_values"):
            if name in fresh and not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if "quad_weights" in fresh and np.any(self.quad_weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if not 0 <= self.delta < np.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if "h_values" in fresh and np.any(~self.interval.contains(self.h_values)):
            i = int(np.argmax(~self.interval.contains(self.h_values)))
            raise DomainError(
                f"h_values[{i}]={self.h_values[i]!r} outside the state interval; "
                "perturbed data must be clamped"
            )

    def _with_values(self, h_values, y_values, delta: float) -> TraceData:
        """Like `dataclasses.replace` of h, y and delta, sharing s_nodes and quad_weights.

        Only the new values are copied and checked; the shared arrays were
        checked when this data was built.
        """
        data = object.__new__(type(self))
        data.__dict__.update(self.__dict__, h_values=h_values, y_values=y_values, delta=delta)
        data._check(("h_values", "y_values"))
        return data

    @property
    def m(self) -> int:
        return self.s_nodes.size


def _midpoint_rule(curve: CurveParametrization, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and equal weights (s_hi - s_lo) / m of the m-point composite midpoint rule."""
    if m < 2:
        raise ValueError(f"need m >= 2 quadrature nodes, got {m}")
    ds = (curve.s_hi - curve.s_lo) / m
    return curve.s_lo + (np.arange(m) + 0.5) * ds, np.full(m, ds)


def make_exact_data(
    curve: CurveParametrization,
    antiderivative_exact: Callable[[np.ndarray], np.ndarray],
    m: int,
) -> TraceData:
    """Noise-free data y(s_i) = A(h(s_i)) at m composite-midpoint nodes.

    Midpoint nodes avoid endpoint evaluations and carry equal weights
    (s_hi - s_lo) / m.
    """
    s, weights = _midpoint_rule(curve, m)
    h = np.asarray(curve.h(s), dtype=float)
    y = np.asarray(antiderivative_exact(h), dtype=float)
    return TraceData(
        s_nodes=s,
        quad_weights=weights,
        h_values=h,
        y_values=y,
        delta=0.0,
        interval=curve.interval,
    )


def add_noise(data: TraceData, delta: float, rng: np.random.Generator) -> TraceData:
    """Perturb h and y with independent uniform noise on [-delta, delta].

    The perturbed states are clamped back into the state interval (data
    truncation), the observations are not.  The h draw precedes the y draw,
    so results are reproducible for a given generator state.  delta must be
    >= 0, and the width 2 delta of the noise range finite.
    """
    if not (0 <= delta and 2 * delta < np.inf):
        raise ValueError(f"delta must be finite and >= 0 with 2*delta finite, got {delta!r}")
    xi = rng.uniform(-delta, delta, data.m)
    eta = rng.uniform(-delta, delta, data.m)
    h_noisy = np.clip(data.h_values + xi, data.interval.u_min, data.interval.u_max)
    return data._with_values(h_noisy, data.y_values + eta, float(delta))


def quadrature_norm(values: np.ndarray, weights: np.ndarray):
    """Discrete L2 norm sqrt(sum_i w_i v_i^2) over the curve parameter.

    The sum runs over the last axis: a float for one vector of values, an
    array of norms for a stack of them.
    """
    norm = np.sqrt(np.sum(weights * np.asarray(values) ** 2, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def residual_norm(spline: ParameterSpline, data: TraceData) -> float:
    """Quadrature-weighted L2 norm of T(spline) - y over the parameter range."""
    misfit = spline.antiderivative(data.h_values) - data.y_values
    return quadrature_norm(misfit, data.quad_weights)


def operator_norm_ratio(spline, curve: CurveParametrization, m: int):
    """Ratio ||T A|| / ||A||_{L2(I)} with exact data at m midpoint nodes.

    The numerator uses the m-point quadrature norm on the curve, the
    denominator the exact (per-element Gauss) L2 norm of the piecewise
    quadratic antiderivative.  `spline` is one ParameterSpline, giving a
    float, or a sequence of them on one grid, giving an array of ratios in
    sequence order; h is evaluated once for all of them.
    """
    interval, a = _node_stack(spline)
    a_norm = _antiderivative_l2_norms(interval, a)
    if np.any(a_norm == 0.0):
        raise ValueError("operator norm ratio undefined for the zero spline")
    s, weights = _midpoint_rule(curve, m)
    values = _antiderivative(interval, a, np.asarray(curve.h(s), dtype=float))
    ratio = quadrature_norm(values, weights) / a_norm
    return float(ratio[0]) if isinstance(spline, ParameterSpline) else ratio
