"""Trace data generation and the linear forward operator.

The forward operator maps the nodal values of the coefficient spline to the
values of its antiderivative at the measured states h(s_i) along the
measurement curve.  It is applied through the spline's closed-form
antiderivative (`apply_t`), which is exactly linear in the nodes; the
Tikhonov solver assembles the same map as banded rows.  The noisy-data
variant simply uses the perturbed states, so operator and right-hand side
are perturbed together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .exceptions import DomainError
from .splines import ParameterSpline, StateInterval, antiderivative_l2_norm

__all__ = [
    "CurveParametrization",
    "TraceData",
    "make_exact_data",
    "add_noise",
    "apply_t",
    "quadrature_norm",
    "residual_norm",
    "mapping_weight",
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
        for name in ("s_nodes", "quad_weights", "h_values", "y_values"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        m = self.s_nodes.size
        if any(
            getattr(self, name).size != m
            for name in ("quad_weights", "h_values", "y_values")
        ):
            raise ValueError("all data arrays must have equal length")
        # non-finite h_values fall outside the interval and raise DomainError below
        for name in ("s_nodes", "quad_weights", "y_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.quad_weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if not 0 <= self.delta < np.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if np.any(~self.interval.contains(self.h_values)):
            i = int(np.argmax(~self.interval.contains(self.h_values)))
            raise DomainError(
                f"h_values[{i}]={self.h_values[i]!r} outside the state interval; "
                "perturbed data must be clamped"
            )

    @property
    def m(self) -> int:
        return self.s_nodes.size


def make_exact_data(
    curve: CurveParametrization,
    antiderivative_exact: Callable[[np.ndarray], np.ndarray],
    m: int,
) -> TraceData:
    """Noise-free data y(s_i) = A(h(s_i)) at m composite-midpoint nodes.

    Midpoint nodes avoid endpoint evaluations and carry equal weights
    (s_hi - s_lo) / m.
    """
    if m < 2:
        raise ValueError(f"need m >= 2 quadrature nodes, got {m}")
    ds = (curve.s_hi - curve.s_lo) / m
    s = curve.s_lo + (np.arange(m) + 0.5) * ds
    h = np.asarray(curve.h(s), dtype=float)
    y = np.asarray(antiderivative_exact(h), dtype=float)
    return TraceData(
        s_nodes=s,
        quad_weights=np.full(m, ds),
        h_values=h,
        y_values=y,
        delta=0.0,
        interval=curve.interval,
    )


def add_noise(data: TraceData, delta: float, rng: np.random.Generator) -> TraceData:
    """Perturb h and y with independent uniform noise on [-delta, delta].

    The perturbed states are clamped back into the state interval (data
    truncation), the observations are not.  The h draw precedes the y draw,
    so results are reproducible for a given generator state.
    """
    if not 0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    xi = rng.uniform(-delta, delta, data.m)
    eta = rng.uniform(-delta, delta, data.m)
    h_noisy = np.clip(data.h_values + xi, data.interval.u_min, data.interval.u_max)
    return replace(
        data, h_values=h_noisy, y_values=data.y_values + eta, delta=float(delta)
    )


def apply_t(spline: ParameterSpline, data: TraceData) -> np.ndarray:
    """Forward-map values A(h_i) for the given spline."""
    return spline.antiderivative(data.h_values)


def quadrature_norm(values: np.ndarray, weights: np.ndarray) -> float:
    """Discrete L2 norm sqrt(sum_i w_i v_i^2) over the curve parameter."""
    return float(np.sqrt(np.sum(weights * np.asarray(values) ** 2)))


def residual_norm(spline: ParameterSpline, data: TraceData) -> float:
    """Quadrature-weighted L2 norm of T(spline) - y over the parameter range."""
    return quadrature_norm(apply_t(spline, data) - data.y_values, data.quad_weights)


def mapping_weight(curve: CurveParametrization, u: float) -> float:
    """Change-of-variables weight w(u) = 1 / |h'(h^{-1}(u))|.

    Requires h strictly monotone on [s_lo, s_hi].  u may lie anywhere in
    the closed state range attained by h; outside it the inverse is
    undefined and a DomainError is raised.
    """
    f_lo = float(curve.h(curve.s_lo)) - u
    f_hi = float(curve.h(curve.s_hi)) - u
    if f_lo == 0.0:
        s_star = curve.s_lo
    elif f_hi == 0.0:
        s_star = curve.s_hi
    elif f_lo * f_hi > 0:
        # tolerate sub-ulp overshoot at the ends of the attained range
        tol = 1e-12 * curve.interval.length
        if min(abs(f_lo), abs(f_hi)) <= tol:
            s_star = curve.s_lo if abs(f_lo) < abs(f_hi) else curve.s_hi
        else:
            raise DomainError(
                f"u={u!r} is not attained by h on [{curve.s_lo}, {curve.s_hi}]"
            )
    else:
        # bisection down to adjacent floats; h is monotone, so the sign of
        # h(s) - u tells on which side of the root s lies
        lo, hi = curve.s_lo, curve.s_hi
        s_star = 0.5 * (lo + hi)
        while lo < s_star < hi:
            if (float(curve.h(s_star)) > u) == (f_lo > 0):
                lo = s_star
            else:
                hi = s_star
            s_star = 0.5 * (lo + hi)
    slope = abs(float(curve.h_prime(s_star)))
    if slope < 1e-14:
        raise DomainError(f"h'(h^-1(u)) vanishes at u={u!r}; weight undefined")
    return 1.0 / slope


def operator_norm_ratio(
    spline: ParameterSpline, curve: CurveParametrization, m: int
) -> float:
    """Ratio ||T A|| / ||A||_{L2(I)} with exact data at m midpoint nodes.

    The numerator uses the m-point quadrature norm on the curve, the
    denominator the exact (per-element Gauss) L2 norm of the piecewise
    quadratic antiderivative.
    """
    a_norm = antiderivative_l2_norm(spline)
    if a_norm == 0.0:
        raise ValueError("operator norm ratio undefined for the zero spline")
    data = make_exact_data(curve, spline.antiderivative, m)
    return quadrature_norm(data.y_values, data.quad_weights) / a_norm
