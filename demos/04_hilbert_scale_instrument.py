#!/usr/bin/env python3
"""The Hilbert scale of the solver's penalty as a verification instrument.

Builds the scale operator from the Tikhonov penalty ||A''||^2 + ||A||^2 on
the solver's own grid, acting on the solver's unknowns: the B-spline
coefficients d of the antiderivative A, with A(u_min) = 0 built in.  It
demonstrates the spectral facts the regularization theory rests on: strict
positivity (all eigenvalues >= 1, the bottom one 1 for linear A), the norm
identifications at scale indices -1 (the L2 norm of A) and 1 (the penalty),
the interpolation inequality between levels, and fractional powers as
diagonal maps on the eigen-coefficients.
"""

import numpy as np

import difflaw as dl

interval = dl.reference_interval()
n = 400
op = dl.build_scale_operator(interval, n)
dx = interval.length / n

print(f"{op.eigenvalues.size} coefficients on [{interval.u_min:.4f}, {interval.u_max:.4f}]")
print(f"eigenvalues: min {op.eigenvalues[0]:.6f}, max {op.eigenvalues[-1]:.3e}")


def coefficients(a):
    """B-spline coefficients d of A from the nodal values of a = A'."""
    return dx * (np.cumsum(a) - a[0] / 2)


# index -1 is the exact L2 norm of A
rng = np.random.default_rng(0)
spline = dl.ParameterSpline(interval, rng.normal(size=n + 1))
d = coefficients(spline.node_values)
print(
    f"scale_norm(d, -1) = {op.scale_norm(d, -1.0):.6f}   "
    f"||A|| = {dl.antiderivative_l2_norm(spline):.6f}"
)

# index 1 is the penalty norm; for A(u) = sin(pi (u - u_min) / L) it
# approaches the closed form of ||A''||^2 + ||A||^2 as the grid refines
length = interval.length
phase = np.pi * (spline.nodes - interval.u_min) / length
smooth = coefficients(np.pi / length * np.cos(phase))
closed_form = np.sqrt((np.pi / length) ** 4 * length / 2 + length / 2)
print(
    f"scale_norm(sin, 1) = {op.scale_norm(smooth, 1.0):.6f}   "
    f"closed form = {closed_form:.6f}"
)

# interpolation inequality: intermediate norms are controlled by the ends
r, s, t = 0.0, 1.0, 2.0
lhs = op.x_norm(d, s)
rhs = op.x_norm(d, r) ** 0.5 * op.x_norm(d, t) ** 0.5
print(f"||L^1 d|| = {lhs:.4f}  <=  sqrt(||d|| * ||L^2 d||) = {rhs:.4f}")

# fractional powers compose: L^(1/2) applied twice equals L
once = op.apply_power(d, 0.5)
twice = op.apply_power(once, 0.5)
direct = op.apply_power(d, 1.0)
print(f"max |L^(1/2) L^(1/2) d - L d| = {np.max(np.abs(twice - direct)):.2e}")
