#!/usr/bin/env python3
"""The discrete scale operator as a verification instrument.

Builds the finite-dimensional fourth-order operator u -> u'''' + u with the
essential condition u(u_min) = 0, and demonstrates the spectral facts the
regularization theory rests on: strict positivity (all eigenvalues >= 1),
the norm identifications at scale indices -1 and 1, the interpolation
inequality between levels, and fractional powers as diagonal maps on the
eigen-coefficients.
"""

import numpy as np

import difflaw as dl

interval = dl.reference_interval()
op = dl.build_scale_operator(interval, 400)

print(f"grid: {op.n_points} points on [{interval.u_min:.4f}, {interval.u_max:.4f}]")
print(f"eigenvalues: min {op.eigenvalues[0]:.6f}, max {op.eigenvalues[-1]:.3e}")

# index -1 is the plain L2 norm
rng = np.random.default_rng(0)
u = np.zeros(op.n_points)
u[1:] = rng.normal(size=op.n_points - 1)
print(
    f"scale_norm(u, -1) = {op.scale_norm(u, -1.0):.6f}   "
    f"discrete L2 norm = {np.sqrt(u[1:] @ (op.mass * u[1:])):.6f}"
)

# index 1 matches ||u''||^2 + ||u||^2 for a smooth compatible function
smooth = np.sin(np.pi * (op.grid - interval.u_min) / interval.length)
smooth[0] = 0.0
length = interval.length
closed_form = np.sqrt((np.pi / length) ** 4 * length / 2 + length / 2)
print(
    f"scale_norm(sin, 1) = {op.scale_norm(smooth, 1.0):.6f}   "
    f"closed form = {closed_form:.6f}"
)

# interpolation inequality: intermediate norms are controlled by the ends
r, s, t = 0.0, 1.0, 2.0
lhs = op.x_norm(u, s)
rhs = op.x_norm(u, r) ** 0.5 * op.x_norm(u, t) ** 0.5
print(f"||L^1 u|| = {lhs:.4f}  <=  sqrt(||u|| * ||L^2 u||) = {rhs:.4f}")

# fractional powers compose: L^(1/2) applied twice equals L
once = op.apply_power(u, 0.5)
twice = op.apply_power(once, 0.5)
direct = op.apply_power(u, 1.0)
print(f"max |L^(1/2) L^(1/2) u - L u| = {np.max(np.abs(twice - direct)):.2e}")
