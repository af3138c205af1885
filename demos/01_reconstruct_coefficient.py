#!/usr/bin/env python3
"""Recover the state-dependent coefficient a(u) from noisy boundary traces.

Walkthrough of the core pipeline: generate exact trace data along the
measurement arc, perturb it with uniform noise of amplitude delta, assemble
the Tikhonov problem for the spline nodal values, solve, and compare with
the known coefficient a(u) = 1 + u^2.
"""

import numpy as np

import difflaw as dl

DELTA = 1e-3
SEED = 42

# exact data: 500 midpoint nodes on the arc, y(s) = A(h(s))
data = dl.reference_exact_data(m=500)
print(f"trace data: {data.m} nodes on [{data.s_nodes[0]:.4f}, {data.s_nodes[-1]:.4f}]")

# perturb both the states h and the observations y, clamping h into the
# admissible interval
rng = np.random.default_rng(SEED)
noisy = dl.add_noise(data, DELTA, rng)
print(f"noise level delta = {DELTA:g} (uniform amplitude, h clamped)")

# a-priori parameter choice alpha = delta^2 and the regularized solve
alpha = dl.alpha_a_priori(DELTA, "quadratic")
problem = dl.build_tikhonov_problem(noisy, n_elements=200)
result = dl.solve_tikhonov(problem, alpha)

exact = dl.exact_parameter_spline(200)
diff = result.spline - exact
print(f"alpha = {alpha:g}")
print(f"residual        = {result.residual:.3e}  (noise floor ~ 0.72 delta)")
print(f"err0 (L2 error) = {diff.l2_norm():.3e}")
print(f"err1 (H1 error) = {diff.h1_norm():.3e}")

# the recovered spline can be evaluated anywhere inside the interval
for u in (-0.5, 0.0, 0.5):
    print(f"  a({u:+.1f}) = {result.spline(u):.4f}   exact {1 + u**2:.4f}")
