#!/usr/bin/env python3
"""Why regularization is needed: direct differentiation amplifies noise.

The trace relation can be solved in closed form by differentiating the
observations along the curve: a(h(s)) = y'(s) / h'(s).  On exact data this
works to discretization accuracy, but the difference quotient divides the
data noise by the step size (here ~ delta / 0.003), so at delta = 1e-2 the
naive estimate is useless while the Tikhonov solution is stable.
"""

import numpy as np

import difflaw as dl

data = dl.reference_exact_data(500)
curve = dl.reference_curve()
exact = dl.exact_parameter_spline(200)

clean = dl.naive_reconstruction(data, curve, 200)
print(f"naive on exact data:  err0 = {(clean - exact).l2_norm():.2e}")

for delta in (1e-4, 1e-3, 1e-2):
    noisy = dl.add_noise(data, delta, np.random.default_rng(7))
    naive = dl.naive_reconstruction(noisy, curve, 200)
    tikh = dl.solve_tikhonov(dl.build_tikhonov_problem(noisy, 200), delta**2)
    err_naive = (naive - exact).l2_norm()
    err_tikh = (tikh.spline - exact).l2_norm()
    print(
        f"delta = {delta:g}:  naive err0 = {err_naive:8.4f}   "
        f"tikhonov err0 = {err_tikh:.4f}   ratio = {err_naive / err_tikh:6.1f}x"
    )
