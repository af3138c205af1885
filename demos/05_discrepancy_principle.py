#!/usr/bin/env python3
"""Choosing alpha a-posteriori when only the noise level is trusted.

The discrepancy principle picks the regularization parameter so that the
data residual matches tau * delta: bisection over log(alpha) exploits that
the residual grows monotonically with alpha.  Compared with the a-priori
rule alpha = delta^2, the selected alpha is larger (the residual target sits
above the noise floor), trading a little accuracy for not having to know
the right power law in advance.
"""

import numpy as np

import difflaw as dl

data = dl.reference_exact_data(500)
exact = dl.exact_parameter_spline(200)

for delta in (1e-2, 1e-3):
    noisy = dl.add_noise(data, delta, np.random.default_rng(1))
    problem = dl.build_tikhonov_problem(noisy, 200)

    result = dl.alpha_discrepancy(problem, delta, tau=1.5)
    apriori = dl.solve_tikhonov(problem, delta**2)

    print(f"delta = {delta:g}")
    print(
        f"  discrepancy: alpha = {result.alpha:.3e}, residual = {result.residual:.3e} "
        f"(target [{1.5 * delta:.1e}, {2.25 * delta:.1e}]), "
        f"err0 = {(result.spline - exact).l2_norm():.4f}"
    )
    print(
        f"  a-priori:    alpha = {delta**2:.3e}, residual = {apriori.residual:.3e}, "
        f"err0 = {(apriori.spline - exact).l2_norm():.4f}"
    )
