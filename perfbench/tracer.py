"""Spans and counts at difflaw's layer boundaries, recorded from outside the package.

`Tracer.install` replaces, in every difflaw module that holds one of the
names in BOUNDARIES, that name by a wrapper which records one span per call:
(name, start, end, parent span, job).  Wrapping the name the caller holds
(`difflaw.study.solve_tikhonov`, not only `difflaw.tikhonov.solve_tikhonov`)
is what makes calls between modules visible without editing the package.
Spans stay in memory; the worker writes them out when its run ends.

Dense-kernel work is counted at the same boundaries from matrix shapes, so
`dense_flops` and `dense_bytes` are computed, not measured.  Only the
dominant kernels are counted: Cholesky factorizations, the T^T W T product
and the two penalty-matrix products.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# (span name, attribute, holders): holders are the objects, named relative to
# the difflaw package, whose attribute of that name is wrapped.
BOUNDARIES = [
    ("study.run_study", "run_study", ["cli"]),
    ("study.emit_csv", "emit_csv", ["cli"]),
    ("study.emit_plot_data", "emit_plot_data", ["cli"]),
    ("study.fit_rate", "fit_rate", ["cli"]),
    ("checks.run_all_checks", "run_all_checks", ["cli"]),
    ("reference.reference_exact_data", "reference_exact_data", ["cli", "study", "checks"]),
    ("reference.exact_parameter_spline", "exact_parameter_spline", ["cli", "study", "checks"]),
    ("forward.add_noise", "add_noise", ["cli", "study", "checks"]),
    ("forward.assemble_t_matrix", "assemble_t_matrix", ["tikhonov", "checks"]),
    ("forward.operator_norm_ratio", "operator_norm_ratio", ["checks"]),
    ("forward.residual_norm", "residual_norm", ["checks"]),
    ("splines.antiderivative_weights", "antiderivative_weights", ["forward", "tikhonov"]),
    ("tikhonov.gradient_penalty_matrix", "gradient_penalty_matrix", ["tikhonov", "study", "checks"]),
    (
        "tikhonov.antiderivative_penalty_matrix",
        "antiderivative_penalty_matrix",
        ["tikhonov", "study", "checks"],
    ),
    ("tikhonov.build_tikhonov_problem", "build_tikhonov_problem", ["cli", "study", "checks"]),
    ("tikhonov.solve_tikhonov", "solve_tikhonov", ["cli", "study", "checks"]),
    ("tikhonov.alpha_discrepancy", "alpha_discrepancy", ["study"]),
    ("tikhonov.tikhonov_objective", "tikhonov_objective", ["checks"]),
    ("tikhonov.naive_reconstruction", "naive_reconstruction", ["checks"]),
    ("tikhonov.factor", "cho_factor", ["tikhonov"]),
    ("hilbert_scale.build_scale_operator", "build_scale_operator", ["checks"]),
    ("hilbert_scale.scale_norm", "scale_norm", ["hilbert_scale.DiscreteScaleOperator"]),
]


def _normal_matrix_cost(problem, **_):
    m, n1 = problem.t_matrix.shape
    return 2 * m * n1 * n1, 8 * (2 * m * n1 + n1 * n1)


def _cholesky_cost(a, **_):
    n1 = a.shape[0]
    return n1**3 / 3, 16 * n1 * n1


def _antiderivative_penalty_cost(interval, n_elements, subintervals=10, **_):
    n1 = int(n_elements) + 1
    rows = (int(subintervals) + 1) * int(n_elements)
    return 2 * rows * n1 * n1, 8 * (2 * rows * n1 + n1 * n1)


def _gradient_penalty_cost(interval, n_elements, **_):
    n1 = int(n_elements) + 1
    return 2 * (n1 - 1) * n1 * n1, 8 * (2 * (n1 - 1) * n1 + n1 * n1)


COSTS = {
    "tikhonov.factor": _cholesky_cost,
    "tikhonov.solve_tikhonov": _normal_matrix_cost,
    "tikhonov.alpha_discrepancy": _normal_matrix_cost,
    "tikhonov.antiderivative_penalty_matrix": _antiderivative_penalty_cost,
    "tikhonov.gradient_penalty_matrix": _gradient_penalty_cost,
}


def _slug(check_name: str) -> str:
    return check_name.replace(" ", "_").replace("-", "_")


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, job]
        self.flops = 0.0
        self.bytes = 0.0
        self.job = -1
        self._stack = []

    def wrap(self, name: str, fn, cost=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if cost else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cost:
                self._count(cost, signature, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _count(self, cost, signature, args, kwargs) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            flops, moved = cost(**bound.arguments)
        except (TypeError, AttributeError, ValueError):
            return  # a changed signature leaves this call uncounted
        self.flops += flops
        self.bytes += moved

    def install(self) -> None:
        """Wrap every boundary name that the installed difflaw still holds.

        A holder that no longer has the name is skipped, so a refactor of the
        package makes a metric read 0 instead of breaking the traced run.
        """
        wrappers = {}
        for name, attr, holders in BOUNDARIES:
            for holder_path in holders:
                module_path, _, class_name = holder_path.partition(".")
                try:
                    holder = importlib.import_module(f"difflaw.{module_path}")
                except ModuleNotFoundError:
                    continue
                if class_name:
                    holder = getattr(holder, class_name, None)
                original = getattr(holder, attr, None)
                if not callable(original):
                    continue
                key = (name, id(original))
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, original, COSTS.get(name))
                setattr(holder, attr, wrappers[key])
        checks = importlib.import_module("difflaw.checks")
        for i, (check_name, fn) in enumerate(checks.ALL_CHECKS):
            checks.ALL_CHECKS[i] = (check_name, self.wrap(f"checks.{_slug(check_name)}", fn))


def summarise(spans: list) -> dict:
    """Per span name: calls, busy time (outermost spans) and self time, summed."""
    children = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, job) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += end - start - children[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy"] += end - start
    return totals
