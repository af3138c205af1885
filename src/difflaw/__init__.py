"""Identification of state-dependent diffusion laws from boundary trace data.

The package recovers a coefficient a(u) from overspecified boundary
measurements along a curve by recasting the problem as a linear operator
equation for the antiderivative of a and solving it with Tikhonov
regularization.  It ships the forward-operator assembly, the regularized
solver with a-priori and discrepancy-based parameter choice, a discrete
Hilbert-scale instrument for spectral verification, and a convergence-rate
study driver with CSV/plot-data output.
"""

__version__ = "0.1.0"

from .exceptions import (
    DataTooRoughError,
    DiscrepancySearchError,
    DomainError,
    GridMismatchError,
    NoiseLevelTooSmallError,
    NumericalError,
)
from .forward import (
    CurveParametrization,
    TraceData,
    add_noise,
    apply_t,
    make_exact_data,
    mapping_weight,
    operator_norm_ratio,
    quadrature_norm,
    residual_norm,
)
from .hilbert_scale import DiscreteScaleOperator, build_scale_operator
from .reference import (
    ANTIDERIVATIVE_OFFSET,
    exact_antiderivative,
    exact_parameter,
    exact_parameter_spline,
    reference_curve,
    reference_exact_data,
    reference_interval,
)
from .splines import (
    ParameterSpline,
    StateInterval,
    antiderivative_l2_norm,
)
from .study import (
    ConvergenceRecord,
    StudyConfig,
    derive_seed,
    emit_csv,
    emit_plot_data,
    fit_rate,
    read_records_csv,
    run_study,
)
from .tikhonov import (
    ReconstructionResult,
    TikhonovProblem,
    alpha_a_priori,
    alpha_discrepancy,
    build_tikhonov_problem,
    naive_reconstruction,
    solve_tikhonov,
    tikhonov_objective,
)

__all__ = [
    "__version__",
    # splines
    "StateInterval",
    "ParameterSpline",
    "antiderivative_l2_norm",
    # forward operator
    "CurveParametrization",
    "TraceData",
    "make_exact_data",
    "add_noise",
    "apply_t",
    "quadrature_norm",
    "residual_norm",
    "mapping_weight",
    "operator_norm_ratio",
    # hilbert scale
    "DiscreteScaleOperator",
    "build_scale_operator",
    # tikhonov
    "TikhonovProblem",
    "ReconstructionResult",
    "build_tikhonov_problem",
    "solve_tikhonov",
    "tikhonov_objective",
    "alpha_a_priori",
    "alpha_discrepancy",
    "naive_reconstruction",
    # study
    "StudyConfig",
    "ConvergenceRecord",
    "derive_seed",
    "run_study",
    "fit_rate",
    "emit_csv",
    "read_records_csv",
    "emit_plot_data",
    # reference problem
    "ANTIDERIVATIVE_OFFSET",
    "reference_interval",
    "reference_curve",
    "exact_parameter",
    "exact_antiderivative",
    "exact_parameter_spline",
    "reference_exact_data",
    # errors
    "DomainError",
    "GridMismatchError",
    "NumericalError",
    "DiscrepancySearchError",
    "NoiseLevelTooSmallError",
    "DataTooRoughError",
]
