"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "GridMismatchError",
    "NumericalError",
    "DiscrepancySearchError",
    "NoiseLevelTooSmallError",
    "DataTooRoughError",
]


class DomainError(ValueError):
    """An evaluation point lies outside the admissible state interval."""


class GridMismatchError(ValueError):
    """Two splines that must share a grid are defined on different grids."""


class NumericalError(RuntimeError):
    """A linear-algebra step failed (factorization, eigen-decomposition)."""


class DiscrepancySearchError(NumericalError):
    """The discrepancy-principle search cannot reach the target residual.

    The safeguarded Newton search aims at residuals in
    [tau delta, tau delta (1 + 2.5e-4)], inside the bracket
    [tau delta, 1.5 tau delta]; the subclasses name the side the data miss.
    """


class NoiseLevelTooSmallError(DiscrepancySearchError):
    """Even the weakest regularization leaves the residual above the bracket.

    The stated noise level is smaller than what the data (or the
    discretization floor) can actually be fitted to.
    """


class DataTooRoughError(DiscrepancySearchError):
    """Even the strongest regularization keeps the residual below the bracket.

    The stated noise level exceeds the data norm scale, so every candidate
    parameter over-fits the discrepancy target.
    """
