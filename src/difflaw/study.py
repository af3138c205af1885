"""Noise-level sweep driver, rate fitting, and result serialization.

Each study cell (delta, trial) is a pure computation keyed by a seed
derived from the base seed, so results are independent of execution order
and identical configurations produce identical CSV bytes.
"""

from __future__ import annotations

import logging
import numbers
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import NumericalError
from .forward import add_noise
from .reference import exact_parameter_spline, reference_exact_data
from .tikhonov import (
    alpha_a_priori,
    alpha_discrepancy,
    build_tikhonov_problem,
    solve_tikhonov,
)

__all__ = [
    "StudyConfig",
    "ConvergenceRecord",
    "derive_seed",
    "run_study",
    "fit_rate",
    "emit_csv",
    "read_records_csv",
    "emit_plot_data",
    "median_by_delta",
    "CSV_HEADER",
    "RATE_LINES",
]

log = logging.getLogger(__name__)

CSV_HEADER = "delta,alpha,trial,seed,err0,err1,residual"

# noise levels at and below this are treated as discretization-limited and
# excluded from rate fits unless explicitly re-included
INVERSE_CRIME_DELTA = 1e-6

# theoretical slopes of the reference lines in study.refs.csv, per alpha rule
RATE_LINES = {
    "quadratic": {"err0": 0.5, "err1": 0.0, "residual": 1.0},
    "eight_fifths": {"err0": 0.6, "err1": 0.2, "residual": 1.0},
    "discrepancy": {"err0": 0.5, "err1": 0.0, "residual": 1.0},
}


def _parse_alpha_rule(rule: str) -> tuple[str, float]:
    """Split 'name[:param]' into (name, param) with rule-specific defaults."""
    name, _, param = rule.partition(":")
    name = name.strip().replace("-", "_")
    if name == "quadratic":
        if param:
            raise ValueError("the quadratic rule takes no parameter")
        return "quadratic", 0.0
    if name == "eight_fifths":
        return "eight_fifths", float(param) if param else 0.1
    if name == "discrepancy":
        tau = float(param) if param else 1.5
        if tau <= 1:
            raise ValueError(f"discrepancy tau must be > 1, got {tau}")
        return "discrepancy", tau
    raise ValueError(f"unknown alpha rule {rule!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one noise-level sweep over the reference problem."""

    delta_list: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    alpha_rule: str = "quadratic"
    trials: int = 10
    base_seed: int = 0
    n_spline: int = 200
    m_quad: int = 500
    rule: tuple = field(init=False, compare=False)  # alpha_rule parsed: (name, param)

    def __post_init__(self):
        object.__setattr__(self, "delta_list", tuple(float(d) for d in self.delta_list))
        if not self.delta_list:
            raise ValueError("delta_list must not be empty")
        if not all(0 < d < np.inf for d in self.delta_list):
            raise ValueError("all noise levels must be positive and finite")
        if any(a <= b for a, b in zip(self.delta_list, self.delta_list[1:])):
            raise ValueError("delta_list must be strictly decreasing")
        for name, least in (("trials", 1), ("n_spline", 1), ("m_quad", 2)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        object.__setattr__(self, "rule", _parse_alpha_rule(self.alpha_rule))


@dataclass(frozen=True)
class ConvergenceRecord:
    """One (delta, trial) cell: chosen alpha, errors, residual, provenance."""

    delta: float
    alpha: float
    trial: int
    seed: int
    err0: float
    err1: float
    residual: float


def derive_seed(base_seed: int, delta: float, trial: int) -> int:
    """Stable per-cell seed: base_seed XOR a CRC32 hash of (delta, trial)."""
    tag = f"{float(delta)!r}:{int(trial)}".encode()
    return (int(base_seed) ^ zlib.crc32(tag)) & 0xFFFFFFFF


def _run_cell(delta, trial, config, exact_data, exact_spline):
    seed = derive_seed(config.base_seed, delta, trial)
    rng = np.random.default_rng(seed)
    data = add_noise(exact_data, delta, rng)
    problem = build_tikhonov_problem(data, config.n_spline)
    name, param = config.rule
    if name == "discrepancy":
        result = alpha_discrepancy(problem, delta, tau=param)
    else:
        result = solve_tikhonov(problem, alpha_a_priori(delta, name, coeff=param))
    diff = result.spline - exact_spline
    return ConvergenceRecord(
        delta=float(delta),
        alpha=float(result.alpha),
        trial=int(trial),
        seed=seed,
        err0=diff.l2_norm(),
        err1=diff.h1_norm(),
        residual=result.residual,
    )


def run_study(config: StudyConfig) -> list[ConvergenceRecord]:
    """Run all (delta, trial) cells and return records sorted by (delta desc, trial).

    Every cell chooses alpha by config.alpha_rule.  A failing cell is
    reported as a warning with diagnostics and skipped; the study continues.
    """
    exact_data = reference_exact_data(config.m_quad)
    exact_spline = exact_parameter_spline(config.n_spline)
    records = []
    for delta in config.delta_list:
        for trial in range(config.trials):
            try:
                records.append(_run_cell(delta, trial, config, exact_data, exact_spline))
                log.info(
                    "cell delta=%g trial=%d: err0=%.4g", delta, trial, records[-1].err0
                )
            except (NumericalError, ValueError) as exc:
                warnings.warn(
                    f"study cell (delta={delta:g}, trial={trial}) failed: {exc}",
                    stacklevel=2,
                )
    records.sort(key=lambda r: (-r.delta, r.trial))
    return records


def median_by_delta(records, column: str) -> dict:
    """Median of `column` over the trials at each noise level, by decreasing delta."""
    by_delta = {}
    for rec in records:
        by_delta.setdefault(rec.delta, []).append(getattr(rec, column))
    return {d: float(np.median(v)) for d, v in sorted(by_delta.items(), reverse=True)}


def fit_rate(records, column: str, include_inverse_crime: bool = False) -> float:
    """Least-squares slope of log10(trial median of `column`) vs log10(delta).

    Noise levels at or below the inverse-crime floor are excluded unless
    `include_inverse_crime` is set.  Requires at least 3 usable levels.
    """
    if column not in ("err0", "err1", "residual"):
        raise ValueError(f"column must be err0, err1 or residual, got {column!r}")
    med = median_by_delta(records, column)
    if not include_inverse_crime:
        med = {d: v for d, v in med.items() if d > INVERSE_CRIME_DELTA}
    if len(med) < 3:
        raise ValueError(
            f"need medians at >= 3 noise levels to fit a rate, have {len(med)}"
        )
    x = np.log10(list(med.keys()))
    y = np.log10(list(med.values()))
    return float(np.polyfit(x, y, 1)[0])


def emit_csv(records, path) -> None:
    """Write records as CSV (LF line endings, round-trippable floats)."""
    if not records:
        raise ValueError("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.delta!r},{r.alpha!r},{r.trial},{r.seed},{r.err0!r},{r.err1!r},{r.residual!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_records_csv(path) -> list[ConvergenceRecord]:
    """Parse a CSV written by emit_csv back into records."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    records = []
    for ln in lines[1:]:
        d, a, t, s, e0, e1, res = ln.split(",")
        records.append(
            ConvergenceRecord(
                delta=float(d),
                alpha=float(a),
                trial=int(t),
                seed=int(s),
                err0=float(e0),
                err1=float(e1),
                residual=float(res),
            )
        )
    return records


def emit_plot_data(records, path_stem, reference_rates=None) -> tuple[Path, Path]:
    """Write log-log plot series to `<stem>.series.csv` and `<stem>.refs.csv`.

    The series file holds per-delta medians with min/max bands for err0,
    err1, and residual.  The refs file holds straight reference-slope lines
    anchored so that each passes through the series median at the largest
    noise level; `reference_rates` defaults to the quadratic rule's slopes.
    Both are plain CSV, consumable by any plotting tool.
    """
    if not records:
        raise ValueError("no records to write")
    if reference_rates is None:
        reference_rates = RATE_LINES["quadratic"]
    stem = Path(path_stem)
    deltas = sorted({r.delta for r in records}, reverse=True)

    series_lines = ["series,delta,median,min,max"]
    med_cache = {}
    for column in ("err0", "err1", "residual"):
        by_delta = median_by_delta(records, column)
        med_cache[column] = by_delta
        for d in deltas:
            values = [getattr(r, column) for r in records if r.delta == d]
            series_lines.append(
                f"{column},{d!r},{by_delta[d]!r},{min(values)!r},{max(values)!r}"
            )
    series_path = stem.with_suffix(".series.csv")
    series_path.write_text("\n".join(series_lines) + "\n", newline="\n")

    ref_lines = ["series,rate,delta,value"]
    anchor_delta = deltas[0]
    for column, rate in reference_rates.items():
        anchor = med_cache[column][anchor_delta]
        for d in deltas:
            value = anchor * (d / anchor_delta) ** rate
            ref_lines.append(f"{column},{rate!r},{d!r},{value!r}")
    refs_path = stem.with_suffix(".refs.csv")
    refs_path.write_text("\n".join(ref_lines) + "\n", newline="\n")
    return series_path, refs_path
