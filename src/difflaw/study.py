"""Noise-level sweep driver, rate fitting, and result serialization.

Each study cell (delta, trial) draws its noise from a seed derived from
the base seed, and identical configurations produce identical CSV bytes.
The cells of one noise level are solved as one stack of Tikhonov problems,
in one solve that reports each cell's result or error; a cell's record
does not depend on the stack it is solved in.  Under the
discrepancy rule a cell's alpha also depends on the previous noise level:
each level after the first starts its search at the previous level's
median alpha, scaled by the ratio of the delta^(8/5) rule.
"""

from __future__ import annotations

import logging
import numbers
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .forward import add_noise
from .reference import exact_parameter_spline, reference_exact_data
from .splines import _norms
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

# the record columns that are summarized by their median over the trials
COLUMNS = ("err0", "err1", "residual")

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
    try:
        value = float(param) if param else None
    except ValueError:  # not a number: the rule's range check below names the rule
        value = np.nan
    if name == "quadratic":
        if param:
            raise ValueError("the quadratic rule takes no parameter")
        return "quadratic", 0.0
    if name == "eight_fifths":
        coeff = 0.1 if value is None else value
        if not 0 < coeff < np.inf:
            raise ValueError(f"alpha rule {rule!r}: coefficient must be finite and > 0")
        return "eight_fifths", coeff
    if name == "discrepancy":
        tau = 1.5 if value is None else value
        if not 1 < tau < np.inf:
            raise ValueError(f"alpha rule {rule!r}: tau must be finite and > 1")
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
        if self.rule[0] != "discrepancy":  # each level's alpha, before any cell is solved
            for delta in self.delta_list:
                alpha_a_priori(delta, *self.rule)


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


def _solve_level(delta, config, exact_data, exact_spline, alpha_start=None) -> list:
    """Each trial's record, or the error it raised, at one noise level, by trial.

    The trials are solved as one stack.  alpha_start is the discrepancy
    search's start; the other rules ignore it.
    """
    seeds = [derive_seed(config.base_seed, delta, trial) for trial in range(config.trials)]
    data = [add_noise(exact_data, delta, np.random.default_rng(seed)) for seed in seeds]
    problem = build_tikhonov_problem(data, config.n_spline)
    name, param = config.rule
    if name == "discrepancy":
        outcomes = alpha_discrepancy(problem, delta, tau=param, alpha_start=alpha_start)
    else:
        outcomes = solve_tikhonov(problem, alpha_a_priori(delta, name, coeff=param))
    # a failed trial's row holds the exact nodes and gives no record
    nodes = np.stack([
        exact_spline.node_values if isinstance(o, Exception) else o.spline.node_values
        for o in outcomes
    ])
    norms = _norms(nodes - exact_spline.node_values, exact_spline.spacing)
    return [
        o if isinstance(o, Exception) else ConvergenceRecord(
            float(delta), float(o.alpha), trial, seeds[trial], e0, e1, o.residual
        )
        for trial, (o, e0, e1) in enumerate(zip(outcomes, *(n.tolist() for n in norms)))
    ]


def _warm_start(delta: float, previous: list) -> float | None:
    """Discrepancy start at `delta` from the records of the previous level.

    The median alpha of those records times the ratio of the delta^(8/5)
    rule's alphas at `delta` and at theirs; None without records or if it
    leaves the floats.
    """
    if not previous:
        return None
    rule = "eight_fifths"
    try:
        scale = alpha_a_priori(delta, rule) / alpha_a_priori(previous[0].delta, rule)
    except ValueError:  # delta^(8/5) under- or overflows
        return None
    start = float(np.median([r.alpha for r in previous])) * scale
    return start if start > 0 else None


def run_study(config: StudyConfig) -> list[ConvergenceRecord]:
    """Run all (delta, trial) cells and return records sorted by (delta desc, trial).

    Every cell chooses alpha by config.alpha_rule; the cells of one noise
    level are solved as one stack.  Under the discrepancy rule each level
    but the first starts its search at `_warm_start` of the level before; a
    level after one without records starts as the first does.  A failing
    cell is reported as a warning with diagnostics and skipped; the study
    continues.
    """
    exact_data = reference_exact_data(config.m_quad)
    exact_spline = exact_parameter_spline(config.n_spline)
    records, previous, alpha_start = [], [], None
    for delta in config.delta_list:
        if config.rule[0] == "discrepancy":
            alpha_start = _warm_start(delta, previous)
        previous = []
        outcomes = _solve_level(delta, config, exact_data, exact_spline, alpha_start)
        for trial, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                warnings.warn(
                    f"study cell (delta={delta:g}, trial={trial}) failed: {outcome}",
                    stacklevel=2,
                )
            else:
                records.append(outcome)
                previous.append(outcome)
                log.info("cell delta=%g trial=%d: err0=%.4g", delta, trial, outcome.err0)
    records.sort(key=lambda r: (-r.delta, r.trial))
    return records


def _by_delta(records, column: str) -> dict:
    """Values of `column` over the trials at each noise level, by decreasing delta."""
    by_delta = {}
    for rec in records:
        by_delta.setdefault(rec.delta, []).append(getattr(rec, column))
    return dict(sorted(by_delta.items(), reverse=True))


def median_by_delta(records, column: str) -> dict:
    """Median of `column` over the trials at each noise level, by decreasing delta."""
    return {d: float(np.median(v)) for d, v in _by_delta(records, column).items()}


def fit_rate(
    records, column: str, include_inverse_crime: bool = False, *, medians=None
) -> float:
    """Least-squares slope of log10(trial median of `column`) vs log10(delta).

    Noise levels at or below the inverse-crime floor are excluded unless
    `include_inverse_crime` is set.  Requires at least 3 usable levels.
    `medians`, the {column: median_by_delta(records, column)} a caller
    already holds, is used instead of taking the medians again.
    """
    if column not in COLUMNS:
        raise ValueError(f"column must be err0, err1 or residual, got {column!r}")
    med = median_by_delta(records, column) if medians is None else medians[column]
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


def emit_plot_data(
    records, path_stem, reference_rates=None, *, medians=None
) -> tuple[Path, Path]:
    """Write log-log plot series to `<stem>.series.csv` and `<stem>.refs.csv`.

    The series file holds per-delta medians with min/max bands for err0,
    err1, and residual.  The refs file holds straight reference-slope lines
    anchored so that each passes through the series median at the largest
    noise level; `reference_rates` defaults to the quadratic rule's slopes.
    `medians` is as in `fit_rate`.  Both files are plain CSV, consumable by
    any plotting tool.
    """
    if not records:
        raise ValueError("no records to write")
    if reference_rates is None:
        reference_rates = RATE_LINES["quadratic"]
    stem = Path(path_stem)
    deltas = sorted({r.delta for r in records}, reverse=True)

    series_lines = ["series,delta,median,min,max"]
    anchors = {}  # the median at the largest delta, per column
    for column in COLUMNS:
        for d, values in _by_delta(records, column).items():
            median = float(np.median(values)) if medians is None else medians[column][d]
            anchors.setdefault(column, median)
            series_lines.append(
                f"{column},{d!r},{median!r},{min(values)!r},{max(values)!r}"
            )
    series_path = stem.with_suffix(".series.csv")
    series_path.write_text("\n".join(series_lines) + "\n", newline="\n")

    ref_lines = ["series,rate,delta,value"]
    anchor_delta = deltas[0]
    for column, rate in reference_rates.items():
        anchor = anchors[column]
        for d in deltas:
            value = anchor * (d / anchor_delta) ** rate
            ref_lines.append(f"{column},{rate!r},{d!r},{value!r}")
    refs_path = stem.with_suffix(".refs.csv")
    refs_path.write_text("\n".join(ref_lines) + "\n", newline="\n")
    return series_path, refs_path
