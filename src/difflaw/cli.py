"""Command-line entry points: study sweeps, single reconstructions, verify.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O
failure.  A flat key=value config file can provide defaults for any
value-taking flag of its subcommand; explicit flags win, and any other key
is a validation error.  The only environment variable, DIFFLAW_VERBOSE,
controls log verbosity and nothing else.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_all_checks
from .exceptions import NumericalError
from .forward import add_noise
from .reference import exact_parameter_spline, reference_exact_data
from .study import (
    COLUMNS,
    RATE_LINES,
    StudyConfig,
    derive_seed,
    emit_csv,
    emit_plot_data,
    fit_rate,
    median_by_delta,
    run_study,
)
from .tikhonov import build_tikhonov_problem, solve_tikhonov


# glibc's mallopt parameter for the heap kept above its top when it grows or trims
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 4 << 20


@functools.cache
def _pad_heap() -> None:
    """Keep _HEAP_TOP_PAD bytes at the top of the heap, once per process, under glibc.

    By default glibc trims the heap top back to 128 KB after each free, so a
    process that runs several commands faults their numpy temporaries in
    again each time.  Without glibc's mallopt nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit(2) so validation failures map to exit code 1
    def error(self, message):
        raise UsageError(message)


def _read_config(path: str) -> dict:
    """Flat key=value file; keys match the CLI flag names without dashes."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """Config-file values keyed by flag dest; each key must name a value flag."""
    defaults = {}
    for key, value in _read_config(path).items():
        action = command._option_string_actions.get(f"--{key}")
        if action is None or action.nargs == 0:
            raise UsageError(f"{path}: {key!r} is not a value-taking flag of {command.prog}")
        defaults[action.dest] = value
    return defaults


def _check_grid_sizes(args) -> None:
    """Spline elements n and quadrature points m, checked before any work."""
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.m < 2:
        raise UsageError(f"--m must be >= 2, got {args.m}")


def _parse_deltas(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from exc


def _int_flag(command: argparse.ArgumentParser, flag: str, default: int, text: str) -> None:
    command.add_argument(flag, type=int, default=default, help=f"{text} (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="difflaw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"difflaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a noise-level sweep", add_help=True)
    study.add_argument(
        "--alpha-rule",
        default=StudyConfig.alpha_rule,
        help="quadratic | eight-fifths[:c] | discrepancy[:tau]",
    )
    study.add_argument(
        "--deltas",
        type=_parse_deltas,
        default=StudyConfig.delta_list,
        help="comma-separated noise levels, decreasing",
    )
    _int_flag(study, "--trials", StudyConfig.trials, "noise draws per level")
    _int_flag(study, "--seed", StudyConfig.base_seed, "base seed")
    _int_flag(study, "--n", StudyConfig.n_spline, "spline elements")
    _int_flag(study, "--m", StudyConfig.m_quad, "quadrature points")
    study.add_argument("--out", help="output directory for CSV and plot data")
    study.add_argument("--config", help="key=value config file; flags override it")
    study.add_argument(
        "--include-inverse-crime",
        action="store_true",
        help="keep discretization-limited noise levels in the rate fits",
    )

    rec = sub.add_parser("reconstruct", help="single reconstruction at fixed alpha")
    rec.add_argument("--delta", type=float, help="noise level (0 for exact data)")
    rec.add_argument("--alpha", type=float, help="regularization parameter")
    _int_flag(rec, "--seed", StudyConfig.base_seed, "noise seed")
    _int_flag(rec, "--n", StudyConfig.n_spline, "spline elements")
    _int_flag(rec, "--m", StudyConfig.m_quad, "quadrature points")
    rec.add_argument("--out", help="output CSV of (u, a) pairs")
    rec.add_argument("--config", help="key=value config file; flags override it")

    sub.add_parser("verify", help="run the property checks at reduced sample sizes")
    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _cmd_study(args) -> int:
    if args.out is None:
        raise UsageError("--out DIR is required (flag or config file)")
    _check_grid_sizes(args)
    config = StudyConfig(
        delta_list=args.deltas,
        alpha_rule=args.alpha_rule,
        trials=args.trials,
        base_seed=args.seed,
        n_spline=args.n,
        m_quad=args.m,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before any cell is solved

    records = run_study(config)
    if not records:
        raise NumericalError("every study cell failed")
    # one median per column and noise level, shared by the table, the fits and the plot data
    medians = {column: median_by_delta(records, column) for column in COLUMNS}
    emit_csv(records, out / "records.csv")
    emit_plot_data(records, out / "study", RATE_LINES[config.rule[0]], medians=medians)

    print(f"wrote {out / 'records.csv'} ({len(records)} records)")
    print("delta        median err0   median err1   median residual")
    err0, err1, residual = (medians[column] for column in COLUMNS)
    for d in err0:
        print(f"{d:<12g} {err0[d]:<13.6f} {err1[d]:<13.6f} {residual[d]:.6f}")
    include = args.include_inverse_crime
    try:
        slopes = {c: fit_rate(records, c, include, medians=medians) for c in COLUMNS}
    except ValueError:  # fewer than three usable noise levels
        slopes = {}
    for column, slope in slopes.items():
        print(f"log-log slope of median {column} vs delta: {slope:.3f}")
    return 0


def _cmd_reconstruct(args) -> int:
    delta, alpha = args.delta, args.alpha
    if delta is None or alpha is None or args.out is None:
        raise UsageError("reconstruct requires --delta, --alpha and --out")
    if not 0 <= delta < np.inf:
        raise UsageError(f"--delta must be finite and >= 0, got {delta}")
    if not 0 < alpha < np.inf:
        raise UsageError(f"--alpha must be finite and > 0, got {alpha}")
    _check_grid_sizes(args)

    rng = np.random.default_rng(derive_seed(args.seed, delta, 0))
    data = add_noise(reference_exact_data(args.m), delta, rng)
    result = solve_tikhonov(build_tikhonov_problem(data, args.n), alpha)
    diff = result.spline - exact_parameter_spline(args.n)
    lines = ["u,a"]
    for u, a in zip(result.spline.nodes, result.spline.node_values):
        lines.append(f"{float(u)!r},{float(a)!r}")
    Path(args.out).write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {args.out}")
    print(
        f"delta={delta:g} alpha={alpha:g} residual={result.residual:.6g} "
        f"err0={diff.l2_norm():.6g} err1={diff.h1_norm():.6g}"
    )
    return 0


def main(argv=None) -> int:
    _pad_heap()
    if os.environ.get("DIFFLAW_VERBOSE"):
        logging.basicConfig(level=logging.INFO)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            command = parser.commands[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        return 0 if run_all_checks() else 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
