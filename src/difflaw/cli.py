"""Command-line entry points: study sweeps, single reconstructions, verify.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O
failure.  A flat key=value config file can provide defaults for any flag;
explicit flags win.  The only environment variable, DIFFLAW_VERBOSE,
controls log verbosity and nothing else.
"""

from __future__ import annotations

import argparse
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
    INVERSE_CRIME_DELTA,
    RATE_LINES,
    StudyConfig,
    _parse_alpha_rule,
    derive_seed,
    emit_csv,
    emit_plot_data,
    fit_rate,
    run_study,
)
from .tikhonov import build_tikhonov_problem, solve_tikhonov


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


def _merged(args, config: dict, key: str, cast, default):
    """CLI value if given, else config-file value, else default."""
    cli_value = getattr(args, key.replace("-", "_"))
    if cli_value is not None:
        return cli_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise UsageError(f"config key {key}={config[key]!r}: {exc}") from exc
    return default


def _grid_sizes(args, config: dict) -> tuple:
    """Spline elements n and quadrature points m, checked before any work."""
    n = _merged(args, config, "n", int, 200)
    m = _merged(args, config, "m", int, 500)
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if m < 2:
        raise UsageError(f"--m must be >= 2, got {m}")
    return n, m


def _parse_deltas(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad --deltas value {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="difflaw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"difflaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a noise-level sweep", add_help=True)
    study.add_argument("--alpha-rule", help="quadratic | eight-fifths[:c] | discrepancy[:tau]")
    study.add_argument("--deltas", help="comma-separated noise levels, decreasing")
    study.add_argument("--trials", type=int, help="noise draws per level (default 10)")
    study.add_argument("--seed", type=int, help="base seed (default 0)")
    study.add_argument("--n", type=int, help="spline elements (default 200)")
    study.add_argument("--m", type=int, help="quadrature points (default 500)")
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
    rec.add_argument("--seed", type=int, help="noise seed (default 0)")
    rec.add_argument("--n", type=int, help="spline elements (default 200)")
    rec.add_argument("--m", type=int, help="quadrature points (default 500)")
    rec.add_argument("--out", help="output CSV of (u, a) pairs")
    rec.add_argument("--config", help="key=value config file; flags override it")

    sub.add_parser("verify", help="run the property checks at reduced sample sizes")
    return parser


def _cmd_study(args) -> int:
    config_file = _read_config(args.config) if args.config else {}
    deltas = _merged(args, config_file, "deltas", _parse_deltas, None)
    if isinstance(deltas, str):
        deltas = _parse_deltas(deltas)
    out_dir = _merged(args, config_file, "out", str, None)
    if out_dir is None:
        raise UsageError("--out DIR is required (flag or config file)")
    n, m = _grid_sizes(args, config_file)
    kwargs = {}
    if deltas is not None:
        kwargs["delta_list"] = deltas
    try:
        config = StudyConfig(
            alpha_rule=_merged(args, config_file, "alpha-rule", str, "quadratic"),
            trials=_merged(args, config_file, "trials", int, 10),
            base_seed=_merged(args, config_file, "seed", int, 0),
            n_spline=n,
            m_quad=m,
            **kwargs,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    records = run_study(config)
    if not records:
        raise NumericalError("every study cell failed")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out / "records.csv")
    rule_name, _ = _parse_alpha_rule(config.alpha_rule)
    emit_plot_data(records, out / "study", RATE_LINES[rule_name])

    print(f"wrote {out / 'records.csv'} ({len(records)} records)")
    print("delta        median err0   median err1   median residual")
    by_delta = {}
    for r in records:
        by_delta.setdefault(r.delta, []).append(r)
    for d in sorted(by_delta, reverse=True):
        cell = by_delta[d]
        print(
            f"{d:<12g} {np.median([r.err0 for r in cell]):<13.6f} "
            f"{np.median([r.err1 for r in cell]):<13.6f} "
            f"{np.median([r.residual for r in cell]):.6f}"
        )
    usable = [
        d for d in by_delta if args.include_inverse_crime or d > INVERSE_CRIME_DELTA
    ]
    if len(usable) >= 3:
        for column in ("err0", "err1", "residual"):
            slope = fit_rate(records, column, args.include_inverse_crime)
            print(f"log-log slope of median {column} vs delta: {slope:.3f}")
    return 0


def _cmd_reconstruct(args) -> int:
    config_file = _read_config(args.config) if args.config else {}
    delta = _merged(args, config_file, "delta", float, None)
    alpha = _merged(args, config_file, "alpha", float, None)
    out = _merged(args, config_file, "out", str, None)
    if delta is None or alpha is None or out is None:
        raise UsageError("reconstruct requires --delta, --alpha and --out")
    if not 0 <= delta < np.inf:
        raise UsageError(f"--delta must be finite and >= 0, got {delta}")
    if not 0 < alpha < np.inf:
        raise UsageError(f"--alpha must be finite and > 0, got {alpha}")
    seed = _merged(args, config_file, "seed", int, 0)
    n, m = _grid_sizes(args, config_file)

    data = reference_exact_data(m)
    if delta > 0:
        rng = np.random.default_rng(derive_seed(seed, delta, 0))
        data = add_noise(data, delta, rng)
    result = solve_tikhonov(build_tikhonov_problem(data, n), alpha)
    diff = result.spline - exact_parameter_spline(n)
    lines = ["u,a"]
    for u, a in zip(result.spline.nodes, result.spline.node_values):
        lines.append(f"{float(u)!r},{float(a)!r}")
    Path(out).write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {out}")
    print(
        f"delta={delta:g} alpha={alpha:g} residual={result.residual:.6g} "
        f"err0={diff.l2_norm():.6g} err1={diff.h1_norm():.6g}"
    )
    return 0


def main(argv=None) -> int:
    if os.environ.get("DIFFLAW_VERBOSE"):
        logging.basicConfig(level=logging.INFO)
    parser = build_parser()
    try:
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
