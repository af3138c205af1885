"""Workload definitions: the CLI arguments of each job and its output check.

Every job is one `difflaw.cli.main(argv)` call.  A workload turns the
benchmark seed and the job index into argv, and checks the job's exit code,
captured output and written files.  A check returns the job's err0 (the L2
error of the recovered a(u) against the exact 1 + u^2) or raises
CheckFailed with the reason.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Acceptance-table medians of err0 under alpha = delta^2 (n=200, m=500).
TABLE_ERR0 = {1e-2: 0.036672, 1e-3: 0.008765, 1e-4: 0.002147}

# reconstruct-fine bands, set from the values at seed 0 of the parent commit:
# err0 7.24e-3 and residual 1.146e-3 at delta 1e-3.
RECONSTRUCT_ERR0 = 7.24e-3
RECONSTRUCT_RESIDUAL_RATIO = 1.146
RECONSTRUCT_DELTA = 1e-3

# reconstruct-fine cycles through this many noise draws, so its err0 is a
# median over draws rather than one draw's luck.
RECONSTRUCT_DRAWS = 5

VERIFY_CHECKS = 11


class CheckFailed(Exception):
    """A job's output does not meet its workload's check."""


@dataclass
class JobOutput:
    exit_code: int
    stdout: str
    stderr: str
    warnings: list
    out_dir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, int, Path, dict], list]  # (seed, job index, out dir, sizes)
    draws: int                                # distinct inputs a run cycles through
    output: str | None                        # file that repeats of an input must reproduce
    check: Callable[[JobOutput, dict], float]  # (output, sizes) -> err0
    err0_meaning: str
    full: dict                                # sizes of the benchmark
    tiny: dict                                # sizes of the harness self-test


def cli_seed(seed: int, job: int, draws: int) -> int:
    return (seed * draws + job % draws) % 2**32


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _common(out: JobOutput) -> None:
    _require(out.exit_code == 0, f"exit code {out.exit_code}: {out.stderr.strip()[-300:]}")
    _require(not out.warnings, f"warnings: {out.warnings[:3]}")


def _read_records(path: Path) -> list:
    lines = path.read_text().splitlines()
    _require(lines[0] == "delta,alpha,trial,seed,err0,err1,residual", "records.csv header")
    rows = []
    for line in lines[1:]:
        delta, alpha, trial, seed, err0, err1, residual = line.split(",")
        rows.append({"delta": float(delta), "err0": float(err0), "residual": float(residual)})
    return rows


def _study_argv(rule: str) -> Callable:
    def argv(seed: int, job: int, out_dir: Path, sizes: dict) -> list:
        return [
            "study", "--alpha-rule", rule, "--deltas", sizes["deltas"],
            "--trials", str(sizes["trials"]), "--n", "200", "--m", "500",
            "--seed", str(cli_seed(seed, job, 1)), "--out", str(out_dir),
        ]
    return argv


def _study_rows(out: JobOutput, sizes: dict) -> list:
    _common(out)
    rows = _read_records(out.out_dir / "records.csv")
    cells = len(sizes["deltas"].split(",")) * sizes["trials"]
    _require(len(rows) == cells, f"{len(rows)} of {cells} cells in records.csv")
    return rows


def _delta_medians(rows: list) -> dict:
    by_delta = {}
    for r in rows:
        by_delta.setdefault(r["delta"], []).append(r["err0"])
    return {delta: statistics.median(cell) for delta, cell in by_delta.items()}


def study_err0(medians: dict) -> float:
    """Geometric mean over noise levels of the median err0 across trials.

    The plain median over all cells falls in the gap between two noise levels
    (err0 scales like delta^(1/2)) and moves by an eighth between seeds; the
    per-level medians, as in the acceptance table, move by a few percent.
    """
    return math.exp(sum(math.log(m) for m in medians.values()) / len(medians))


def check_study_apriori(out: JobOutput, sizes: dict) -> float:
    rows = _study_rows(out, sizes)
    medians = _delta_medians(rows)
    for delta, reference in TABLE_ERR0.items():
        ratio = medians[delta] / reference
        _require(1 / 3 <= ratio <= 3, f"median err0/table at delta={delta:g} is {ratio:.3f}")
    return study_err0(medians)


def check_study_discrepancy(out: JobOutput, sizes: dict) -> float:
    rows = _study_rows(out, sizes)
    tau = 1.5
    for r in rows:
        lo, hi = tau * r["delta"], 1.5 * tau * r["delta"]
        _require(
            lo <= r["residual"] <= hi,
            f"residual {r['residual']:.4g} outside [{lo:.4g}, {hi:.4g}] at delta={r['delta']:g}",
        )
    return study_err0(_delta_medians(rows))


def _reconstruct_argv(seed: int, job: int, out_dir: Path, sizes: dict) -> list:
    return [
        "reconstruct", "--delta", repr(RECONSTRUCT_DELTA), "--alpha", "1e-6",
        "--n", str(sizes["n"]), "--m", str(sizes["m"]),
        "--seed", str(cli_seed(seed, job, RECONSTRUCT_DRAWS)),
        "--out", str(out_dir / "spline.csv"),
    ]


def _spline_l2_error(path: Path, n: int) -> float:
    """Exact L2 error of the written piecewise-linear a(u) against 1 + u^2."""
    lines = path.read_text().splitlines()
    _require(lines[0] == "u,a" and len(lines) == n + 2, f"spline.csv has {len(lines)} lines")
    pairs = [tuple(map(float, line.split(","))) for line in lines[1:]]
    # the error e = a_h - (1 + u^2) is linear minus quadratic on each element;
    # Simpson's rule is exact for its square only up to cubic, so use 3-point
    # Gauss (exact through degree 5) per element.
    gauss = ((-math.sqrt(3 / 5), 5 / 9), (0.0, 8 / 9), (math.sqrt(3 / 5), 5 / 9))
    total = 0.0
    for (u0, a0), (u1, a1) in zip(pairs, pairs[1:]):
        half = (u1 - u0) / 2
        for x, w in gauss:
            t = (x + 1) / 2
            u = u0 + t * (u1 - u0)
            e = (1 - t) * a0 + t * a1 - (1 + u * u)
            total += w * half * e * e
    return math.sqrt(total)


def check_reconstruct(out: JobOutput, sizes: dict) -> float:
    _common(out)
    summary = dict(
        field.split("=", 1) for field in out.stdout.splitlines()[-1].split() if "=" in field
    )
    residual_ratio = float(summary["residual"]) / RECONSTRUCT_DELTA
    err0 = _spline_l2_error(out.out_dir / "spline.csv", sizes["n"])
    # the CLI's err0 is the error of its nodal spline against the sampled exact
    # coefficient; it agrees with the exact-curve error to well under 1 %
    _require(
        abs(err0 - float(summary["err0"])) <= 0.01 * err0,
        f"printed err0 {summary['err0']} vs {err0:.6g} from spline.csv",
    )
    _require(
        RECONSTRUCT_ERR0 / 3 <= err0 <= 3 * RECONSTRUCT_ERR0,
        f"err0 {err0:.4g} outside [1/3, 3] x {RECONSTRUCT_ERR0}",
    )
    lo, hi = RECONSTRUCT_RESIDUAL_RATIO / 1.25, RECONSTRUCT_RESIDUAL_RATIO * 1.25
    _require(lo <= residual_ratio <= hi, f"residual/delta {residual_ratio:.4g} outside [{lo:.3g}, {hi:.3g}]")
    return err0


def check_verify(out: JobOutput, sizes: dict) -> float:
    _common(out)
    lines = out.stdout.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    _require(
        len(passed) == VERIFY_CHECKS and len(lines) == VERIFY_CHECKS,
        f"{len(passed)} of {VERIFY_CHECKS} checks passed: "
        + "; ".join(line for line in lines if not line.startswith("PASS "))[:300],
    )
    # the noiseless-recovery check is verify's one reconstruction against 1 + u^2
    noiseless = [line for line in passed if line.startswith("PASS noiseless recovery:")]
    _require(len(noiseless) == 1, "no noiseless recovery line")
    return float(noiseless[0].rsplit(" ", 1)[1])


STUDY_ERR0 = "geometric mean over deltas of the median over trials"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-apriori", _study_argv("quadratic"), 1, "records.csv", check_study_apriori,
            STUDY_ERR0,
            full={"deltas": "1e-2,1e-3,1e-4,1e-5", "trials": 10},
            tiny={"deltas": "1e-2,1e-3,1e-4", "trials": 2},
        ),
        Workload(
            "study-discrepancy", _study_argv("discrepancy:1.5"), 1, "records.csv",
            check_study_discrepancy, STUDY_ERR0,
            full={"deltas": "1e-2,1e-3,1e-4,1e-5", "trials": 10},
            tiny={"deltas": "1e-2,1e-3", "trials": 2},
        ),
        Workload(
            "reconstruct-fine", _reconstruct_argv, RECONSTRUCT_DRAWS, "spline.csv",
            check_reconstruct, f"median over {RECONSTRUCT_DRAWS} noise draws",
            full={"n": 1600, "m": 4000},
            tiny={"n": 200, "m": 500},
        ),
        Workload(
            "verify", lambda seed, job, out_dir, sizes: ["verify"], 1, None, check_verify,
            "noiseless-recovery check", full={}, tiny={},
        ),
    )
}
