"""difflaw benchmark: times the CLI end to end, and layer by layer when traced.

Run from the root of a difflaw checkout:

    python3 perfbench/run.py --workload study-apriori --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload runs in its own worker process (worker.py), which imports
difflaw from src/ and calls `difflaw.cli.main(argv)` back to back in a closed
loop, one job at a time, for --seconds.  Nothing inside src/ is timed or
edited: the clock is read around each `main` call, and with --trace 1 the
spans come from wrappers that tracer.py puts around the names each difflaw
module holds.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from three passes of --seconds/3 each: untraced (for the tracing
overhead), traced, and traced with OpenBLAS limited to one thread (the
single-threaded reference, reported as `*_1t`).  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Full results,
with machine facts, job times and spans, go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import summarise
from worker import BLAS_THREAD_VARIABLES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
RUN_DEADLINE_S = 170
# `import difflaw.cli` varies by a fifth between fresh interpreters, so setup_s
# is a median over several of them.
SETUP_INTERPRETERS = 5
ONE_THREAD = dict.fromkeys(BLAS_THREAD_VARIABLES, "1")

END_TO_END = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("err0", "L2_norm"),
    ("peak_rss_mb", "MB"),
]

CHECKS = [
    "spline_norms", "antiderivative", "forward_consistency", "zero_noise_identity",
    "operator_mapping_band", "perturbation_stability", "scale_operator",
    "tikhonov_optimality", "residual_monotonicity", "noiseless_recovery", "naive_contrast",
]
# metric prefix -> span names whose busy time per job it reports as `<prefix>.s`
BUSY = {
    "forward.add_noise": ["forward.add_noise"],
    "forward.assemble_t_matrix": ["forward.assemble_t_matrix"],
    "forward.operator_norm_ratio": ["forward.operator_norm_ratio"],
    "splines.antiderivative_weights": ["splines.antiderivative_weights"],
    "tikhonov.gradient_penalty_matrix": ["tikhonov.gradient_penalty_matrix"],
    "tikhonov.antiderivative_penalty_matrix": ["tikhonov.antiderivative_penalty_matrix"],
    "tikhonov.build_tikhonov_problem": ["tikhonov.build_tikhonov_problem"],
    "tikhonov.solve_tikhonov": ["tikhonov.solve_tikhonov"],
    "tikhonov.alpha_discrepancy": ["tikhonov.alpha_discrepancy"],
    "tikhonov.factor": ["tikhonov.factor"],
    "tikhonov.naive_reconstruction": ["tikhonov.naive_reconstruction"],
    "hilbert_scale.build_scale_operator": ["hilbert_scale.build_scale_operator"],
    "hilbert_scale.scale_norm": ["hilbert_scale.scale_norm"],
    **{f"checks.{c}": [f"checks.{c}"] for c in CHECKS},
    "study.emit": ["study.emit_csv", "study.emit_plot_data"],
    "study.fit_rate": ["study.fit_rate"],
}
SELF = ["study.run_study", "cli.main"]
CALLS = [
    "forward.add_noise", "forward.assemble_t_matrix", "splines.antiderivative_weights",
    "hilbert_scale.build_scale_operator", "hilbert_scale.scale_norm",
]
TIMES = [f"{k}.s" for k in BUSY] + [f"{k}.self_s" for k in SELF]

# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    [
        ("import.difflaw_s", "s", "lower"),
        ("import.scipy_optimize_s", "s", "lower"),
        ("trace.job_s", "s", "lower"),
        ("trace.job_s_1t", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.self_sum_frac", "ratio", "higher"),
        ("tikhonov.factorizations", "count", "lower"),
        ("tikhonov.dense_flops", "flop_computed", "lower"),
        ("tikhonov.dense_bytes", "B_computed", "lower"),
    ]
    + [(f"{k}.calls", "count", "lower") for k in CALLS]
    + [(name, "s", "lower") for name in TIMES]
    + [(f"{name}_1t", "s", "lower") for name in TIMES]
)


def child_env(root: Path, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")
    return left


IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import difflaw.cli\n"
    "print(time.perf_counter() - t0, difflaw.cli.__file__)\n"
)


def import_seconds(root: Path, deadline: float) -> float:
    """Wall time of `import difflaw.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(root), capture_output=True,
        text=True, check=True, timeout=remaining(deadline),
    )
    seconds, path = done.stdout.split()
    if (root / "src").resolve() not in Path(path).resolve().parents:
        raise RuntimeError(f"difflaw imported from {path}, not from {root / 'src'}")
    return float(seconds)


def import_profile(root: Path, deadline: float) -> dict:
    """Cumulative import time per module, from the interpreter's -X importtime report."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import difflaw.cli"], env=child_env(root),
        capture_output=True, text=True, check=True, timeout=remaining(deadline),
    )
    cumulative = {}
    for line in done.stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative


def run_worker(args, root: Path, seconds: float, deadline: float, tag: str,
               trace: bool, extra_env: dict | None = None) -> dict:
    result_path = WORK / f"{args.workload}.{tag}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds),
        "--work", str(WORK / args.workload), "--result", str(result_path),
    ]
    command += ["--trace"] * trace + ["--tiny"] * args.tiny
    subprocess.run(command, env=child_env(root, extra_env), stdout=sys.stderr, check=True,
                   timeout=remaining(deadline))
    return json.loads(result_path.read_text())


def job_times(result: dict) -> list:
    """Job wall times, with a failed job counted as +inf."""
    failed = set(result["failed_jobs"])
    return [math.inf if i in failed else t for i, t in enumerate(result["times"])]


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile with >= 10 beyond.

    With 11 samples that is the minimum.  With 10 or fewer no percentile has
    ten beyond it, and the minimum, which has the most beyond it, stands in:
    the maximum of a handful of jobs moved by a third between runs on a
    2-vCPU VM.
    """
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def layer_metrics(result: dict) -> dict:
    """Per-layer numbers per job from one traced worker's spans."""
    jobs = len(result["times"])
    totals = summarise(result["spans"])

    def total(name, field):
        return totals.get(name, {}).get(field, 0)

    metrics = {f"{k}.s": sum(total(n, "busy") for n in names) / jobs for k, names in BUSY.items()}
    metrics.update({f"{k}.self_s": total(k, "self") / jobs for k in SELF})
    metrics.update({f"{k}.calls": total(k, "calls") / jobs for k in CALLS})
    metrics["tikhonov.factorizations"] = total("tikhonov.factor", "calls") / jobs
    metrics["tikhonov.dense_flops"] = result["dense_flops"] / jobs
    metrics["tikhonov.dense_bytes"] = result["dense_bytes"] / jobs
    self_sum = sum(entry["self"] for entry in totals.values())
    metrics["trace.self_sum_frac"] = self_sum / sum(result["times"])
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; an exported source tree has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(args, root: Path) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    info = {}
    if not args.trace:
        if not Path(importlib.util.cache_from_source(root / "src" / "difflaw" / "cli.py")).exists():
            import_seconds(root, deadline)  # a fresh checkout compiles its byte code first
        setup = [import_seconds(root, deadline) for _ in range(SETUP_INTERPRETERS)]
        result = run_worker(args, root, args.seconds, deadline, "plain", trace=False)
        runs = [result]
        times = job_times(result)
        tail_value, percentile, beyond = tail(times)
        metrics = {
            "setup_s": statistics.median(setup),
            "job_s": statistics.median(times),
            "job_s_tail": tail_value,
            "err0": math.inf if result["err0"] is None else result["err0"],  # no job passed
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        info["setup_s"] = f"median of {len(setup)} interpreters"
        info["job_s"] = f"median of {len(times)} jobs"
        info["job_s_tail"] = f"p{percentile:.1f} of {len(times)} jobs, {beyond} beyond"
        info["err0"] = WORKLOADS[args.workload].err0_meaning
    else:
        import_profile(root, deadline)  # not counted: the first may compile byte code
        profiles = [import_profile(root, deadline) for _ in range(5)]
        third = args.seconds / 3
        plain = run_worker(args, root, third, deadline, "plain", trace=False)
        traced = run_worker(args, root, third, deadline, "traced", trace=True)
        single = run_worker(args, root, third, deadline, "traced_1t", trace=True, extra_env=ONE_THREAD)
        runs = [plain, traced, single]
        layers, layers_1t = layer_metrics(traced), layer_metrics(single)
        traced_job = statistics.median(job_times(traced))
        metrics = {
            "import.difflaw_s": statistics.median(p.get("difflaw", 0.0) for p in profiles),
            "import.scipy_optimize_s": statistics.median(p.get("scipy.optimize", 0.0) for p in profiles),
            "trace.job_s": traced_job,
            "trace.job_s_1t": statistics.median(job_times(single)),
            "trace.overhead_frac": traced_job / statistics.median(job_times(plain)) - 1,
            **layers,
            **{f"{name}_1t": layers_1t[name] for name in TIMES},
        }
        metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        info["jobs"] = f"plain {len(plain['times'])}, traced {len(traced['times'])}, one thread {len(single['times'])}"
        info["blas_threads_1t"] = single["facts"]["blas_threads"]

    attempted = sum(len(r["times"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    facts = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(root),
        **runs[0]["facts"],
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "info": info,
        "failures": failures,
        "job_times": [r["times"] for r in runs],
        "summary": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def report(result: dict) -> None:
    summary = result["summary"]
    print(f"perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']}")
    print("machine " + " ".join(f"{k}={json.dumps(v)}" for k, v in result["facts"].items()))
    for name, metric in summary["metrics"].items():
        note = result["info"].get(name, "")
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']:<14} {note}")
    for key in ("jobs", "blas_threads_1t"):
        if key in result["info"]:
            print(f"  {key}: {result['info'][key]}")
    print(f"  failed_frac {summary['failed']}/{summary['attempted']} jobs")
    for failure in result["failures"][:5]:
        print(f"  FAILED job {failure['job']}: {failure['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; timings meaningless")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    root = Path.cwd()
    if not (root / "src" / "difflaw" / "cli.py").is_file():
        print("perfbench: no src/difflaw/cli.py in the current directory; "
              "run from the root of a difflaw checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        result = run_workload(one, root)
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
        report(result)
        print(json.dumps(result["summary"]), flush=True)
        correct = correct and result["summary"]["correct"]
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
