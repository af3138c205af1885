"""One workload's job loop, run in its own process by run.py.

Imports difflaw from the checkout's src/, then calls `difflaw.cli.main(argv)`
back to back until --seconds have passed and every distinct input of the
workload has run once.  Each call is timed on its own; its output is checked
after the clock stops.  With --trace the calls are made through the layer
wrappers of tracer.py.  The result, with the spans, goes to --result as JSON.

    python3 perfbench/worker.py --workload verify --seed 0 --seconds 5 \
        --work .perfbench_work/verify --result .perfbench_work/verify.json
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, JobOutput

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        threads = _openblas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
    }


def run_jobs(workload, seed: int, seconds: float, tiny: bool, work: Path, main, tracer=None) -> dict:
    sizes = workload.tiny if tiny else workload.full
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    times, failures, err0, first_output = [], [], {}, {}
    start = time.perf_counter()
    job = 0
    # an untraced run sees every distinct input at least once, for its err0
    min_jobs = 1 if tracer else workload.draws
    while job < min_jobs or time.perf_counter() - start < seconds:
        if workload.output:
            (out_dir / workload.output).unlink(missing_ok=True)
        argv = workload.argv(seed, job, out_dir, sizes)
        if tracer:
            tracer.job = job
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(stdout), redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                except Exception:  # a crashing job is a failed job; the run goes on
                    code = "exception"
                    print(traceback.format_exc(), file=sys.stderr)
                elapsed = time.perf_counter() - t0
        times.append(elapsed)
        output = JobOutput(code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], out_dir)
        draw = job % workload.draws
        try:
            value = workload.check(output, sizes)
            if workload.output:
                written = (out_dir / workload.output).read_bytes()
                if first_output.setdefault(draw, written) != written:
                    raise CheckFailed(f"{workload.output} differs from the first job with these inputs")
            err0.setdefault(draw, value)
        except Exception as exc:  # any malformed output is a failed check
            failures.append({"job": job, "reason": f"{type(exc).__name__}: {exc}"})
        job += 1
    return {
        "times": times,
        "failed_jobs": [f["job"] for f in failures],
        "failures": failures,
        "err0": statistics.median(err0.values()) if err0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import difflaw.cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(difflaw.cli.__file__).resolve().parents:
        raise SystemExit(f"difflaw imported from {difflaw.cli.__file__}, not from {src}")

    main_fn = difflaw.cli.main
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", difflaw.cli.main)
    result = run_jobs(
        WORKLOADS[args.workload], args.seed, args.seconds, args.tiny, args.work, main_fn, tracer
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["facts"] = machine_facts()
    if tracer:
        result["spans"] = tracer.spans
        result["dense_flops"] = tracer.flops
        result["dense_bytes"] = tracer.bytes
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
