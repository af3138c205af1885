"""The benchmark's output checks, run on the CLI at the benchmark's self-test sizes.

Each workload in `perfbench/workloads.py` turns a seed and a job index into
the argv of one `difflaw.cli.main` call and checks that job's output.  Here
every draw of every workload runs in-process, untimed, and must pass its
workload's check, so a change the benchmark would count as a failed job
fails a test first.  The module is loaded from its file and not changed.
"""

import io
import sys
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from difflaw.cli import main

# executed from its source, so nothing (not even bytecode) is written under perfbench/;
# its dataclasses look their module up in sys.modules
_SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
workloads = sys.modules.setdefault("perfbench_workloads", types.ModuleType("perfbench_workloads"))
exec(compile(_SOURCE.read_text(), str(_SOURCE), "exec"), workloads.__dict__)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_output_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    for job in range(workload.draws):
        if workload.output:
            (tmp_path / workload.output).unlink(missing_ok=True)
        argv = workload.argv(0, job, tmp_path, workload.tiny)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
        output = workloads.JobOutput(
            code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], tmp_path
        )
        err0 = workload.check(output, workload.tiny)
        assert 0 < err0 < 1, (name, job, err0)
