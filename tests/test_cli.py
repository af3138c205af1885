import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import difflaw
from difflaw.checks import ALL_CHECKS
from difflaw.cli import main
from difflaw.study import read_records_csv


def _refs_rates(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return {series: float(rate) for series, rate, _, _ in rows}


def test_study_writes_outputs(tmp_path, capsys):
    args = ["study", "--deltas", "1e-2,1e-3", "--trials", "2", "--seed", "3"]
    args += ["--n", "100", "--m", "200"]
    out = tmp_path / "run"
    assert main(args + ["--alpha-rule", "quadratic", "--out", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    assert len(records) == 4
    assert (out / "study.series.csv").exists()
    assert _refs_rates(out / "study.refs.csv")["err0"] == 0.5
    captured = capsys.readouterr().out
    assert "median err0" in captured
    # the reference lines follow the rule the study ran, spaces and all
    spaced = tmp_path / "spaced"
    assert main(args + ["--alpha-rule", "eight-fifths :0.1", "--out", str(spaced)]) == 0
    assert _refs_rates(spaced / "study.refs.csv")["err0"] == 0.6
    capsys.readouterr()


def test_study_deterministic_bytes(tmp_path):
    for rule in ("quadratic", "discrepancy:1.5"):
        args = ["study", "--deltas", "1e-2,1e-3", "--trials", "2", "--seed", "1"]
        args += ["--alpha-rule", rule]
        assert main(args + ["--out", str(tmp_path / rule / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / rule / "b")]) == 0
        assert (tmp_path / rule / "a" / "records.csv").read_bytes() == (
            tmp_path / rule / "b" / "records.csv"
        ).read_bytes()


def test_config_file_and_cli_override(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# reference sweep\n"
        "alpha-rule=quadratic\n"
        "deltas=1e-2,1e-3\n"
        "trials=3\n"
        "seed=9\n"
        "n=100\n"
        "m=200\n"
        f"out={tmp_path / 'from_config'}\n"
    )
    assert main(["study", "--config", str(cfg)]) == 0
    assert len(read_records_csv(tmp_path / "from_config" / "records.csv")) == 6
    # CLI flag wins over the config value
    assert (
        main(["study", "--config", str(cfg), "--trials", "1", "--out", str(tmp_path / "cli")])
        == 0
    )
    assert len(read_records_csv(tmp_path / "cli" / "records.csv")) == 2
    # a key that is not a value-taking flag of the subcommand is an error
    for typo in ("trails=3", "include-inverse-crime=yes"):
        cfg.write_text(f"{typo}\nout={tmp_path / 'typo'}\n")
        assert main(["study", "--config", str(cfg)]) == 1
        assert typo.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()
    # a bad value names its flag
    cfg.write_text(f"trials=three\nout={tmp_path / 'typo'}\n")
    assert main(["study", "--config", str(cfg)]) == 1
    assert "--trials" in capsys.readouterr().err


def test_validation_errors_exit_1(tmp_path, capsys):
    assert main(["study", "--deltas", "1e-3,1e-2", "--out", str(tmp_path)]) == 1
    assert main(["study", "--alpha-rule", "cubic", "--out", str(tmp_path)]) == 1
    assert main(["study", "--deltas", "1e-2"]) == 1  # missing --out
    assert main(["reconstruct", "--delta", "1e-2"]) == 1  # missing alpha/out
    assert main(["reconstruct", "--delta", "1e-2", "--alpha", "-1", "--out", "x"]) == 1
    assert main(["study", "--deltas", "nan", "--out", str(tmp_path)]) == 1
    assert main(["study", "--deltas", "inf,1e-2", "--out", str(tmp_path)]) == 1
    # a bad rule parameter fails before any cell is solved
    capsys.readouterr()
    for rule in ["eight-fifths:-1", "eight-fifths:0", "eight-fifths:nan", "discrepancy:nan",
                 "discrepancy:inf", "eight-fifths:abc", "discrepancy:x"]:
        assert main(["study", "--alpha-rule", rule, "--out", str(tmp_path / "r")]) == 1
        assert f"alpha rule {rule!r}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    out = str(tmp_path / "x.csv")
    valid = ["reconstruct", "--delta", "1e-2", "--alpha", "1e-4", "--out", out]
    for flag, value in [
        ("--delta", "inf"), ("--delta", "nan"), ("--n", "-3"), ("--n", "0"), ("--m", "1")
    ]:
        assert main(valid + [flag, value]) == 1
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    study = ["study", "--trials", "1", "--out", str(tmp_path / "study")]
    for flag, value in [("--n", "0"), ("--m", "1")]:
        assert main(study + [flag, value]) == 1
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "study").exists()
    capsys.readouterr()


def test_unknown_flag_exits_1(capsys):
    assert main(["study", "--bogus"]) == 1
    capsys.readouterr()


def test_numerical_failure_exits_2(tmp_path, capsys):
    with pytest.warns(UserWarning):
        code = main(
            [
                "study",
                "--alpha-rule",
                "discrepancy",
                "--deltas",
                "1e-12",
                "--trials",
                "1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
    assert code == 2
    capsys.readouterr()


def test_study_reports_failed_cells(tmp_path, capsys):
    # the cells at delta = 1e-12 fail; the study still exits 0 with the
    # others' records, as it wrote them before, and says so on stdout
    args = ["study", "--alpha-rule", "discrepancy", "--trials", "2"]
    with pytest.warns(UserWarning, match="delta=1e-12"):
        code = main(args + ["--deltas", "1e-2,1e-3,1e-12", "--out", str(tmp_path / "x")])
    assert code == 0
    assert "2 of 6 cells failed" in capsys.readouterr().out
    assert main(args + ["--deltas", "1e-2,1e-3", "--out", str(tmp_path / "y")]) == 0
    assert "cells failed" not in capsys.readouterr().out
    assert (tmp_path / "x" / "records.csv").read_bytes() == (
        tmp_path / "y" / "records.csv"
    ).read_bytes()


def test_io_failure_exits_3(tmp_path, capsys, monkeypatch):
    # an output directory that cannot be made fails before any cell is solved
    def no_study(config):
        raise AssertionError("run_study called before --out was created")

    monkeypatch.setattr(difflaw.cli, "run_study", no_study)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    code = main(
        [
            "study",
            "--deltas",
            "1e-2,1e-3",
            "--trials",
            "1",
            "--out",
            str(blocker / "sub"),
        ]
    )
    assert code == 3
    capsys.readouterr()


def test_reconstruct_writes_spline(tmp_path, capsys):
    out = tmp_path / "spline.csv"
    code = main(
        [
            "reconstruct",
            "--delta",
            "1e-2",
            "--alpha",
            "1e-4",
            "--seed",
            "0",
            "--n",
            "100",
            "--m",
            "200",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,a"
    assert len(lines) == 102
    u, a = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    assert u[0] == pytest.approx(-1 / np.sqrt(2))
    assert np.all(np.diff(u) > 0)
    # recovered coefficient is in the right ballpark of 1 + u^2
    assert np.max(np.abs(a - (1 + u**2))) < 0.5
    assert "residual=" in capsys.readouterr().out


def test_reconstruct_small_grid(tmp_path, capsys):
    out = tmp_path / "coarse.csv"
    code = main(
        ["reconstruct", "--delta", "1e-2", "--alpha", "1e-4", "--n", "5", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 7
    capsys.readouterr()
    # a grid far beyond what a dense normal matrix could hold
    fine = ["reconstruct", "--delta", "1e-3", "--alpha", "1e-6", "--n", "20000"]
    assert main(fine + ["--m", "40000", "--out", str(tmp_path / "fine.csv")]) == 0
    summary = dict(
        field.split("=") for field in capsys.readouterr().out.split() if "=" in field
    )
    assert 7.24e-3 / 3 <= float(summary["err0"]) <= 3 * 7.24e-3
    assert 1.146 / 1.25 <= float(summary["residual"]) / 1e-3 <= 1.146 * 1.25


def test_reconstruct_noise_free(tmp_path, capsys):
    out = tmp_path / "clean.csv"
    code = main(
        ["reconstruct", "--delta", "0", "--alpha", "1e-12", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    err0 = float(captured.split("err0=")[1].split()[0])
    assert err0 <= 1e-3


def test_verify_passes(capsys, recwarn):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(ALL_CHECKS)
    assert all(line.startswith("PASS ") for line in lines), lines
    assert not recwarn.list, [str(w.message) for w in recwarn]


def _run_python(args, cwd=None):
    """Run a Python subprocess that imports difflaw from this source tree."""
    src = str(Path(difflaw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_loads_no_scipy(tmp_path):
    # LAPACK comes from numpy's own OpenBLAS; scipy is not a dependency
    probe = (
        "import sys, difflaw.cli; "
        "main = difflaw.cli.main; "
        "assert main(['reconstruct', '--delta', '1e-3', '--alpha', '1e-6', "
        "'--n', '50', '--m', '100', '--out', 'spline.csv']) == 0; "
        "assert main(['study', '--deltas', '1e-2,1e-3', '--trials', '2', "
        "'--n', '50', '--m', '100', '--out', 'run']) == 0; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = _run_python(["-c", probe], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_checks_fail_under_optimize():
    # `python -O` strips assert statements; a failing property must still fail
    probe = (
        "import difflaw.checks as c; c.operator_norm_ratio = lambda *a: 2.0; "
        "raise SystemExit(0 if c.run_all_checks() else 1)"
    )
    done = _run_python(["-O", "-c", probe])
    assert done.returncode == 1
    assert "FAIL operator mapping band: ratio range [2.0000, 2.0000]" in done.stdout


def test_readme_python_blocks_run(tmp_path):
    # the quickstart's blocks in order, as one script: the second uses the first's data
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) == 2
    done = _run_python(["-c", "".join(blocks)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory: the convergence-study demo writes ./study_output/
    done = _run_python([str(demo)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
