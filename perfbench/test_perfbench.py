"""Tests of the benchmark itself, on reduced sizes of each workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402

# counts that depend only on the inputs, so they must repeat exactly
EXACT_COUNTS = ("fd_ops.nnz", "fd_ops.assemble_calls", "solver.lu_fill",
                "solver.factor_calls", "solver.cg_iters", "limit.slices",
                "semilinear.picard_iters", "semilinear.limit_iters",
                "fieldio.read_bytes", "fieldio.write_bytes", "study.rows",
                "norms.calls", "spectral.checks", "spectral.fft_points")

# counts each workload must drive above zero, so a span that stops
# firing is caught
EXERCISED = {
    "sweep-2d": ("fd_ops.nnz", "solver.lu_fill", "limit.slices",
                 "fieldio.write_bytes", "study.rows"),
    "semilinear-2d": ("fd_ops.nnz", "solver.lu_fill", "limit.slices",
                      "semilinear.picard_iters", "semilinear.limit_iters",
                      "fieldio.write_bytes"),
    "sweep-3d-cg": ("fd_ops.nnz", "solver.lu_fill", "solver.cg_iters",
                    "limit.slices", "fieldio.write_bytes"),
    "diagnostics": ("fieldio.read_bytes", "norms.calls", "spectral.checks",
                    "spectral.fft_points"),
}


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench-out" / "test"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_counts_repeat_exactly(workload, workdir):
    runs = [bench.measure(ROOT, workload, 7, 0.0, True, workdir / str(i),
                          reduced=True)
            for i in range(2)]
    for run in runs:
        assert run["failed"] == 0, run["errors"]
        assert run["attempted"] == 2
    first, second = (run["metrics"] for run in runs)
    assert {k: first[k] for k in EXACT_COUNTS} == \
        {k: second[k] for k in EXACT_COUNTS}
    for key in EXERCISED[workload]:
        assert first[key] > 0, key
    # linear residuals are gated by the output checks; Picard ones are not
    assert first["solver.residual_max"] <= 1e-10
    assert first["limit.residual_max"] <= 1e-10


def test_output_check_catches_a_wrong_solution(workdir, monkeypatch):
    real = bench.anisolab.study.solve_dirichlet

    def sloppy(op, f, *args, **kwargs):
        u = real(op, f, *args, **kwargs)
        u.values[tuple(n // 2 for n in u.grid.cells)] += 1e-3
        return u

    monkeypatch.setattr(bench.anisolab.study, "solve_dirichlet", sloppy)
    run = bench.measure(ROOT, "sweep-2d", 0, 0.0, False, workdir,
                        reduced=True)
    assert run["failed"] == run["attempted"] == 1
    assert any("residual" in e for e in run["errors"])


def test_failing_studies_still_print_a_result(workdir, monkeypatch, capsys):
    def broken(config):
        raise RuntimeError("broken sweep")

    # a fresh checkout has no output directory yet
    workdir.mkdir(parents=True)
    monkeypatch.setattr(run, "OUT_DIR", workdir / "out")
    monkeypatch.setattr(bench.anisolab.study, "run_sweep", broken)
    assert run.main(["--workload", "sweep-2d", "--seed", "0",
                     "--seconds", "0", "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1
    assert set(line["metrics"]) == {"study_s", "setup_s", "peak_rss_mb"}


def test_reference_mismatch_is_reported():
    errors = []
    bench._compare({"rows": [[1.0, 2.0]]}, {"rows": [[1.0, 2.0000001]]},
                   "r", errors)
    assert errors == []
    bench._compare({"rows": [[1.0, 2.0]]}, {"rows": [[1.0, 2.001]]},
                   "r", errors)
    assert len(errors) == 1


def test_refuses_a_directory_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
