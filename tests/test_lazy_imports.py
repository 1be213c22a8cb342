"""The sparse solver stack loads on the first solve, not on import.

The test process itself has scipy loaded, so each check runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisolab
from anisolab.cli import main

QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.cfg"

CLI_PROBE = """
import json, sys
import anisolab, anisolab.cli
steps = [["import", 0, "scipy.sparse" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    rc = anisolab.cli.main(argv)
    steps.append([argv[0], rc, "scipy.sparse" in sys.modules])
print(json.dumps(steps))
"""

STAND_IN_PROBE = """
import json, sys
import anisolab.solver
from anisolab import (coefficient_family, forcing_field, make_grid,
                      operator_blocks, solve_dirichlet)
from anisolab.solver import relative_residual

class StandIn:
    calls = 0

    def __getattr__(self, name):
        import scipy.sparse.linalg
        return getattr(scipy.sparse.linalg, name)

    def cg(self, *args, **kwargs):
        self.calls += 1
        import scipy.sparse.linalg
        return scipy.sparse.linalg.cg(*args, **kwargs)

loaded = "scipy.sparse" in sys.modules
stand_in = StandIn()
anisolab.solver.spla = stand_in
g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
op = operator_blocks(g, coefficient_family("variable", g)).at(0.1)
f = forcing_field("sine_product", g)
u = solve_dirichlet(op, f, method="cg")
print(json.dumps({
    "loaded_before": loaded,
    "calls": stand_in.calls,
    "kept": anisolab.solver.spla is stand_in,
    "residual": relative_residual(op.matrix, u.interior_vector(),
                                  f.interior_vector())}))
"""


def fresh_python(script: str, *args: str) -> object:
    """Run ``script`` in a new interpreter that imports this anisolab; return
    the JSON its last stdout line holds."""
    src = str(Path(anisolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def saved_sweep(tmp_path_factory):
    """A 16^2 quickstart sweep saved with its fields."""
    root = tmp_path_factory.mktemp("quick16")
    cfg = root / "quick16.cfg"
    cfg.write_text(QUICKSTART.read_text().replace("cells = 32, 32",
                                                  "cells = 16, 16"))
    out = root / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return str(cfg), out


def test_post_processing_never_loads_sparse(saved_sweep, tmp_path):
    cfg, out = saved_sweep
    fields = out / "fields"
    steps = fresh_python(CLI_PROBE, json.dumps([
        ["fourier-check", "--config", cfg, "--out", str(tmp_path)],
        ["metric", "--config", cfg, "--out", str(tmp_path),
         "--field", str(fields / "u_eps_003.field"),
         "--field-b", str(fields / "u_limit.field")],
        ["translation", "--config", cfg, "--out", str(out)],
    ]))
    assert steps == [["import", 0, False], ["fourier-check", 0, False],
                     ["metric", 0, False], ["translation", 0, False]]


def test_sweep_loads_sparse(saved_sweep, tmp_path):
    cfg, _ = saved_sweep
    steps = fresh_python(CLI_PROBE, json.dumps(
        [["sweep", "--config", cfg, "--out", str(tmp_path)]]))
    assert steps == [["import", 0, False], ["sweep", 0, True]]


def test_stand_in_set_before_first_solve_runs_cg():
    got = fresh_python(STAND_IN_PROBE)
    assert got["loaded_before"] is False
    assert got["kept"] is True
    assert got["calls"] >= 1
    assert got["residual"] <= 1e-10
