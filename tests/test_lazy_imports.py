"""The sparse stack loads for an LU only: not on import, not for CG.

The operators are stencils with a numpy matvec, so assembly and every CG
solve run without ``scipy.sparse``; only a matrix that is not symmetric
lays out a CSR and factors it.  The test process itself has scipy
loaded, so each check runs in a fresh interpreter.
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
def loaded():
    return [name in sys.modules
            for name in ("scipy.sparse", "scipy.sparse.linalg")]

steps = [["import", 0, *loaded()]]
for argv in json.loads(sys.argv[1]):
    rc = anisolab.cli.main(argv)
    steps.append([argv[0], rc, *loaded()])
print(json.dumps(steps))
"""

STAND_IN_PROBE = """
import json, sys
import numpy as np
import anisolab.solver
from anisolab import (coefficient_family, forcing_field, make_grid,
                      operator_blocks, solve_dirichlet)

real = anisolab.solver.pcg
calls = []

def stand_in(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)

loaded = "scipy.sparse" in sys.modules
anisolab.solver.pcg = stand_in
g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
op = operator_blocks(g, coefficient_family("variable", g)).at(0.1)
f = forcing_field("sine_product", g)
u = solve_dirichlet(op, f, method="cg")
sparse_after_solve = "scipy.sparse" in sys.modules
linalg_after_solve = "scipy.sparse.linalg" in sys.modules
print(json.dumps({
    "loaded_before": loaded,
    "sparse_after_solve": sparse_after_solve,
    "calls": len(calls),
    "kept": anisolab.solver.pcg is stand_in,
    "linalg_after_solve": linalg_after_solve,
    "spla": anisolab.solver.spla.__name__,
    "residual": float(np.linalg.norm(op.matrix @ u.interior_vector()
                                     - f.interior_vector())
                      / np.linalg.norm(f.interior_vector()))}))
"""

SLICES_PROBE = """
import json, sys
import numpy as np
from anisolab import coefficient_family, forcing_field, make_grid
from anisolab.limit import iter_slice_systems

def relative_residual(matrix, x, b):
    # as the tests' conftest.relative_residual: absolute where b = 0
    res = float(np.linalg.norm(matrix @ x - b))
    scale = float(np.linalg.norm(b))
    return res / scale if scale > 0 else res

g = make_grid([(0, 1)] * 3, (6, 5, 4), q=1)
res = [relative_residual(matrix, 1.0 + rhs, rhs) for _, matrix, rhs, _ in
       iter_slice_systems(g, coefficient_family("variable", g),
                          forcing_field("sine_product", g))]
print(json.dumps([len(res), all(0 < r < float("inf") for r in res)]
                 + [name in sys.modules
                    for name in ("scipy.sparse", "scipy.sparse.linalg")]))
"""

LU_PROBE = """
import json, sys
import numpy as np
from anisolab import (CoefficientField, forcing_field, make_grid,
                      operator_blocks, solve_dirichlet, solve_limit)
from anisolab.solver import resolve_method

g = make_grid([(0, 1)] * 3, (6, 6, 6), q=1)
# a skew part that varies in space, X2 block included: neither the rows
# nor the limit assemble symmetric
x, y, z = g.meshgrid()
entries = np.zeros((3, 3) + g.node_shape)
for d, a in enumerate((2.0, 1.5, 1.2)):
    entries[d, d] = a
entries[1, 2] = 0.4 * (1.0 + (x + y + z) / 2)
entries[2, 1] = 0.1
blocks = operator_blocks(g, CoefficientField(g, entries, lam=0.5))
row = blocks.at(0.5)
f = forcing_field("sine_product", g)
steps = [[resolve_method(op, "auto") for op in (row, blocks.limit)],
         "scipy.sparse.linalg" in sys.modules]
solve_dirichlet(row, f)
steps.append("scipy.sparse.linalg" in sys.modules)
solve_limit(blocks, f)
print(json.dumps(steps + ["scipy.sparse.linalg" in sys.modules]))
"""

MODULES_PROBE = """
import json, sys
import anisolab.cli
rc = anisolab.cli.main(json.loads(sys.argv[1]))
print(json.dumps([rc] + [name in sys.modules for name in
                         ("scipy.sparse", "scipy.sparse.linalg",
                          "scipy.linalg")]))
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
    assert steps == [["import", 0, False, False],
                     ["fourier-check", 0, False, False],
                     ["metric", 0, False, False],
                     ["translation", 0, False, False]]


def test_auto_commands_never_load_sparse(saved_sweep, tmp_path):
    # the quickstart table assembles symmetric, so under ``auto`` the
    # sweep's rows, limit and floor probe, and the solve and limit
    # commands, all run by CG on stencils
    cfg, _ = saved_sweep
    steps = fresh_python(CLI_PROBE, json.dumps(
        [[command, "--config", cfg, "--out", str(tmp_path / command)]
         for command in ("sweep", "solve", "limit")]))
    assert steps == [["import", 0, False, False],
                     ["sweep", 0, False, False],
                     ["solve", 0, False, False],
                     ["limit", 0, False, False]]


def test_slice_residuals_never_load_sparse():
    # the slice systems are stencils, and a residual is one matvec
    assert fresh_python(SLICES_PROBE) == [7, True, False, False]


def test_stand_in_set_before_first_solve_runs_cg():
    # CG runs through the module's ``pcg``, looked up at call time, and
    # never loads scipy.sparse; ``spla`` still resolves to
    # scipy.sparse.linalg
    got = fresh_python(STAND_IN_PROBE)
    assert got["loaded_before"] is False
    assert got["kept"] is True
    assert got["calls"] >= 1
    assert got["sparse_after_solve"] is False
    assert got["linalg_after_solve"] is False
    assert got["spla"] == "scipy.sparse.linalg"
    assert got["residual"] <= 1e-10


def test_symmetric_sweep_never_loads_the_lu(saved_sweep, tmp_path):
    # the quickstart table assembles symmetric, so under ``auto`` nothing
    # loads the sparse stack; a row and a limit whose matrices are not
    # symmetric are laid out as CSR and factored, which loads
    # scipy.sparse.linalg
    cfg, _ = saved_sweep
    # a variable table builds its preconditioner's pencils, by numpy's
    # eigh: no scipy.linalg either
    variable = tmp_path / "variable.cfg"
    text = Path(cfg).read_text()
    variable.write_text(text.replace(
        "family = constant\nmatrix = 2.0 0.5 ; 0.5 1.0", "family = variable"))
    assert variable.read_text() != text
    got = [fresh_python(MODULES_PROBE, json.dumps(
               ["sweep", "--config", path, "--out", str(tmp_path / name)]))
           for path, name in ((cfg, "auto"), (str(variable), "variable"))]
    assert got[0] == [0, False, False, False]
    assert got[1] == [0, False, False, False]
    assert fresh_python(LU_PROBE) == [["direct", "direct"], False, True,
                                      True]
