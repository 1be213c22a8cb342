import csv
import importlib.util
import json
import logging
import struct
from pathlib import Path

import numpy as np
import pytest

from anisolab import (ScalarField, StudyConfig, check_laplacian_bounds,
                      load_field, make_grid, operator_blocks,
                      random_zero_mean_forcing, save_field, solve_limit,
                      coefficient_family, forcing_field)
from anisolab.cli import main
from anisolab.limit import iter_slice_systems

from conftest import relative_residual
from test_fd_ops import varying_asymmetric
from test_limit import NONSYMMETRIC

BASE_CFG = """
[grid]
cells = 12, 12

[forcing]
family = sine_product

[sweep]
epsilons = 1.0 0.5 0.25
nested = 3
"""


def write_cfg(tmp_path, text=BASE_CFG, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_writes_field_and_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--out", str(out),
                   "--epsilon", "0.5"])
        assert rc == 0
        assert "solved epsilon=0.5" in capsys.readouterr().out
        meta = json.loads((out / "solve.json").read_text())
        assert meta["epsilon"] == 0.5
        assert meta["residual"] < 1e-10
        u = load_field(out / "solution.field")
        assert u.grid.cells == (12, 12)
        assert np.all(u.values[0] == 0.0)

    @pytest.mark.parametrize("family, ran", [
        ("variable", "cg"),
        # a constant table assembles symmetric whatever its symmetry
        ("constant\nmatrix = 2.0 0.3 ; 0.0 1.0", "cg"),
    ])
    def test_report_names_the_method_that_ran(self, tmp_path, family, ran):
        # the matrix's symmetry picks the route; the report records it
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[coefficients]\n"
                        f"family = {family}\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "solve.json").read_text())["method"] == ran

    def test_nonsymmetric_table_runs_direct(self, tmp_path, monkeypatch):
        # no config family builds a table whose matrix is not symmetric;
        # one with a varying skew part is factored, and the record says so
        monkeypatch.setattr(
            StudyConfig, "build_coefficients",
            lambda self, grid: varying_asymmetric(
                grid, [[2.0, 0.5], [0.3, 1.0]], lam=0.5))
        out = tmp_path / "out"
        assert main(["solve", "--config", write_cfg(tmp_path), "--out",
                     str(out)]) == 0
        meta = json.loads((out / "solve.json").read_text())
        assert meta["method"] == "direct" and meta["residual"] <= 1e-10

    def test_default_epsilon_is_first_configured(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "solve.json").read_text())
        assert meta["epsilon"] == 1.0

    @pytest.mark.parametrize("family", ["identity", "variable"])
    def test_field_matches_sweep_row(self, tmp_path, family):
        # one operator path: solve at a configured epsilon writes the
        # sweep's field for that row, bit for bit
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[coefficients]\n"
                        f"family = {family}\n")
        sweep_out, solve_out = tmp_path / "sweep", tmp_path / "solve"
        assert main(["sweep", "--config", cfg, "--out",
                     str(sweep_out)]) == 0
        for i, eps in enumerate(("1.0", "0.5", "0.25")):
            assert main(["solve", "--config", cfg, "--out", str(solve_out),
                         "--epsilon", eps]) == 0
            assert (solve_out / "solution.field").read_bytes() == \
                (sweep_out / "fields" / f"u_eps_{i:03d}.field").read_bytes()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestInputErrors:
    """Bad input ends in one ``error:`` line and exit 2, no traceback."""

    @pytest.mark.parametrize("old, new, key", [
        ("cells = 12, 12", "cells = 16, x", "[grid] cells"),
        ("cells = 12, 12", "cells = 12, 12\nq =", "[grid] q"),
    ], ids=["bad-number", "empty-scalar"])
    def test_unreadable_value_names_key(self, tmp_path, capsys, old, new,
                                        key):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(old, new))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_misspelled_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[solver]\ntolerance = 1e-3\n")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown config key [solver] tolerance" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_method_key_warns_and_runs(self, tmp_path, caplog):
        # the route follows the matrix: the removed key steers nothing
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[solver]\nmethod = direct\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert ["[solver] method is deprecated" in r.getMessage()
                for r in caplog.records] == [True]
        assert json.loads((out / "solve.json").read_text())["method"] == "cg"

    def test_lam_above_table_ellipticity_exits_2(self, tmp_path, capsys):
        # the quickstart table's smallest eigenvalue is about 0.79
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[coefficients]\n"
                        "family = constant\nmatrix = 2.0 0.5 ; 0.5 1.0\n"
                        "lam = 5.0\n")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLimit:
    def test_matches_library_call(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
        u0 = load_field(out / "u_limit.field")
        g = make_grid([(0, 1), (0, 1)], (12, 12), q=1)
        blocks = operator_blocks(g, coefficient_family("identity", g))
        expect = solve_limit(blocks, forcing_field("sine_product", g))
        assert np.allclose(u0.values, expect.values, atol=1e-13)
        meta = json.loads((out / "limit.json").read_text())
        assert meta["l2"] > 0

    @pytest.mark.parametrize("solver, ran", [
        ("", "cg"),
    ])
    def test_records_its_route_and_worst_slice(self, tmp_path, solver, ran):
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[coefficients]\n"
                        "family = variable\n" + solver)
        out = tmp_path / "out"
        assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "limit.json").read_text())
        assert meta["method"] == ran
        g = make_grid([(0, 1), (0, 1)], (12, 12), q=1)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        u0 = load_field(out / "u_limit.field")
        assert np.array_equal(u0.values, solve_limit(
            operator_blocks(g, coeffs), f).values)
        worst = max(relative_residual(matrix, u0.values[x1][1:-1], rhs)
                    for x1, matrix, rhs, _ in iter_slice_systems(g, coeffs,
                                                                 f))
        assert 0.0 < meta["residual"] <= 1e-10
        assert meta["residual"] == pytest.approx(worst, rel=1e-9)


    def test_nonsymmetric_limit_runs_direct(self, tmp_path, monkeypatch):
        # a varying skew part in the X2 block of a 3-D table: the limit
        # matrix is not symmetric, so the limit is factored
        monkeypatch.setattr(
            StudyConfig, "build_coefficients",
            lambda self, grid: varying_asymmetric(grid, NONSYMMETRIC,
                                                  lam=0.5))
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "cells = 12, 12", "lo = 0, 0, 0\nhi = 1, 1, 1\ncells = 6, 6, 6"))
        out = tmp_path / "out"
        assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "limit.json").read_text())
        assert meta["method"] == "direct"
        g = make_grid([(0, 1)] * 3, (6, 6, 6), q=1)
        coeffs = varying_asymmetric(g, NONSYMMETRIC, lam=0.5)
        f = forcing_field("sine_product", g)
        u0 = load_field(out / "u_limit.field")
        assert np.array_equal(u0.values, solve_limit(
            operator_blocks(g, coeffs), f).values)
        worst = max(relative_residual(matrix, u0.values[x1][1:-1, 1:-1]
                                      .reshape(-1), rhs)
                    for x1, matrix, rhs, _ in iter_slice_systems(g, coeffs,
                                                                 f))
        assert 0.0 < meta["residual"] <= 1e-10
        assert meta["residual"] == pytest.approx(worst, rel=1e-9)


class TestSweep:
    def test_produces_reports_and_fields(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "epsilon" and rows[0][-1] == "wall_ms"
        assert len(rows) == 4
        assert (out / "fields" / "u_limit.field").exists()
        assert (out / "fields" / "u_eps_002.field").exists()
        assert "3 rows" in capsys.readouterr().out

    def test_format_json_skips_csv(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        assert not (out / "report.csv").exists()
        assert (out / "report.json").exists()

    def test_rejects_nonlinearity_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[nonlinearity]\n"
                        "family = tanh\n")
        rc = main(["sweep", "--config", cfg, "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "semilinear" in capsys.readouterr().err


class TestSemilinear:
    def test_requires_nonlinearity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        rc = main(["semilinear", "--config", cfg, "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "nonlinearity" in capsys.readouterr().err

    def test_runs_with_nonlinearity(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[nonlinearity]\n"
                        "family = tanh\n")
        out = tmp_path / "out"
        rc = main(["semilinear", "--config", cfg, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["nonlinearity"] == "tanh"
        assert payload["complete"] is True


class TestReproduceScript:
    @staticmethod
    def script():
        path = (Path(__file__).resolve().parent.parent / "scripts"
                / "reproduce_study.py")
        spec = importlib.util.spec_from_file_location("reproduce_study",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_semilinear_config_runs_semilinear(self, tmp_path, capsys):
        # the shipped semilinear config at 24^2 instead of 96^2; its
        # default margin of 3 cells holds two dyadic shifts, not three
        shipped = (Path(__file__).resolve().parent.parent / "configs"
                   / "semilinear.cfg").read_text()
        assert "cells = 96, 96" in shipped
        assert "[translation]" not in shipped
        cfg = write_cfg(tmp_path, shipped.replace("cells = 96, 96",
                                                  "cells = 24, 24")
                        + "\n[translation]\nlevels = 2\n")
        out = tmp_path / "out"
        assert self.script().main([cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "== semilinear ==" in printed
        assert "== sweep ==" not in printed
        payload = json.loads((out / "report.json").read_text())
        assert payload["complete"] is True
        assert payload["config"]["nonlinearity"] == "tanh"
        # the translation step reads the fields the semilinear sweep saved
        assert "== translation ==" in printed
        assert (out / "translation.csv").exists()
        # the metric step reads the last saved row against the limit
        assert "== metric ==" in printed
        with open(out / "metric.csv", newline="") as fh:
            metric = dict(csv.reader(fh))
        last = payload["rows"][-1]
        assert metric["field"].endswith(
            f"u_eps_{len(payload['rows']) - 1:03d}.field")
        assert metric["field_b"].endswith("u_limit.field")
        assert float(metric["l2_diff"]) == last["l2_diff"]
        assert float(metric["distance"]) == pytest.approx(
            last["frechet_d"], rel=1e-13)


FOURIER_CFG = """
[grid]
cells = 12, 12

[fourier]
lattice = 16
samples = 3
epsilons = 1.0 0.1
"""


class TestFourierCheck:
    def test_identity_all_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FOURIER_CFG)
        out = tmp_path / "out"
        rc = main(["fourier-check", "--config", cfg, "--out", str(out),
                   "--seed", "11"])
        assert rc == 0
        with open(out / "fourier.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "sample", "r_x2", "r_x1", "r_cross",
                           "passed"]
        assert len(rows) == 1 + 3 * 2
        assert all(r[-1] == "1" for r in rows[1:])
        assert all(float(r[2]) <= 1.0 + 1e-9 for r in rows[1:])
        # the identity table as a constant matrix gives the Laplacian's
        # ratios exactly
        rng = np.random.default_rng(11)
        expect = []
        for sample in range(3):
            f = random_zero_mean_forcing((16, 16), 1, rng)
            for eps in (1.0, 0.1):
                rep = check_laplacian_bounds(f, eps, strict=False)
                expect.append([rep.r_x2, rep.r_x1, rep.r_cross])
        assert [[float(v) for v in r[2:5]] for r in rows[1:]] == expect

    def test_constant_matrix_branch(self, tmp_path):
        cfg = write_cfg(tmp_path, FOURIER_CFG + "\n[coefficients]\n"
                        "family = constant\nmatrix = 2 0.5 ; 0.5 1\n")
        out = tmp_path / "out"
        rc = main(["fourier-check", "--config", cfg, "--out", str(out)])
        assert rc == 0

    def test_constant_lam_matches_coefficient_table(self, tmp_path,
                                                    monkeypatch):
        # without a declared lam, fourier-check and the coefficient table
        # derive the same constant from the matrix
        import anisolab.cli as cli
        from anisolab import StudyConfig
        cfg = write_cfg(tmp_path, FOURIER_CFG + "\n[coefficients]\n"
                        "family = constant\nmatrix = 2 0.5 ; 0.5 1\n")
        seen = set()
        check = cli.check_constant_bounds

        def recording(matrix, lam, *args, **kwargs):
            seen.add(lam)
            return check(matrix, lam, *args, **kwargs)

        monkeypatch.setattr(cli, "check_constant_bounds", recording)
        assert main(["fourier-check", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0
        config = StudyConfig.from_file(cfg)
        table = config.build_coefficients(config.build_grid())
        assert seen == {table.lam}
        assert table.lam == pytest.approx(1.5 - np.sqrt(0.5), rel=1e-15)

    def test_variable_family_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FOURIER_CFG + "\n[coefficients]\n"
                        "family = variable\n")
        rc = main(["fourier-check", "--config", cfg, "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "constant" in capsys.readouterr().err

    def test_empty_epsilon_list_is_a_config_error(self, tmp_path, capsys):
        # a check over no epsilon checks nothing: it must not report
        # success with a header-only table
        cfg = write_cfg(tmp_path, FOURIER_CFG.replace(
            "epsilons = 1.0 0.1", "epsilons ="))
        out = tmp_path / "out"
        rc = main(["fourier-check", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "fourier epsilon list is empty" in capsys.readouterr().err
        assert not (out / "fourier.csv").exists()

    def test_seed_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path, FOURIER_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["fourier-check", "--config", cfg, "--out", str(out_a),
              "--seed", "5"])
        main(["fourier-check", "--config", cfg, "--out", str(out_b),
              "--seed", "5"])
        assert (out_a / "fourier.csv").read_text() == \
            (out_b / "fourier.csv").read_text()


class TestMetric:
    def make_field(self, tmp_path, name, fn):
        g = make_grid([(0, 1), (0, 1)], (12, 12), q=1)
        path = tmp_path / name
        save_field(path, ScalarField.from_function(g, fn))
        return str(path)

    def test_single_field_bundle(self, tmp_path):
        cfg = write_cfg(tmp_path)
        field = self.make_field(tmp_path, "u.field",
                                lambda x, y: np.sin(np.pi * y))
        out = tmp_path / "out"
        rc = main(["metric", "--config", cfg, "--out", str(out),
                   "--format", "json", "--field", field])
        assert rc == 0
        payload = json.loads((out / "metric.json").read_text())
        assert payload["l2"] > 0
        assert payload["v12"] > payload["l2"]
        # 12-cell grid: margin schedule 3, 1 after clamping
        assert set(payload["v22_by_margin"]) == {"3", "1"}
        assert "distance" not in payload

    def test_two_field_distance(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a = self.make_field(tmp_path, "a.field", lambda x, y: x * y)
        b = self.make_field(tmp_path, "b.field", lambda x, y: x * y + 1)
        out = tmp_path / "out"
        rc = main(["metric", "--config", cfg, "--out", str(out),
                   "--format", "json", "--field", a, "--field-b", b])
        assert rc == 0
        payload = json.loads((out / "metric.json").read_text())
        assert 0 < payload["distance"] < 2
        assert payload["l2_diff"] > 0

    def test_csv_format_key_value(self, tmp_path):
        cfg = write_cfg(tmp_path)
        field = self.make_field(tmp_path, "u.field", lambda x, y: x)
        out = tmp_path / "out"
        rc = main(["metric", "--config", cfg, "--out", str(out),
                   "--field", field])
        assert rc == 0
        with open(out / "metric.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "value"]
        keys = [r[0] for r in rows[1:]]
        assert "l2" in keys and "v12" in keys

    def test_grid_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        a = self.make_field(tmp_path, "a.field", lambda x, y: x)
        g = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        b = tmp_path / "b.field"
        save_field(b, ScalarField.zeros(g))
        rc = main(["metric", "--config", cfg, "--out",
                   str(tmp_path / "out"), "--field", a,
                   "--field-b", str(b)])
        assert rc == 2
        assert "different grids" in capsys.readouterr().err

    def test_truncated_header_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        field = tmp_path / "short.field"
        field.write_bytes(b"AFLD0001" + struct.pack("<I", 2))
        rc = main(["metric", "--config", cfg, "--out",
                   str(tmp_path / "out"), "--field", str(field)])
        assert rc == 2
        assert "short.field: header" in capsys.readouterr().err


TRANSLATION_CFG = """
[grid]
cells = 16, 16

[forcing]
family = sine_product

[sweep]
epsilons = 1.0 0.5
margin = 5
nested = 2

[translation]
levels = 3
"""


class TestTranslation:
    def test_dyadic_shifts_per_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rc = main(["translation", "--config", cfg, "--out", str(out)])
        assert rc == 0
        with open(out / "translation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "h_cells", "h_phys", "sigma"]
        assert len(rows) == 1 + 2 * 3  # two axes, three levels
        by_axis = {}
        for axis, h_cells, h_phys, sigma in rows[1:]:
            by_axis.setdefault(axis, []).append(
                (int(h_cells), float(sigma)))
            assert float(h_phys) == int(h_cells) / 16
        for axis, pairs in by_axis.items():
            assert [h for h, _ in pairs] == [4, 2, 1]
            sigmas = [s for _, s in pairs]
            assert sigmas[0] > sigmas[1] > sigmas[2] > 0

    def test_margin_too_small_exits_2(self, tmp_path, capsys):
        # margin 1 holds not even a one-cell shift, whatever the levels
        for levels in (1, 3):
            text = TRANSLATION_CFG.replace("margin = 5", "margin = 1")
            cfg = write_cfg(tmp_path, text.replace("levels = 3",
                                                   f"levels = {levels}"))
            rc = main(["translation", "--config", cfg, "--out",
                       str(tmp_path / "out")])
            assert rc == 2
            assert f"margin 1 too small for {levels} dyadic" in \
                capsys.readouterr().err

    def test_levels_shrink_to_the_margin(self, tmp_path, capsys):
        # margin 3 admits the shifts 2 and 1: two of the three levels
        cfg = write_cfg(tmp_path, TRANSLATION_CFG.replace("margin = 5",
                                                          "margin = 3"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["translation", "--config", cfg, "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[translation] levels = 3" in err and "margin 3" in err
        with open(out / "translation.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(axis, h) for axis, h, _, _ in rows] == [
            ("0", "2"), ("0", "1"), ("1", "2"), ("1", "1")]

    def test_reads_semilinear_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, TRANSLATION_CFG + "\n[nonlinearity]\n"
                        "family = tanh\n")
        out = tmp_path / "out"
        assert main(["semilinear", "--config", cfg, "--out",
                     str(out)]) == 0
        assert main(["translation", "--config", cfg, "--out",
                     str(out)]) == 0
        with open(out / "translation.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2 * 3

    def test_without_sweep_names_missing_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        out = tmp_path / "out"
        rc = main(["translation", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert str(out / "report.json") in capsys.readouterr().err
        assert not (out / "translation.csv").exists()

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        (out / "fields" / "u_eps_001.field").unlink()
        capsys.readouterr()
        rc = main(["translation", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "u_eps_001.field" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("epsilons = 1.0 0.5", "epsilons = 1.0 0.25", "epsilons"),
        ("cells = 16, 16", "cells = 16, 20", "cells"),
        ("family = sine_product", "family = constant", "forcing_family"),
    ], ids=["epsilons", "grid", "forcing"])
    def test_saved_sweep_of_another_config_exits_2(self, tmp_path, capsys,
                                                   old, new, message):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        other = write_cfg(tmp_path, TRANSLATION_CFG.replace(old, new),
                          name="other.cfg")
        capsys.readouterr()
        rc = main(["translation", "--config", other, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_saved_sweep_of_another_table_exits_2(self, tmp_path, capsys):
        # same grid, family, forcing and epsilons: only the matrix differs
        table = "[coefficients]\nfamily = constant\nmatrix = {}\n\n[forcing]"
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, TRANSLATION_CFG.replace(
            "[forcing]", table.format("2.0 0.5 ; 0.5 1.0")))
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        other = write_cfg(tmp_path, TRANSLATION_CFG.replace(
            "[forcing]", table.format("1.0 0.0 ; 0.0 3.0")), name="other.cfg")
        capsys.readouterr()
        rc = main(["translation", "--config", other, "--out", str(out)])
        assert rc == 2
        assert "coefficient_params" in capsys.readouterr().err
        assert not (out / "translation.csv").exists()

    def test_other_levels_read_the_saved_sweep(self, tmp_path):
        # the levels shape only the diagnostic, not the saved solutions
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        other = write_cfg(tmp_path, TRANSLATION_CFG.replace(
            "levels = 3", "levels = 2"), name="other.cfg")
        assert main(["translation", "--config", other, "--out",
                     str(out)]) == 0
        with open(out / "translation.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2 * 2

    @pytest.mark.parametrize("text", ["{", "{}", "[1]"])
    def test_unreadable_saved_report_exits_2(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text(text)
        rc = main(["translation", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "not a sweep report" in capsys.readouterr().err

    def test_incomplete_saved_sweep_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TRANSLATION_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        report = out / "report.json"
        payload = json.loads(report.read_text())
        payload.update(complete=False, error="epsilon=0.5: diverged")
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["translation", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "sweep incomplete: epsilon=0.5" in capsys.readouterr().err


class _FailingWriter:
    """Stands in for ``csv.writer``: writes part of a row, then fails."""

    def __init__(self, fh, *args, **kwargs):
        self.fh = fh

    def writerow(self, row):
        self.fh.write("partial")
        raise RuntimeError("disk full")


class TestAtomicCsv:
    @pytest.mark.parametrize("command, config, target", [
        ("fourier-check", FOURIER_CFG, "fourier.csv"),
        ("metric", BASE_CFG, "metric.csv"),
        ("translation", TRANSLATION_CFG, "translation.csv"),
    ], ids=["fourier-check", "metric", "translation"])
    def test_failed_write_keeps_old_target(self, tmp_path, monkeypatch,
                                           command, config, target):
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "out"
        out.mkdir()
        (out / target).write_text("old\n")
        args = [command, "--config", cfg, "--out", str(out)]
        if command == "metric":
            field = tmp_path / "u.field"
            g = make_grid([(0, 1), (0, 1)], (12, 12), q=1)
            save_field(field, ScalarField.from_function(g, lambda x, y: x))
            args += ["--field", str(field)]
        if command == "translation":
            # translation reads a saved sweep; the sweep writes CSV files
            # of its own, so it runs before csv.writer is patched
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        monkeypatch.setattr(csv, "writer", _FailingWriter)
        with pytest.raises(RuntimeError, match="disk full"):
            main(args)
        assert (out / target).read_text() == "old\n"
        assert not (out / (target + ".tmp")).exists()
