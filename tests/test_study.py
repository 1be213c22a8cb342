import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from anisolab import (ScalarField, StudyConfig, assemble_operator,
                      coefficient_family, emit_report, estimate_rate,
                      forcing_field, frechet_distance, l2_norm, load_field,
                      make_grid, operator_blocks, run_sweep,
                      scale_coefficients, solve_dirichlet, solve_limit,
                      v12_norm)
from anisolab.norms import (grad_x1_seminorm, hess_x1_seminorm,
                            hess_x1x2_seminorm, hess_x2_seminorm)
from anisolab.limit import iter_slice_systems
from anisolab.study import CSV_COLUMNS, discretization_floor

from conftest import relative_residual
from test_fd_ops import varying_asymmetric
from test_limit import NONSYMMETRIC
from test_solver import count_factor


def small_config(**over):
    base = dict(cells=[16, 16], epsilons=[1.0, 0.5, 0.25],
                forcing_family="sine_product", nested=4)
    base.update(over)
    return StudyConfig(**base)


class TestColumns:
    def test_header_tuple_pinned(self):
        assert CSV_COLUMNS == (
            "epsilon", "l2_diff", "v12_diff", "eps_grad_x1",
            "hess_x2_diff_omega", "eps2_hess_x1_omega",
            "eps_hess_x1x2_omega", "frechet_d", "wall_ms")


class TestFloor:
    def test_positive_and_second_order(self):
        floors = []
        for n in (16, 32, 64):
            g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
            floors.append(discretization_floor(g))
        assert all(f > 0 for f in floors)
        ratios = np.array(floors[:-1]) / np.array(floors[1:])
        assert np.all(np.abs(ratios - 4.0) < 0.5)

    def test_cg_probe_matches_direct_solve(self, lu_route):
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        exact = forcing_field("sine_product", g)
        f = ScalarField(g, 2 * np.pi ** 2 * exact.values)
        op = assemble_operator(g, coefficient_family("identity", g))
        # the probe names cg, so it keeps CG while the reference is an LU
        lu_route()
        direct = 10.0 * l2_norm(solve_dirichlet(op, f) - exact)
        assert discretization_floor(g) == pytest.approx(direct, rel=1e-12)


class TestRunSweep:
    def test_rows_match_hand_computation(self):
        cfg = small_config()
        rep = run_sweep(cfg)
        assert rep.complete and rep.error is None
        assert [r.epsilon for r in rep.rows] == [1.0, 0.5, 0.25]

        grid = cfg.build_grid()
        coeffs = cfg.build_coefficients(grid)
        f = cfg.build_forcing(grid)
        mask = cfg.build_mask(grid)
        family = cfg.build_family(grid)
        u_limit = solve_limit(operator_blocks(grid, coeffs), f)
        eps = 0.5
        u = solve_dirichlet(
            assemble_operator(grid, scale_coefficients(coeffs, eps)), f)
        diff = u - u_limit
        row = rep.rows[1]
        assert row.l2_diff == pytest.approx(l2_norm(diff), rel=1e-12)
        assert row.v12_diff == pytest.approx(v12_norm(diff), rel=1e-12)
        assert row.eps_grad_x1 == pytest.approx(
            eps * grad_x1_seminorm(u), rel=1e-12)
        assert row.hess_x2_diff_omega == pytest.approx(
            hess_x2_seminorm(diff, mask), rel=1e-12)
        assert row.eps2_hess_x1_omega == pytest.approx(
            eps ** 2 * hess_x1_seminorm(u, mask), rel=1e-12)
        assert row.eps_hess_x1x2_omega == pytest.approx(
            eps * hess_x1x2_seminorm(u, mask), rel=1e-12)
        assert row.frechet_d == pytest.approx(
            frechet_distance(u, u_limit, family, n_max=cfg.nested),
            rel=1e-12)
        assert row.wall_ms >= 0.0

    def test_quickstart_rows_read_one_difference_bundle(self):
        # quickstart's row margin 5 is no member of its family (8, 4, 2,
        # 1), so the shared bundle must take the row mask on its own
        cfg = StudyConfig.from_file(
            Path(__file__).resolve().parent.parent / "configs"
            / "quickstart.cfg")
        rep = run_sweep(cfg)
        assert rep.complete
        grid = rep.u_limit.grid
        mask = cfg.build_mask(grid)
        family = cfg.build_family(grid)
        assert mask.margins == (5, 5)
        assert 5 not in family.margins
        for row, u in zip(rep.rows, rep.u_eps):
            diff = u - rep.u_limit
            assert row.l2_diff == l2_norm(diff)
            assert row.v12_diff == pytest.approx(v12_norm(diff), rel=1e-13)
            assert row.hess_x2_diff_omega == pytest.approx(
                hess_x2_seminorm(diff, mask), rel=1e-13)
            assert row.frechet_d == pytest.approx(
                frechet_distance(u, rep.u_limit, family, n_max=cfg.nested),
                rel=1e-13)

    def test_difference_columns_shrink(self):
        rep = run_sweep(small_config(epsilons=[1.0, 0.5, 0.25, 0.125]))
        l2 = [r.l2_diff for r in rep.rows]
        assert all(a > b for a, b in zip(l2, l2[1:]))
        d = [r.frechet_d for r in rep.rows]
        assert all(a > b for a, b in zip(d, d[1:]))

    def test_operator_blocks_built_once(self, monkeypatch):
        import anisolab.fd_ops as fd_ops
        import anisolab.study as study
        calls = {"assemble_operator": 0, "operator_blocks": 0,
                 "_stencil_rows": 0, "_stencil_csr": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(study, "assemble_operator")
        counted(study, "operator_blocks")
        counted(fd_ops, "_stencil_rows")
        counted(fd_ops, "_stencil_csr")
        cfg = small_config(epsilons=[1.0, 0.5, 0.25, 0.125])
        assert cfg.solver_method == "auto"
        rep = run_sweep(cfg)
        assert rep.complete
        # the one operator assembly left is the floor probe's; the blocks
        # lay out two stencils, the full grid's and the limit's.  Under
        # auto every solve runs by CG on the stencils: no CSR is laid out
        assert calls == {"assemble_operator": 1, "operator_blocks": 1,
                         "_stencil_rows": 3, "_stencil_csr": 0}

    @staticmethod
    def check_auto_matches_direct(monkeypatch, lu_route, cfg):
        """Sweep ``cfg`` under auto and on the LU route: auto factors
        nothing, the LU the limit once and one operator per row, and
        every row and rate agrees to 1e-8."""
        calls = count_factor(monkeypatch)
        assert cfg.solver_method == "auto"
        auto = run_sweep(cfg)
        assert calls == []
        lu_route()
        direct = run_sweep(cfg)
        assert len(calls) == 1 + len(cfg.epsilons)
        assert auto.complete and direct.complete
        for a, d in zip(auto.rows, direct.rows):
            for col in CSV_COLUMNS[1:-1]:
                assert getattr(a, col) == pytest.approx(getattr(d, col),
                                                        rel=1e-8), col
        for col, rate in direct.rates.items():
            assert auto.rates[col] == pytest.approx(rate, rel=1e-8), col
        assert auto.floor_warnings() == direct.floor_warnings()

    def test_default_method_solves_rows_without_factoring(self, monkeypatch,
                                                          lu_route):
        # the default method is auto: the symmetric variable table runs
        # CG on every row and in the limit
        self.check_auto_matches_direct(monkeypatch, lu_route, small_config(
            cells=[32, 32], coefficient_family="variable",
            epsilons=[1.0, 0.5, 0.25, 0.125, 0.0625]))

    def test_constant_asymmetric_table_runs_cg(self, monkeypatch, lu_route):
        # only a12 + a21 reaches the assembled matrix, so under auto this
        # table's rows run by CG too
        self.check_auto_matches_direct(monkeypatch, lu_route, small_config(
            cells=[32, 32], coefficient_family="constant",
            coefficient_params={"matrix": [[2.0, 0.7], [0.3, 1.0]]},
            epsilons=[1.0, 0.5, 0.25, 0.125, 0.0625]))

    def test_nonsymmetric_table_sweeps_by_lu(self, monkeypatch):
        # no config family builds a table whose matrix is not symmetric;
        # one with a varying skew part, X2 block included, runs the LU
        # route end to end: the limit and every row factor once
        monkeypatch.setattr(
            StudyConfig, "build_coefficients",
            lambda self, grid: varying_asymmetric(grid, NONSYMMETRIC,
                                                  lam=0.5))
        cfg = small_config(lo=[0.0] * 3, hi=[1.0] * 3, cells=[6, 6, 7],
                           nested=2)
        calls = count_factor(monkeypatch)
        rep = run_sweep(cfg)
        assert rep.complete and len(rep.rows) == len(cfg.epsilons)
        g = cfg.build_grid()
        blocks = operator_blocks(g, cfg.build_coefficients(g))
        assert [m.box for m in calls] == (
            [blocks.limit.matrix.box]
            + [blocks.unscaled.matrix.box] * len(cfg.epsilons))
        f = cfg.build_forcing(g)
        for eps, u in zip(cfg.epsilons, rep.u_eps):
            op = blocks.at(eps)
            assert relative_residual(
                op.matrix, u.interior_vector(),
                f.interior_vector()) <= cfg.solver_tol
        interior = (slice(1, -1),) * 2
        for x1, matrix, rhs, _ in iter_slice_systems(
                g, cfg.build_coefficients(g), f):
            assert relative_residual(
                matrix, rep.u_limit.values[x1][interior].reshape(-1),
                rhs) <= cfg.solver_tol

    def test_workers_steers_nothing(self):
        reps = [run_sweep(small_config(workers=w)) for w in (1, 3)]
        assert [dataclasses.replace(r, wall_ms=0.0) for r in reps[0].rows] \
            == [dataclasses.replace(r, wall_ms=0.0) for r in reps[1].rows]

    def test_rates_present_for_difference_columns(self):
        rep = run_sweep(small_config(epsilons=[1.0, 0.5, 0.25, 0.125]))
        assert rep.rates["l2_diff"] is not None
        assert rep.rates["l2_diff"] > 0.5  # decays with epsilon

    def test_semilinear_sweep_runs(self):
        rep = run_sweep(small_config(nonlinearity="tanh"))
        assert rep.complete
        assert all(np.isfinite(r.l2_diff) for r in rep.rows)

    def test_semilinear_rows_follow_solver_method(self, monkeypatch,
                                                  lu_route):
        # auto runs every Newton step of the symmetric table by CG; the
        # LU route factors each step's Jacobian once, in the limit and
        # every row
        calls = count_factor(monkeypatch)
        cfg = small_config(nonlinearity="tanh",
                           coefficient_family="variable")
        auto = run_sweep(cfg)
        assert calls == []
        lu_route()
        direct = run_sweep(cfg)
        assert len(calls) >= 1 + len(cfg.epsilons)
        assert auto.complete and direct.complete
        for a, d in zip(auto.rows, direct.rows):
            for col in CSV_COLUMNS[1:-1]:
                assert getattr(a, col) == pytest.approx(getattr(d, col),
                                                        rel=1e-8), col

    def test_rows_share_one_fit(self, monkeypatch):
        # every row is the unscaled operator with scaled rows and means:
        # one fit, whose axis pencils one sweep diagonalizes once each
        cfg = small_config(coefficient_family="variable")
        g = cfg.build_grid()
        blocks = operator_blocks(g, cfg.build_coefficients(g))
        fit = blocks.unscaled.fit
        assert blocks.at(1.0).fit is blocks.at(0.1).fit is fit
        bent = sum(p is not None or w is not None
                   for p, w in zip(fit.profile, fit.weight))
        assert bent > 0
        calls = []
        real = np.linalg.eigh

        def eigh(a):
            calls.append(a.shape)
            return real(a)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert run_sweep(cfg).complete
        assert len(calls) == bent

    def test_failed_solve_flags_incomplete(self):
        # variable table: the CG preconditioner is exact for the identity
        # one, so CG would converge in its one allowed step and the
        # failure would rest on how scipy reports that step
        cfg = small_config(solver_method="cg", solver_tol=1e-13,
                           maxiter_factor=0.05,
                           coefficient_family="variable",
                           forcing_family="constant",
                           forcing_params={"value": 1.0})
        rep = run_sweep(cfg)
        assert not rep.complete
        assert rep.error is not None and "epsilon=1.0" in rep.error
        assert rep.rows == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_cancels_rows_not_started(self, monkeypatch, workers):
        # the first row fails: no later row is ever started, whatever the
        # (ignored) workers setting
        import anisolab.study as study
        from anisolab import SolverError
        real = study._sweep_row
        started = []

        def row(config, blocks, f, u_limit, mask, family, nonlinearity,
                epsilon):
            started.append(epsilon)
            if epsilon == 1.0:
                raise SolverError("stub failure")
            return real(config, blocks, f, u_limit, mask, family,
                        nonlinearity, epsilon)

        monkeypatch.setattr(study, "_sweep_row", row)
        eps = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
        rep = run_sweep(small_config(epsilons=eps, workers=workers))
        assert not rep.complete and rep.rows == [] and rep.u_eps == []
        assert rep.error == "epsilon=1.0: stub failure"
        assert started == [1.0]

    def test_metadata_recorded(self):
        rep = run_sweep(small_config(margin=3, nested=2))
        assert rep.mask_margin == 3
        assert rep.family_margins == [2, 1]
        assert rep.floor > 0


class TestEstimateRate:
    def test_exact_power_law(self):
        xs = [1.0, 0.5, 0.25, 0.125]
        pairs = [(x, 3.0 * x ** 1.7) for x in xs]
        assert estimate_rate(pairs) == pytest.approx(1.7, abs=1e-12)

    def test_nonpositive_dropped_with_warning(self):
        pairs = [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25), (0.125, 0.0)]
        with pytest.warns(UserWarning):
            rate = estimate_rate(pairs)
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            estimate_rate([(1.0, 1.0), (0.5, 0.5)])
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                estimate_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.0)])


@pytest.fixture(scope="module")
def report():
    return run_sweep(small_config(cells=[8, 8], nested=2))


class TestEmitReport:
    def test_csv_layout(self, report, tmp_path):
        paths = emit_report(report, tmp_path, fmt="csv")
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(report.rows)
        # %.17g round-trips doubles exactly
        assert float(rows[1][1]) == report.rows[0].l2_diff

    def test_json_twin_embeds_config(self, report, tmp_path):
        paths = emit_report(report, tmp_path, fmt="json")
        assert "csv" not in paths
        payload = json.loads(paths["json"].read_text())
        assert payload["config"]["cells"] == [8, 8]
        assert payload["complete"] is True
        assert len(payload["rows"]) == len(report.rows)
        assert payload["floor"] == report.floor
        assert set(payload["rates"]) == set(CSV_COLUMNS[1:-1])
        assert "floor" in payload["note"].lower() or payload["note"]

    def test_fields_persisted_loadable(self, report, tmp_path):
        paths = emit_report(report, tmp_path)
        u_limit = load_field(paths["u_limit"])
        assert np.array_equal(u_limit.values, report.u_limit.values)
        u0 = load_field(paths["u_eps_000"])
        assert np.array_equal(u0.values, report.u_eps[0].values)
        assert (tmp_path / "fields" / "u_eps_002.field").exists()

    def test_bad_format_rejected(self, report, tmp_path):
        from anisolab import ConfigError
        with pytest.raises(ConfigError):
            emit_report(report, tmp_path, fmt="yaml")
