import logging
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from anisolab import (ConfigError, ScalarField, StudyConfig, forcing_field,
                      load_config, load_field, make_grid, save_field)
from anisolab.fieldio import atomic_write

from conftest import random_field


class TestFieldIO:
    def test_round_trip_bitwise(self, tmp_path, unit_square, rng):
        u = random_field(unit_square(8), rng)
        path = tmp_path / "u.field"
        save_field(path, u)
        v = load_field(path)
        assert v.grid == u.grid
        assert np.array_equal(v.values, u.values)

    def test_round_trip_3d(self, tmp_path, rng):
        g = make_grid([(0.0, 2.0), (-1.0, 1.0), (0.0, 1.0)], (4, 6, 8),
                      q=2)
        u = ScalarField(g, rng.standard_normal(g.node_shape))
        path = tmp_path / "u3.field"
        save_field(path, u)
        v = load_field(path)
        assert v.grid == g
        assert np.array_equal(v.values, u.values)

    def test_header_layout_documented(self, tmp_path, unit_square):
        # magic, uint32 ndim, uint32 q, ndim uint64 cells, ndim f64 lo,
        # ndim f64 hi, little endian, then the C-order f64 node payload
        g = unit_square(4)
        u = ScalarField.from_function(g, lambda x, y: x + 2 * y)
        path = tmp_path / "u.field"
        save_field(path, u)
        raw = path.read_bytes()
        assert raw[:8] == b"AFLD0001"
        ndim, q = struct.unpack_from("<II", raw, 8)
        assert (ndim, q) == (2, 1)
        cells = struct.unpack_from("<2Q", raw, 16)
        assert cells == (4, 4)
        lo = struct.unpack_from("<2d", raw, 32)
        hi = struct.unpack_from("<2d", raw, 48)
        assert lo == (0.0, 0.0) and hi == (1.0, 1.0)
        payload = np.frombuffer(raw, dtype="<f8", offset=64)
        assert np.array_equal(payload.reshape(5, 5), u.values)
        assert len(raw) == 64 + 25 * 8

    def test_bad_magic_rejected(self, tmp_path, unit_square, rng):
        u = random_field(unit_square(4), rng)
        path = tmp_path / "u.field"
        save_field(path, u)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"AFLD9999"
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError):
            load_field(path)

    @pytest.mark.parametrize("keep", [12, 16, 40])
    def test_truncated_header_rejected(self, tmp_path, unit_square, rng,
                                       keep):
        # 12 bytes: the magic and N but no q; 16: no cells; 40: cut in lo
        u = random_field(unit_square(4), rng)
        path = tmp_path / "u.field"
        save_field(path, u)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ConfigError, match="u.field: header"):
            load_field(path)

    def test_truncated_payload_rejected(self, tmp_path, unit_square, rng):
        u = random_field(unit_square(4), rng)
        path = tmp_path / "u.field"
        save_field(path, u)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ConfigError):
            load_field(path)

    def test_save_leaves_no_temp_files(self, tmp_path, unit_square, rng):
        u = random_field(unit_square(4), rng)
        save_field(tmp_path / "u.field", u)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["u.field"]

    def test_failed_write_removes_temp_and_keeps_target(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="disk full"):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("disk full")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert path.read_text() == "old\n"


class TestForcing:
    def test_constant(self, unit_square):
        f = forcing_field("constant", unit_square(4), value=2.5)
        assert np.all(f.values == 2.5)

    def test_sine_product_unit_square(self, unit_square):
        g = unit_square(8)
        f = forcing_field("sine_product", g)
        x, y = g.meshgrid()
        assert np.allclose(f.values, np.sin(np.pi * x) * np.sin(np.pi * y),
                           atol=1e-14)

    def test_sine_product_rescales_to_extent(self):
        g = make_grid([(0.0, 2.0), (1.0, 3.0)], (8, 8), q=1)
        f = forcing_field("sine_product", g, modes=[2, 1])
        x, y = g.meshgrid()
        expect = np.sin(2 * np.pi * x / 2) * np.sin(np.pi * (y - 1) / 2)
        assert np.allclose(f.values, expect, atol=1e-14)

    def test_sine_x2_ignores_scaled_axes(self, unit_square):
        g = unit_square(8)
        f = forcing_field("sine_x2", g)
        y = g.meshgrid()[1]
        assert np.allclose(f.values, np.sin(np.pi * y), atol=1e-14)
        assert np.abs(f.values[0]).max() > 0.9  # alive on the x1 face

    def test_bad_inputs(self, unit_square):
        g = unit_square(4)
        with pytest.raises(ConfigError):
            forcing_field("noise", g)
        with pytest.raises(ConfigError):
            forcing_field("sine_product", g, modes=[1, 2, 3])


class TestStudyConfig:
    def test_defaults_validate(self):
        cfg = StudyConfig()
        assert cfg.epsilons[0] == 1.0
        assert cfg.out_format == "csv"

    def test_dict_round_trip(self):
        cfg = StudyConfig(cells=[32, 32], epsilons=[1.0, 0.5],
                          nonlinearity="tanh", seed=7)
        again = StudyConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_legacy_damping_key_dropped(self, caplog):
        # a config embedded in an older report still reloads, with a notice
        data = StudyConfig(seed=7).to_dict()
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            again = StudyConfig.from_dict(dict(data, damping=0.8))
        assert again == StudyConfig(seed=7)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "damping is deprecated" in caplog.records[0].getMessage()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"cells": [8, 8], "mesh": "fine"})

    @pytest.mark.parametrize("kwargs", [
        {"lo": [0.0], "hi": [1.0, 1.0], "cells": [8, 8]},
        {"epsilons": []},
        {"epsilons": [0.5, 1.0]},
        {"epsilons": [1.5, 0.5]},
        {"epsilons": [1.0, 1.0]},
        {"fourier_epsilons": [2.0]},
        {"fourier_epsilons": []},
        {"margin": 0},
        {"nested": 0},
        {"workers": 0},
        {"workers": -1},
        {"out_format": "xml"},
        {"seed": -1},
        {"seed": 2 ** 64},
        {"fourier_samples": 0},
        {"translation_levels": 0},
        {"fourier_lattice": 1},
        {"solver_tol": 0.0},
        {"solver_tol": -1.0},
        {"solver_tol": 1.0},
        {"solver_tol": float("nan")},
        {"epsilons": [1.0, 0.0]},
        {"fourier_epsilons": [0.0]},
        {"margin": -1},
        {"nested": -1},
        {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "cells": [8]},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            StudyConfig(**kwargs)

    def test_builders_consistent(self):
        cfg = StudyConfig(cells=[16, 16], coefficient_family="variable",
                          forcing_family="sine_product", nested=3)
        g = cfg.build_grid()
        assert g.cells == (16, 16) and g.q == 1
        coeffs = cfg.build_coefficients(g)
        assert coeffs.name == "variable"
        f = cfg.build_forcing(g)
        assert f.grid == g
        assert cfg.effective_margin(g) == 2  # 16 // 8
        mask = cfg.build_mask(g)
        assert mask.margins == (2, 2)
        fam = cfg.build_family(g)
        assert len(fam) == 3
        assert cfg.build_nonlinearity() is None

    def test_effective_margin_floor_and_override(self):
        cfg = StudyConfig(cells=[4, 4])
        assert cfg.effective_margin(cfg.build_grid()) == 1
        cfg = StudyConfig(cells=[128, 64])
        assert cfg.effective_margin(cfg.build_grid()) == 8
        cfg = StudyConfig(cells=[128, 64], margin=5)
        assert cfg.effective_margin(cfg.build_grid()) == 5


INI_TEXT = """
[grid]
lo = 0.0, 0.0
hi = 1.0, 1.0
cells = 32, 32
q = 1

[coefficients]
family = constant
matrix = 2.0 0.5 ; 0.5 1.0   # rows split on ;
lam = 0.7928932188134524

[forcing]
family = sine_product
modes = 1, 1

[sweep]
epsilons = 1.0 0.5 0.25
margin = 4
nested = 5
workers = 2

[solver]
tol = 1e-9

[nonlinearity]
family = linear
kappa = 1.0
damping = 0.8

[fourier]
lattice = 32
samples = 5
epsilons = 1.0 0.1

[translation]
levels = 2

[output]
dir = results
format = json

[random]
seed = 42
"""


class TestConfigFile:
    def test_full_file_parses(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(INI_TEXT)
        cfg = load_config(path)
        assert cfg.cells == [32, 32]
        assert cfg.coefficient_family == "constant"
        assert cfg.coefficient_params["matrix"] == [[2.0, 0.5], [0.5, 1.0]]
        assert cfg.coefficient_params["lam"] == pytest.approx(
            1.5 - np.sqrt(0.5))
        assert cfg.forcing_params["modes"] == [1, 1]
        assert cfg.epsilons == [1.0, 0.5, 0.25]
        assert cfg.margin == 4 and cfg.nested == 5 and cfg.workers == 2
        assert cfg.solver_tol == 1e-9
        assert cfg.nonlinearity == "linear"
        assert cfg.nonlinearity_params == {"kappa": 1.0}
        assert cfg.fourier_lattice == 32 and cfg.fourier_samples == 5
        assert cfg.fourier_epsilons == [1.0, 0.1]
        assert cfg.translation_levels == 2
        assert cfg.out_dir == "results" and cfg.out_format == "json"
        assert cfg.seed == 42

    def test_damping_deprecated(self, tmp_path, caplog):
        # old configs still load, with a notice; the value is not kept
        path = tmp_path / "study.cfg"
        # workers = 1 keeps the workers notice out of the records
        text = INI_TEXT.replace("workers = 2\n", "workers = 1\n")
        path.write_text(text)
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            cfg = load_config(path)
        assert "damping" not in cfg.to_dict()
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "damping is deprecated" in caplog.records[0].getMessage()
        caplog.clear()
        path.write_text(text.replace("damping = 0.8\n", ""))
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            load_config(path)
        assert caplog.records == []

    def test_workers_ignored(self, tmp_path, caplog):
        # parsed and validated, so configs that set it load; above 1 the
        # file gets a notice, since rows run one after another
        path = tmp_path / "study.cfg"
        path.write_text("[sweep]\nworkers = 2\n")
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            assert load_config(path).workers == 2
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "workers = 2 is ignored" in caplog.records[0].getMessage()
        caplog.clear()
        path.write_text("[sweep]\nworkers = 1\n")
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            assert load_config(path).workers == 1
        assert caplog.records == []

    def test_minimal_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("[grid]\ncells = 16, 16\n")
        cfg = load_config(path)
        assert cfg.cells == [16, 16]
        assert cfg.epsilons == [1.0, 0.5, 0.25, 0.125]
        assert cfg.solver_tol == 1e-10

    @pytest.mark.parametrize("method", ["auto", "cg"])
    def test_solver_methods_parse(self, tmp_path, method, caplog):
        # the removed key loads with one notice and steers nothing: the
        # matrix's symmetry picks the route
        path = tmp_path / "solver.cfg"
        path.write_text(f"[grid]\ncells = 8, 8\n"
                        f"[solver]\nmethod = {method}\n")
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            assert load_config(path) == StudyConfig(cells=[8, 8])
        assert len(caplog.records) == 1
        assert "[solver] method is deprecated and ignored" in \
            caplog.records[0].getMessage()

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "maxiter_factor", "0.05"),
        ("nonlinearity", "max_iter", "1"),
    ])
    def test_removed_keys_warn_and_load(self, tmp_path, caplog, section,
                                        key, value):
        path = tmp_path / "removed.cfg"
        path.write_text(f"[grid]\ncells = 8, 8\n[{section}]\n"
                        f"{key} = {value}\n")
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            assert load_config(path) == StudyConfig(cells=[8, 8])
        assert len(caplog.records) == 1
        assert f"[{section}] {key} is deprecated and ignored" in \
            caplog.records[0].getMessage()

    def test_removed_fields_of_old_reports_dropped(self, caplog):
        # a report written before the solve knobs' removal embeds them
        old = dict(StudyConfig(seed=3).to_dict(), solver_method="direct",
                   maxiter_factor=20.0, picard_max_iter=200)
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            assert StudyConfig.from_dict(old) == StudyConfig(seed=3)
        assert [r.getMessage().split(" is ")[0] for r in caplog.records] \
            == ["config key solver_method", "config key maxiter_factor",
                "config key picard_max_iter"]

    @pytest.mark.parametrize("text, named", [
        ("[sweep]\nepsilon = 1.0 0.5 0.25\n", "[sweep] epsilon"),
        ("[solver]\ntolerance = 1e-3\n", "[solver] tolerance"),
        ("[coefficients]\nfamily = constant\nmatrx = 1 0 ; 0 1\n",
         "[coefficients] matrx"),
        ("[grid]\ncell = 8, 8\n", "[grid] cell"),
    ])
    def test_misspelled_key_rejected(self, tmp_path, text, named):
        # a key the format does not read is an error, not a silent default
        path = tmp_path / "typo.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown config key {named}")):
            load_config(path)

    def test_shipped_configs_load_without_warnings(self, caplog):
        # the benchmark's 3-D config still sets the removed method = cg:
        # it loads with that one notice
        root = Path(__file__).resolve().parents[1]
        shipped = sorted((root / "configs").glob("*.cfg"))
        assert len(shipped) >= 3
        for path in shipped:
            with caplog.at_level(logging.WARNING, logger="anisolab.config"):
                load_config(path)
            assert caplog.records == [], path.name
        with caplog.at_level(logging.WARNING, logger="anisolab.config"):
            load_config(root / "perfbench" / "configs" / "sweep-3d-cg.cfg")
        assert len(caplog.records) == 1
        assert "[solver] method is deprecated" in \
            caplog.records[0].getMessage()

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\ncells = 8, 8\n[magic]\nwand = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("cells = 8, 8\n")  # key before any section
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.cfg")

    def test_invalid_values_surface_as_config_errors(self, tmp_path):
        path = tmp_path / "bad_eps.cfg"
        path.write_text("[sweep]\nepsilons = 0.5 1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)
