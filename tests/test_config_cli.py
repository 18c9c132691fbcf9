"""Configuration parsing and the experiment command line."""

import dataclasses
import json
import os

import numpy as np
import pytest

from gridhalo import cli, experiments
from gridhalo.cli import main
from gridhalo.config import ConfigError, ExperimentConfig, read_config_file
from gridhalo.reports import RunReport


class TestConfigFile:
    def test_key_value_comments_and_override(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# comment\ngrid_bits = 6\nmode=double # trailing\ngrid_bits=7\n")
        assert read_config_file(str(p)) == {"grid_bits": "7", "mode": "double"}

    def test_include_is_relative_to_including_file(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "base.cfg").write_text("depth = 2\n")
        top = tmp_path / "top.cfg"
        top.write_text("include sub/base.cfg\nmode = rational\n")
        assert read_config_file(str(top)) == {"depth": "2", "mode": "rational"}

    def test_include_cycle_rejected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("include b.cfg\n")
        b.write_text("include a.cfg\n")
        with pytest.raises(ConfigError, match="cycle"):
            read_config_file(str(a))

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just words\n")
        with pytest.raises(ConfigError):
            read_config_file(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(str(tmp_path / "nope.cfg"))


class TestExperimentConfig:
    def test_defaults_and_round_trip(self):
        c = ExperimentConfig.from_mapping("halo", {"grid_bits": "6"})
        assert c.grid_bits == 6 and c.mode == "rational"
        assert "grid_bits=6" in c.canonical_text()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping("mystery", {})

    def test_h_must_exceed_one(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping("halo", {"h_list": "1, 4"})

    def test_depth_needs_room_in_the_cap(self):
        with pytest.raises(ConfigError, match="resolution cap"):
            ExperimentConfig.from_mapping(
                "resonance", {"depth": "4", "resolution_cap": "8"}
            )

    def test_bad_number_list(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping("halo", {"h_list": "4, eight"})

    def test_unknown_keys_rejected(self, capsys):
        # a misspelt key must not silently run the defaults
        with pytest.raises(ConfigError, match="color"):
            ExperimentConfig.from_mapping("halo", {"color": "blue"})
        assert main(["resonance", "--set", "deph=2"]) == 2
        assert "unknown config key(s): deph" in capsys.readouterr().err
        assert main(["halo", "--set", "use_ladder=false"]) == 2
        assert "unknown config key(s): use_ladder" in capsys.readouterr().err

    def test_out_excluded_from_cache_identity(self):
        a = ExperimentConfig.from_mapping("halo", {"out": "x"})
        b = ExperimentConfig.from_mapping("halo", {"out": "y"})
        assert a.canonical_text() == b.canonical_text()


def _run(argv):
    return main(argv)


class TestCli:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        rc = _run(["halo", "--out", str(tmp_path), "--set", "mode=fuzzy"])
        assert rc == 2
        assert "invalid config" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, tmp_path, capsys):
        rc = _run(["halo", "--out", str(tmp_path), "--set", "oops"])
        assert rc == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_infeasible_exits_3(self, tmp_path, capsys):
        # depth 5 passes validation with a large cap but no shipped input
        # reaches it
        rc = _run(
            [
                "resonance",
                "--depth",
                "5",
                "--resolution-cap",
                "14",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

    def test_union_mass_short_of_half_exits_3(self, tmp_path, capsys):
        # at depth 1 the rotated bases reach 7/16 and 1/4: too shallow, not a bug
        rc = _run(["zygmund", "--depth", "1", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "below 1/2 at depth 1" in err and "reaches 1/4" in err

    def test_halo_boundary_clipping_exits_3(self, tmp_path, capsys):
        # on 128x128 cells the h = 256 level set reaches the box edge
        rc = _run(["halo", "--grid", "7", "--h-list", "4,64,256", "--out", str(tmp_path)])
        assert rc == 3
        assert "h=256 reaches the boundary" in capsys.readouterr().err

    def test_maxfield_run_writes_report(self, tmp_path):
        out = str(tmp_path / "o")
        rc = _run(["maxfield", "--grid", "4", "--out", out])
        assert rc == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["meta"]["kind"] == "maxfield"
        assert all(item["ok"] for item in doc["verified"])
        assert os.path.exists(os.path.join(out, "rows.csv"))

    def test_maxfield_default_grid_finishes(self, tmp_path):
        out = str(tmp_path / "o")
        assert _run(["maxfield", "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["meta"]["grid_bits"] == 5 and doc["rows"][0]["grid"] == "32x32"

    def test_maxfield_grid_7_within_the_work_bound(self, monkeypatch):
        class Reached(Exception):
            pass

        def stop(f, basis, r=None, ladder=None, shapes=None):
            raise Reached(len(shapes) * f.grid.total_cells)

        monkeypatch.setattr(experiments, "max_field_fast", stop)
        config = ExperimentConfig.from_mapping("maxfield", {"grid_bits": "7"})
        with pytest.raises(Reached) as hit:
            experiments.run_maxfield(config)
        assert hit.value.args[0] == 2**28 <= experiments.MAXFIELD_SHAPE_CELLS

    def test_maxfield_grid_8_refused_before_the_field(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(experiments, "max_field_fast", lambda *a, **kw: calls.append(a))
        rc = _run(["maxfield", "--grid", "8", "--out", str(tmp_path)])
        assert rc == 3 and calls == []
        err = capsys.readouterr().err
        assert f"= {2**32}, above the bound {experiments.MAXFIELD_SHAPE_CELLS}" in err
        assert not (tmp_path / "report.json").exists()

    def test_reports_are_deterministic(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = str(tmp_path / name)
            assert _run(["maxfield", "--grid", "4", "--out", out, "--seed", "7"]) == 0
            outs.append(out)
        for fname in ("report.json", "rows.csv"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b, fname

    def test_cache_hit_short_circuits(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert _run(["maxfield", "--grid", "4", "--out", out]) == 0
        capsys.readouterr()
        assert _run(["maxfield", "--grid", "4", "--out", out, "--use-cache"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_cache_hit_needs_the_cached_report_in_out(self, tmp_path, capsys):
        # a run into the same --out rewrites the artifacts, so the grid 4
        # report cached first is no longer what --out holds on the third run
        out = str(tmp_path / "o")
        for grid in ("4", "5", "4"):
            capsys.readouterr()
            assert _run(["maxfield", "--grid", grid, "--out", out, "--use-cache"]) == 0
        assert "cache hit" not in capsys.readouterr().out
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["rows"][0]["grid"] == "16x16"
        assert open(os.path.join(out, "field.txt")).readlines()[1] == "2 4 4\n"
        assert _run(["maxfield", "--grid", "4", "--out", out, "--use-cache"]) == 0
        assert "cache hit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["resonance", "--depth", "2", "--set", "n=3"],
            ["halo", "--set", "n=1"],
            ["resonance", "--mode", "double"],
            ["zygmund", "--mode", "double"],
            ["rearrange", "--mode", "double"],
            ["halo", "--mode", "double"],
            ["lemmas", "--mode", "double"],
            ["maxfield", "--mode", "double"],
        ],
    )
    def test_unused_n_and_mode_exit_2(self, argv, tmp_path, capsys):
        # runs are exact, and all but maxfield are planar; they must not
        # report a setting they did not use
        assert _run([*argv, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_failed_run_is_not_cached(self, tmp_path, monkeypatch, capsys):
        def failing(config):
            report = RunReport("maxfield", {})
            report.check("always_fails", False)
            return report

        monkeypatch.setitem(cli._RUNNERS, "maxfield", failing)
        out = str(tmp_path / "o")
        assert _run(["maxfield", "--grid", "4", "--out", out]) == 4
        capsys.readouterr()
        assert _run(["maxfield", "--grid", "4", "--out", out, "--use-cache"]) == 4
        assert "cache hit" not in capsys.readouterr().out

    def test_quarter_turn_on_anisotropic_tile_exits_0(self, tmp_path):
        # the deep style's first tile is 4x8 cells; a 90-degree basis is the
        # axis basis itself there, so both rotations get the same masses
        rc = _run(
            ["zygmund", "--depth", "1", "--rotations", "0,90", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert all(item["ok"] for item in doc["verified"])
        by_angle = {}
        for row in doc["rows"]:
            by_angle.setdefault(row["gamma_deg"], []).append(row["union_mass_exact"])
        assert by_angle[0.0] == by_angle[90.0]

    def test_rearrangement_moving_cells_off_the_domain_exits_4(
        self, tmp_path, monkeypatch, capsys
    ):
        real = experiments.build_rearrangement

        def swapped(f, plan):
            # swap two cells that no stage set E_k and no band A_k touches
            omega = real(f, plan)
            extra = tuple(r - m for r, m in zip(plan.final_grid.resolution, f.grid.resolution))
            domain = np.zeros(plan.final_grid.shape, dtype=bool)
            for E in plan.e_final:
                domain |= E.mask
            for A, _, _ in plan.selection.entries:
                domain |= A.refine(extra).mask
            a, b = np.flatnonzero(~domain.ravel())[:2]
            perm = omega.perm.copy()
            perm[[a, b]] = perm[[b, a]]
            return dataclasses.replace(omega, perm=perm)

        monkeypatch.setattr(experiments, "build_rearrangement", swapped)
        assert _run(["rearrange", "--out", str(tmp_path / "o")]) == 4
        out = capsys.readouterr().out
        assert "FAIL identity_outside_domain" in out
        assert "ok   is_permutation" in out and "ok   rearranged_dominates_g" in out

    def test_rearrange_demo_runs_square_default(self, tmp_path):
        out = str(tmp_path / "o")
        rc = _run(["rearrange", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "permutation.npy"))
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["meta"]["kind"] == "rearrange"
        assert all(item["ok"] for item in doc["verified"])
