"""Configuration parsing and the experiment command line."""

import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gridhalo
from gridhalo import cli, config, experiments, maxop
from gridhalo.cli import main
from gridhalo.config import ConfigError, ExperimentConfig
from gridhalo.grid import DyadicGrid, StepFunction
from gridhalo.growth import log_power_growth
from gridhalo.maxop import BasisSpec
from gridhalo.reports import RunReport
from gridhalo.witness import MPhiWitness, build_tile_witness


class TestExperimentConfig:
    def test_defaults_and_round_trip(self):
        c = ExperimentConfig.from_mapping("halo", {"grid_bits": "6"})
        assert c.grid_bits == 6

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping("mystery", {})

    def test_h_must_exceed_one(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping("halo", {"h_list": "1, 4"})

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

    @pytest.mark.parametrize("command", ["resonance", "zygmund", "rearrange"])
    @pytest.mark.parametrize("style", ["deep", "square"])
    def test_infeasible_exits_3(self, command, style, tmp_path, capsys):
        # depth 5 passes validation, but no shipped input reaches it
        rc = _run([command, "--depth", "5", "--style", style, "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "infeasible: shipped inputs support depth 1..4\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--resolution-cap", "12"], "unrecognized arguments: --resolution-cap 12"),
            (["--set", "resolution_cap=12"], "unknown config key(s): resolution_cap"),
        ],
    )
    def test_resolution_cap_exits_2(self, argv, message, tmp_path, monkeypatch, capsys):
        # a stage's resolution follows from its pad, so there is no cap to set
        monkeypatch.chdir(tmp_path)
        try:
            code = main(["resonance", *argv])
        except SystemExit as exc:  # the parser's own refusal
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_halo_flat_estimate_exits_3(self, tmp_path, capsys):
        # on 16x16 cells the sample balls hold a cell or a few, so phi_hat
        # reads 1, 5, 5: too coarse to tell h = 3 from h = 4, not a bug
        rc = _run(["halo", "--grid", "4", "--h-list", "2,3,4", "--out", str(tmp_path)])
        assert rc == 3
        assert "from h=3 to h=4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # on 16x16 cells the h = 16 level set reaches the box edge
            (
                ["halo", "--grid", "4"],
                "level set for h=16 reaches the boundary of the grid with 2^4 cells per "
                "axis; use a finer grid or smaller h",
            ),
            # a one-cell ball truncated at 1.2 cells admits no rectangle
            (["halo", "--t-list", "1.2"], "no admissible rectangle shape under this truncation"),
        ],
    )
    def test_halo_out_of_reach_exits_3_with_its_message(self, argv, message, tmp_path, capsys):
        assert _run([*argv, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"infeasible: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "exponent, h, overflow",
        [(400, 256, "(1 + ln h)^399"), (376, 256, "(1 + ln h)^375")],
    )
    def test_halo_band_model_past_the_float_range_exits_3(
        self, exponent, h, overflow, tmp_path, capsys
    ):
        # at h = 256 the power overflows (exponent 400: OverflowError), or
        # the product with h rounds to inf and the band ratio to 0 (exponent
        # 376: "non-positive halo estimate"); both exited 1 with a traceback
        argv = ["halo", "--grid", "9", "--h-list", "4,64,256"]
        assert _run([*argv, "--set", f"growth_exponent={exponent}", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"infeasible: the band model h {overflow} overflows a float at h={h}; "
            "use a smaller growth_exponent\n"
        )
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "rotations, named",
        [("22.5,22.50001", ("22.5 and 22.50001", "I^2(gamma=0.392699)")), ("0,0", ("0.0 and 0.0", "I^2(gamma=0)"))],
    )
    def test_rotations_sharing_a_basis_key_exit_2(self, rotations, named, tmp_path, capsys):
        # bases are keyed by their description, which prints gamma to 6
        # significant digits: two angles with one key would merge into one
        # basis, so the run is refused before any witness is built
        rc = _run(["zygmund", "--depth", "2", "--rotations", rotations, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and all(text in err for text in named)
        assert not (tmp_path / "report.json").exists()

    def test_halo_at_shipped_defaults(self, tmp_path):
        out = str(tmp_path / "o")
        assert _run(["halo", "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["meta"]["grid_bits"] == 10
        assert [row["h"] for row in doc["rows"]] == [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
        assert {item["name"]: item["ok"] for item in doc["verified"]} == {
            "phi_over_h_monotone": True,
            "no_boundary_clipping": True,
            "band_positive": True,
        }

    def test_resonance_run_writes_one_row_per_stage(self, tmp_path):
        # the rows read the plan's band selection, stage by stage
        out = tmp_path / "o"
        assert _run(["resonance", "--depth", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["meta"]["mode"] == "rational"
        assert [(row["stage"], row["q"]) for row in doc["rows"]] == [(1, 1), (2, 2)]
        assert all(item["ok"] for item in doc["verified"])

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
        config = ExperimentConfig.from_mapping("maxfield", {"grid_bits": "7", "h_list": "4"})
        with pytest.raises(Reached) as hit:
            experiments.run_maxfield(config, RunReport({}))
        assert hit.value.args[0] == 2**28 <= experiments.MAXFIELD_SHAPE_CELLS

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shape_count_equals_the_listed_shapes(self, n, k):
        for bits in range(4):
            grid = DyadicGrid((bits,) * n)
            shapes = maxop.enumerate_shapes(maxop.BasisSpec("axis", k), grid)
            assert experiments._shape_count(n, 1 << bits, k) == len(shapes)

    def test_maxfield_grid_8_refused_before_the_field(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(experiments, "max_field_fast", lambda *a, **kw: calls.append(a))
        rc = _run(["maxfield", "--grid", "8", "--out", str(tmp_path)])
        assert rc == 3 and calls == []
        err = capsys.readouterr().err
        assert f"= {2**32}, above the bound {experiments.MAXFIELD_SHAPE_CELLS}" in err
        assert not (tmp_path / "report.json").exists()

    def test_maxfield_cube_count_refuses_before_listing_shapes(
        self, tmp_path, monkeypatch, capsys
    ):
        # the exact count, 196096 shapes x 2^24 cells, refuses at n = 3
        def unreachable(*args, **kwargs):
            raise AssertionError("every shape was listed")

        monkeypatch.setattr(maxop, "enumerate_shapes", unreachable)
        monkeypatch.setattr(experiments, "enumerate_shapes", unreachable)
        rc = _run(["maxfield", "--set", "n=3", "--grid", "8", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"needs 196096 shapes x {2**24} cells = {196096 * 2**24}, above" in err

    def test_maxfield_grid_10_refused_before_the_field(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("every shape was listed")

        monkeypatch.setattr(experiments, "enumerate_shapes", unreachable)
        rc = _run(["maxfield", "--grid", "10", "--out", str(tmp_path)])
        assert rc == 3
        assert f"needs {2**20} shapes x {2**20} cells" in capsys.readouterr().err

    def test_reports_are_deterministic(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = str(tmp_path / name)
            assert _run(["maxfield", "--grid", "4", "--out", out]) == 0
            outs.append(out)
        for fname in ("report.json", "rows.csv"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b, fname

    @pytest.mark.parametrize(
        "argv",
        [
            ["resonance", "--depth", "2", "--set", "n=3"],
            ["halo", "--set", "n=1"],
            ["resonance", "--set", "mode=rational"],
            ["zygmund", "--set", "mode=rational"],
            ["rearrange", "--set", "mode=rational"],
            ["halo", "--set", "mode=rational"],
            ["lemmas", "--set", "mode=rational"],
            ["maxfield", "--set", "mode=rational"],
        ],
    )
    def test_unused_n_and_mode_exit_2(self, argv, tmp_path, capsys):
        # all but maxfield are planar, and every run is exact, so there is
        # no mode key, not even for its one value; a run must not report a
        # setting it did not use
        assert _run([*argv, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["zygmund", "--depth", "1", "--rotations", "nan"],
            ["zygmund", "--depth", "1", "--rotations", "0,inf"],
            ["zygmund", "--depth", "1", "--rotations=-inf"],
            ["resonance", "--depth", "1", "--set", "growth_exponent=0"],
        ],
    )
    def test_non_finite_rotation_and_growth_exponent_below_1_exit_2(self, argv, tmp_path, capsys):
        assert _run([*argv, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("bits", [3, 4])
    def test_lemmas_on_a_small_grid_exits_3(self, bits, tmp_path, capsys):
        # the default h = 4 needs 4 * 8 < 2^bits for the rectangle's level set
        assert _run(["lemmas", "--grid", str(bits), "--out", str(tmp_path)]) == 3
        assert f"grid with 2^{bits} cells per axis is too small" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", [15, 40])
    def test_lemmas_past_the_rectangle_bound_exits_3(self, bits, tmp_path, capsys):
        # the rectangle is 2^(bits - 6) cells per side; --grid 40 asked numpy
        # for 2^68 cells, and the run is refused before any work
        assert _run(["lemmas", "--grid", str(bits), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        side = 2 ** (bits - 6)
        assert f"rectangle of {side}x{side} cells, above the bound 65536" in err
        assert experiments.LEMMAS_RECT_CELLS == 65536
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "bits, radii, side",
        [(40, "100000", 200000), (24, "1,257", 514), (62, "2,3,4,1025", 2050)],
    )
    def test_halo_ball_past_the_cell_bound_exits_3(self, bits, radii, side, tmp_path, monkeypatch, capsys):
        # --grid 40 --r-list 100000 asked numpy for a 200000 x 200000 ball
        # box (298 GiB); the run is refused before any sample, naming the
        # first radius past the bound
        calls = []
        monkeypatch.setattr(experiments, "halo_estimate", lambda *a: calls.append(a))
        tracemalloc.start()
        try:
            rc = _run(["halo", "--grid", str(bits), "--r-list", radii, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 3 and calls == [] and peak < 1 << 20
        err = capsys.readouterr().err
        assert f"radius {radii.split(',')[-1]} cells" in err
        assert f"box of {side}x{side} cells, above the bound {experiments.HALO_BALL_CELLS}" in err
        assert experiments.HALO_BALL_CELLS == 2**18
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("bits, radius", [(24, 256), (9, 100000)])
    def test_halo_ball_at_the_cell_bound_runs(self, bits, radius, monkeypatch):
        # a 512 x 512 box is at the bound: r = 256, or any r on a 2^9 grid,
        # whose ball box is clipped to the grid
        class Reached(Exception):
            pass

        def stop(basis, grid_bits, hs, t_list, r_list):
            raise Reached(r_list)

        monkeypatch.setattr(experiments, "halo_estimate", stop)
        config = ExperimentConfig.from_mapping("halo", {"grid_bits": str(bits), "r_list": str(radius)})
        with pytest.raises(Reached):
            experiments.run_halo(config, RunReport({}))

    def test_lemmas_rows_keep_every_column(self, tmp_path):
        # the level-set rows carry two columns the integral rows lack;
        # rows.csv and rows.dat take their columns from every row
        assert _run(["lemmas", "--grid", "8", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        csv_head = (tmp_path / "rows.csv").read_text().splitlines()[0].split(",")
        assert set(csv_head) == {k for row in doc["rows"] for k in row}
        assert csv_head == [
            "check", "n", "h", "value", "closed_form", "rel_err",
            "ratio_exponent_km1", "normalization_ok",
        ]
        dat = (tmp_path / "rows.dat").read_text().splitlines()
        assert dat[0] == "# n h value closed_form rel_err ratio_exponent_km1"
        assert all(line.split()[-1] == "nan" for line in dat[1:10])
        assert all(line.split()[-1] != "nan" for line in dat[10:])

    def test_lemmas_uses_every_h(self, tmp_path):
        # one placement pass serves every h, so none is dropped
        argv = ["lemmas", "--grid", "8", "--h-list", "2,3,4,5", "--out", str(tmp_path)]
        assert _run(argv) == 0
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert [r["h"] for r in rows if r["check"] == "levelset_growth"] == [2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("h_list", ["4,100", "100"])
    def test_lemmas_h_past_the_grid_exits_3(self, h_list, tmp_path, capsys):
        # h = 100 on the 1024-cell axis needs 100 * 128 < 1024: it is refused
        # by name before any work, not dropped or replaced
        assert _run(["lemmas", "--h-list", h_list, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "grid with 2^10 cells per axis is too small" in err
        assert "at h = 100:" in err and "h * 128 < 1024" in err
        assert not (tmp_path / "report.json").exists()

    def test_default_lemmas_levelset_row(self, tmp_path):
        assert _run(["lemmas", "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        (row,) = [r for r in rows if r["check"] == "levelset_growth"]
        del row["closed_form"], row["rel_err"]  # nan
        assert row == {
            "check": "levelset_growth",
            "n": 2,
            "h": 4.0,
            "value": 0.002559661865234375,
            "ratio_exponent_km1": 1.0983949812335463,
            "normalization_ok": False,
        }

    @pytest.mark.parametrize("bits", ["32", "62"])
    def test_halo_past_32_bits_equals_the_10_bit_run(self, bits, tmp_path):
        # no array spans the grid, and shape areas past int64 stay exact
        rows = {}
        for grid in ("10", bits):
            assert _run(["halo", "--grid", grid, "--out", str(tmp_path / grid)]) == 0
            rows[grid] = (tmp_path / grid / "rows.csv").read_text()
        assert rows[bits] == rows["10"]

    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_grid_past_62_bits_exits_2(self, command, tmp_path, capsys):
        # cell indices are int64; halo --grid 63 overflowed there (exit 1);
        # the staged runs build their grids from the depth, so they refuse
        # any --grid as a setting they would not read
        assert _run([command, "--grid", "63", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        if command in ("resonance", "zygmund", "rearrange"):
            assert f"invalid config: {command} runs do not read grid_bits\n" == err
        else:
            assert ExperimentConfig.from_mapping(command, {"grid_bits": "62"}).grid_bits == 62
            assert "above 62 bits per axis" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("n,bits", [(1, 5), (3, 3)])
    def test_maxfield_off_the_plane(self, n, bits, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run(["maxfield", "--set", f"n={n}", "--grid", str(bits), "--out", str(out)]) == 0
        assert "ok   routes_agree" in capsys.readouterr().out
        doc = json.loads((out / "report.json").read_text())
        assert doc["rows"][0]["grid"] == "x".join([str(2**bits)] * n)
        assert doc["rows"][0]["levelset_cells"] > 0

    @pytest.mark.parametrize("tamper", ["codes", "table"])
    def test_maxfield_routes_disagreeing_in_a_cell_exit_4(
        self, tamper, tmp_path, monkeypatch, capsys
    ):
        # the brute field moved in its first cell: to another entry of the
        # same table, or with the same codes into a table whose top differs
        def tampered(f, *args, **kwargs):
            fld = maxop.max_field_brute(f, *args, **kwargs)
            table, codes = list(fld.table), fld.codes.copy()
            if tamper == "codes":
                codes.flat[0] = (int(codes.flat[0]) + 1) % len(table)
            else:
                table[-1] += 1
            return StepFunction.from_table(fld.grid, table, codes)

        monkeypatch.setattr(experiments, "max_field_brute", tampered)
        assert _run(["maxfield", "--grid", "3", "--out", str(tmp_path)]) == 4
        assert "FAIL routes_agree" in capsys.readouterr().out

    def test_a_stage_tile_failing_a_condition_exits_4(self, tmp_path, monkeypatch, capsys):
        # box_diameter forced False on the 8x8 tiles, which the deep
        # depth-3 plan builds its last two stages on (its first is 4x8):
        # every witness_* line reads the stage tiles g is built from, one
        # line per condition of verify, in its order
        verify = MPhiWitness.verify

        def tampered(self, phi):
            checks = verify(self, phi)
            if self.grid.shape == (8, 8):
                checks["box_diameter"] = False
            return checks

        monkeypatch.setattr(MPhiWitness, "verify", tampered)
        assert _run(["zygmund", "--depth", "3", "--out", str(tmp_path)]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL witness_box_diameter" in lines
        phi = log_power_growth(2)
        tile = build_tile_witness(DyadicGrid((2, 2)), [BasisSpec("axis", 2)], 3, 1, phi)
        names = [line.split()[-1] for line in lines if " witness_" in line]
        assert names == [f"witness_{name}" for name in verify(tile, phi)]
        assert [line for line in lines if line.startswith("FAIL")] == ["FAIL witness_box_diameter"]

    @pytest.mark.parametrize("style", ["square", "deep"])
    def test_rearrange_depth_1_is_infeasible(self, style, tmp_path, capsys):
        # a depth-1 plan ends on 4x4 (square) or 4x8 (deep) cells, coarser
        # than the 8x8 input
        rc = _run(["rearrange", "--style", style, "--depth", "1", "--out", str(tmp_path)])
        assert rc == 3
        assert "rearrange needs --depth 2 or more" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

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
        self, tmp_path, domain_breach, capsys
    ):
        assert _run(["rearrange", "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "fails identity_outside_domain\n" in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_rearrange_demo_runs_square_default(self, tmp_path):
        out = str(tmp_path / "o")
        rc = _run(["rearrange", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "permutation.npy"))
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert doc["meta"]["kind"] == "rearrange"
        assert all(item["ok"] for item in doc["verified"])


# every option once: its argv and the Namespace attribute it sets, typed
_FLAGS = [
    (["--grid", "9"], "grid_bits", 9),
    (["--out", "o"], "out", "o"),
    # a negative value reads as an option unless it is joined by "="
    (["--rotations=-22.5"], "rotations_deg", "-22.5"),
    # any key passes the parser; ExperimentConfig refuses unknown ones
    (["--set", "seed=1"], "set", ["seed=1"]),
    (["--depth", "2"], "depth", 2),
    (["--style", "square"], "style", "square"),
    (["--h-list", "4,8"], "h_list", "4,8"),
    (["--t-list", "2,inf"], "t_list", "2,inf"),
    (["--r-list", "1,2"], "r_list", "1,2"),
    (["--rotations", "0,45"], "rotations_deg", "0,45"),
    (["--set", "k=2", "--set", "n=2"], "set", ["k=2", "n=2"]),
]
_UNSET = {
    "grid_bits": None, "out": None,
    "depth": None, "style": None, "h_list": None, "t_list": None,
    "r_list": None, "rotations_deg": None, "set": [],
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    @pytest.mark.parametrize("argv,attr,value", _FLAGS)
    def test_each_flag_of_each_command(self, command, argv, attr, value):
        args = cli._build_parser().parse_args([command, *argv])
        assert vars(args) == dict(_UNSET, command=command, **{attr: value})

    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_bare_command(self, command):
        assert vars(cli._build_parser().parse_args([command])) == dict(_UNSET, command=command)

    def test_every_flag_is_named_after_its_config_field(self):
        # _merged_mapping passes each flag on under its dest, so a dest
        # that is no field would reach ExperimentConfig as an unknown key
        dests = {action.dest for action in cli._build_parser()._actions}
        assert dests - {"help", "command", "set"} <= set(config._PARSERS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mystery"],
            [],
            ["halo", "--style", "round"],
            ["halo", "--grid", "x"],
            # every run is exact, so there is no arithmetic to choose
            ["halo", "--mode", "rational"],
            # no run draws a random number, so there is no seed to set
            ["halo", "--seed", "3"],
            ["halo", "--set", "seed=1"],
            # there is no result cache to use
            ["maxfield", "--use-cache"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's own refusal
            code = exc.code
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_a_config_file_exits_2(self, tmp_path, monkeypatch, capsys):
        # settings come from the flags and --set alone: a config file,
        # even an empty one, is refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--grid", "8", "--config", "run.cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config run.cfg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# a valid value for every field a run may refuse, and the flag that sets
# it where there is one; n, k and growth_exponent are set by --set alone
_VALUES = {
    "n": "2",
    "k": "2",
    "rotations_deg": "0,45",
    "grid_bits": "5",
    "h_list": "4",
    "t_list": "inf",
    "r_list": "1",
    "depth": "2",
    "style": "deep",
    "growth_exponent": "2",
}
_FLAG_OF = {
    "grid_bits": "--grid",
    "depth": "--depth",
    "style": "--style",
    "h_list": "--h-list",
    "t_list": "--t-list",
    "r_list": "--r-list",
    "rotations_deg": "--rotations",
}
_UNREAD = [
    (kind, name, route)
    for kind in sorted(cli._RUNNERS)
    for name in sorted(set(_VALUES) - set(config._READ_DEFAULTS[kind]))
    for route in ("flag", "set")
    if route != "flag" or name in _FLAG_OF
]


class TestReadFields:
    def test_every_field_but_out_has_a_test_value(self):
        assert set(_VALUES) == set(config._PARSERS) - {"out"}

    @pytest.mark.parametrize("kind, name, route", _UNREAD)
    def test_a_field_the_runner_does_not_read_exits_2(self, kind, name, route, tmp_path, capsys):
        # the run would ignore the setting, so it is refused by name
        value = _VALUES[name]
        argv = [_FLAG_OF[name], value] if route == "flag" else ["--set", f"{name}={value}"]
        out = tmp_path / "o"
        assert main([kind, *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"invalid config: {kind} runs do not read {name}\n"
        assert not out.exists()

    def test_every_unread_field_is_named(self, capsys):
        argv = ["resonance", "--grid", "4", "--h-list", "2", "--t-list", "3", "--rotations", "10"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "invalid config: resonance runs do not read grid_bits, h_list, rotations_deg, t_list\n"
        )

    @pytest.mark.parametrize("kind", sorted(cli._RUNNERS))
    def test_every_read_field_is_accepted(self, kind):
        # each read field set at once, out too
        mapping = {name: _VALUES[name] for name in config._READ_DEFAULTS[kind]}
        if kind == "halo":
            mapping["h_list"] = "4,8,16"
        c = ExperimentConfig.from_mapping(kind, dict(mapping, out="o"))
        assert (c.kind, c.out) == (kind, "o")

    @pytest.mark.parametrize("kind", sorted(cli._RUNNERS))
    def test_each_default_is_read_and_runs(self, kind, tmp_path):
        assert main([kind, "--out", str(tmp_path)]) == 0
        # cli.main times the runner call; no runner adds a span of its own
        assert re.fullmatch(r"total \d+\.\d{3}\n", (tmp_path / "timings.txt").read_text())

    @pytest.mark.parametrize("kind", sorted(cli._RUNNERS))
    def test_the_empty_mapping_is_the_bare_command(self, kind, monkeypatch):
        # the config a bare ``gridhalo KIND`` hands its runner, caught there
        class Reached(Exception):
            pass

        def catch(config, report):
            raise Reached(config)

        monkeypatch.setitem(cli._RUNNERS, kind, catch)
        with pytest.raises(Reached) as hit:
            main([kind])
        assert hit.value.args[0] == ExperimentConfig.from_mapping(kind, {})

    @pytest.mark.parametrize("kind", sorted(cli._RUNNERS))
    def test_a_field_the_run_does_not_read_is_none(self, kind):
        # no run takes another kind's default; report.json records n, k
        # and grid_bits for every kind, so those keep one value
        c = ExperimentConfig.from_mapping(kind, {})
        recorded = {"n": 2, "k": 2, "grid_bits": 10}
        for name in set(config._PARSERS) - set(config._READ_DEFAULTS[kind]) - {"out"}:
            assert getattr(c, name) == recorded.get(name), name

    def test_readme_table_lists_the_read_fields(self):
        # the README's "fields it reads" table, row by row, against the code's
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| subcommand | fields it reads |") + 2
        listed = {}
        for line in itertools.takewhile(lambda s: s.startswith("|"), lines[start:]):
            _, kinds, fields, _ = line.split("|")
            for kind in re.findall(r"`([a-z]+)`", kinds):
                assert kind not in listed, f"{kind} has two rows"
                listed[kind] = set(re.findall(r"`([a-z_]+)`", fields))
        assert listed == {kind: set(f) for kind, f in config._READ_DEFAULTS.items()}

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each stage of the zygmund plan picks its own amplitude, so
            # h_list is refused outright
            (["zygmund", "--depth", "3", "--h-list", "4,8"], "zygmund runs do not read h_list"),
            # maxfield reads h_list[0] alone, so a second sample would be
            # silently ignored
            (["maxfield", "--h-list", "2,3"], "maxfield reads one h sample, not the 2 of h_list"),
        ],
    )
    def test_a_second_h_sample_exits_2(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"invalid config: {message}\n"
        assert not (tmp_path / "report.json").exists()


class TestHaloSampleLists:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--r-list", "0"),
            ("--r-list", "-1"),
            ("--r-list", "1,0"),
            ("--t-list", "0.5"),
            ("--t-list", "1"),
            ("--t-list", "nan"),
            ("--h-list", "4,nan"),
            ("--h-list", "4,inf"),
            ("--h-list", "4,8"),
            ("--h-list", "8,4,16"),
            ("--h-list", "4,4,8"),
        ],
    )
    def test_bad_sample_list_exits_2(self, flag, value, tmp_path, capsys):
        assert main(["halo", "--grid", "4", flag, value, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "flag,value,named",
        [
            ("--r-list", "1,1", "r_list"),
            ("--r-list", "2,1,2", "r_list"),
            ("--t-list", "2,inf,2.0", "t_list"),
            ("--t-list", "inf,inf", "t_list"),
        ],
    )
    def test_repeated_t_or_r_exits_2(self, flag, value, named, tmp_path, capsys):
        # a repeated value would be sampled twice and counted twice in
        # rows.csv's "samples"
        argv = ["halo", "--grid", "9", "--h-list", "4,64,256", flag, value, "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and f"{named} repeats a value" in err
        assert not (tmp_path / "report.json").exists()


def test_cli_import_leaves_out_scipy_integrate():
    # only the log-region quadrature needs it, and it costs most of start-up
    code = "import sys, gridhalo.cli\nprint('scipy.integrate' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(gridhalo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_and_the_gauss_nodes():
    # numpy.polynomial serves the lemmas quadrature alone
    code = (
        "import sys, gridhalo.cli\n"
        "print(sorted(m for m in ('scipy', 'numpy.polynomial') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(gridhalo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_lemmas_run_imports_no_scipy_and_no_hashlib(tmp_path):
    # the Gauss nodes come from numpy.polynomial, which loads neither
    code = (
        "import sys\nfrom gridhalo import cli\n"
        f"rc = cli.main(['lemmas', '--grid', '8', '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'numpy.polynomial' in sys.modules, 'scipy' in sys.modules,"
        " '_hashlib' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(gridhalo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 True False False"


def test_plain_run_imports_no_hashlib_and_writes_no_cache(tmp_path):
    # no halo run hashes, and hashlib loads OpenSSL into every process
    code = (
        "import sys\nfrom gridhalo import cli\n"
        f"rc = cli.main(['halo', '--grid', '4', '--h-list', '2,4,8', '--out', {str(tmp_path)!r}])\n"
        "print(rc, '_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(gridhalo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 False False"
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / ".cache").exists()
