"""Staged resonance pipeline: band selection, replication, unions, rearrangement."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gridhalo.grid import DyadicGrid, GridSet, StepFunction
from gridhalo.growth import log_power_growth
from gridhalo.maxop import BasisSpec, MaxField
from gridhalo.resonance import (
    InfeasibleError,
    ResolutionCapError,
    VerificationError,
    build_divergent_sequences,
    build_rearrangement,
    build_resonance_function,
    check_independence,
    replicate_configuration,
    save_plan,
    save_rearrangement,
    select_level_sets,
    synthetic_resonance_input,
)
from gridhalo import resonance, witness
from gridhalo.witness import build_tile_witness

PHI = log_power_growth(2)


def _banded_function(value, count, bits=(2, 2)):
    grid = DyadicGrid(bits)
    vals = np.full(grid.shape, Fraction(0), dtype=object).ravel()
    vals[:count] = Fraction(value)
    return StepFunction(grid, vals.reshape(grid.shape))


class TestSelectLevelSets:
    def test_single_band_meets_target(self):
        f = _banded_function(3, 8)
        target = PHI(3.0) * 0.4  # below the available 0.5 * phi(3)
        out = select_level_sets(PHI, f, 1, 1.0, target)
        assert len(out) == 1
        A, h = out[0]
        assert h == 3 and float(A.measure()) * PHI(3.0) >= target

    def test_alpha_cap_splits_bands(self):
        f = _banded_function(3, 8)
        out = select_level_sets(PHI, f, 1, lambda t: 0.25, PHI(3.0) * 0.49)
        assert len(out) == 2
        assert all(A.popcount == 4 for A, _ in out)

    def test_values_at_or_below_q_are_skipped(self):
        f = _banded_function(2, 16)
        with pytest.raises(InfeasibleError) as ei:
            select_level_sets(PHI, f, 2, 1.0, 1.0)
        assert ei.value.achieved == 0.0

    def test_infeasible_carries_achieved_mass(self):
        f = _banded_function(3, 8)
        have = PHI(3.0) * 0.5
        with pytest.raises(InfeasibleError) as ei:
            select_level_sets(PHI, f, 1, 1.0, have * 10)
        assert ei.value.achieved == pytest.approx(have)

    def test_sub_cell_cap_rejected(self):
        f = _banded_function(3, 8)
        with pytest.raises(InfeasibleError):
            select_level_sets(PHI, f, 1, lambda t: 1e-6, 0.1)


class TestDivergentSequences:
    def test_shipped_input_selects_one_band_per_stage(self):
        f, _ = synthetic_resonance_input(PHI, 3)
        sel = build_divergent_sequences(PHI, f, 1.0, 3)
        assert len(sel.entries) == 3
        assert [q for _, _, q in sel.entries] == [1, 2, 3]
        hs = [h for _, h, _ in sel.entries]
        assert hs == sorted(hs)
        sel.validate(PHI)

    def test_depth_failure_names_achievable_depth(self):
        f = _banded_function(3, 8)  # supplies stage 1 but not stage 4
        with pytest.raises(InfeasibleError) as ei:
            build_divergent_sequences(PHI, f, 1.0, 4)
        assert isinstance(ei.value.achieved, int)
        assert ei.value.achieved < 4


class TestReplication:
    def test_diluted_tiling_keeps_invariants(self):
        rep = replicate_configuration(
            [BasisSpec("axis", 2)], Fraction(9, 4), Fraction(1, 8), (1, 1), Fraction(1), PHI
        )
        assert rep.uniform_ok and all(rep.containment_ok.values())
        assert rep.j == (1 + 2 + rep.pad[0], 1 + 2 + rep.pad[1])
        density = rep.E.relative_measure()
        assert Fraction(1, 8) / 16 <= density <= Fraction(1, 8)
        # every coarse cell holds the same number of E cells
        per_block = rep.E.mask.reshape(2, rep.E.mask.shape[0] // 2, 2, -1).sum((1, 3))
        assert len(set(per_block.ravel().tolist())) == 1

    def test_cell_outside_rotation_certificate_is_caught(self, monkeypatch):
        def tampered(*args, **kwargs):
            w = build_tile_witness(*args, **kwargs)
            p_sets = dict(w.p_sets)
            for key in w.certificates:
                mask = p_sets[key].mask.copy()
                mask[tuple(np.argwhere(~mask)[0])] = True
                p_sets[key] = GridSet(w.grid, mask)
            return dataclasses.replace(w, p_sets=p_sets)

        monkeypatch.setattr(resonance, "build_tile_witness", tampered)
        f, pads = synthetic_resonance_input(PHI, 1, style="square")
        bases = [BasisSpec("rotated", 2, math.pi / 8)]
        with pytest.raises(VerificationError, match="containment"):
            build_resonance_function(f, bases, PHI, 1, pads=pads)

    def test_target_above_density_rejected(self):
        # the central 2x2 block of the 4x4 base tile has density 1/4
        with pytest.raises(InfeasibleError):
            replicate_configuration(
                [BasisSpec("axis", 2)], Fraction(9, 4), Fraction(1, 2), (0, 0), Fraction(1), PHI
            )

    def test_one_witness_and_one_recheck_per_stage(self, monkeypatch):
        # each stage builds its tile witness once, on the diluted tile, and
        # locates a generic-angle P against the certificate twice: once to
        # make it and once to re-check it where it is replicated
        calls = {"witness": 0, "preimage": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            resonance, "build_tile_witness", counting("witness", build_tile_witness)
        )
        monkeypatch.setattr(
            witness, "rotation_preimage", counting("preimage", witness.rotation_preimage)
        )
        f, pads = synthetic_resonance_input(PHI, 2, style="square")
        plan = build_resonance_function(
            f, [BasisSpec("rotated", 2, math.pi / 8)], PHI, 2, pads=pads
        )
        assert plan.depth == 2
        assert calls["witness"] == 2
        assert calls["preimage"] <= 2 * 2
        key = BasisSpec("rotated", 2, math.pi / 8).describe()
        assert plan.containment_ok[key] == tuple(
            s.containment_ok[key] for s in plan.stages
        )


class TestIndependence:
    def test_product_rule_detects_both_cases(self):
        g = DyadicGrid((2, 2))
        rows = GridSet(g, np.arange(4)[:, None] < 2 * np.ones(4, dtype=int))
        cols = GridSet(g, np.ones(4, dtype=int)[:, None] * (np.arange(4) < 2))
        ok = check_independence([rows, cols])
        assert all(r["ok"] for r in ok)
        bad = check_independence([rows, rows])
        assert not any(r["ok"] for r in bad)

    def test_every_subset_is_checked(self):
        # three bit sets of the cell index and their odd-parity set are
        # 3-wise independent, but all four meet in one cell: 1/8 != 1/16
        g = DyadicGrid((1, 2))
        idx = np.arange(8).reshape(g.shape)
        bits = [GridSet(g, (idx >> b) & 1 == 1) for b in range(3)]
        parity = GridSet(g, (bits[0].mask ^ bits[1].mask ^ bits[2].mask))
        report = check_independence([*bits, parity])
        assert len(report) == 2**4 - 4 - 1
        assert all(r["ok"] for r in report if len(r["subset"]) < 4)
        (full,) = [r for r in report if len(r["subset"]) == 4]
        assert full["intersection"] == Fraction(1, 8) != full["product"]
        assert not full["ok"]


@pytest.fixture(scope="module")
def square_plan():
    f, pads = synthetic_resonance_input(PHI, 2, style="square")
    bases = [
        BasisSpec("axis", 2),
        BasisSpec("rotated", 2, 0.0),
        BasisSpec("rotated", 2, math.pi / 2),
    ]
    plan = build_resonance_function(f, bases, PHI, 2, pads=pads)
    return f, plan


class TestSquarePlan:
    def test_exact_union_and_stage_masses(self, square_plan):
        _, plan = square_plan
        assert plan.verified()
        assert plan.final_grid.resolution == (5, 5)
        key = BasisSpec("axis", 2).describe()
        union, formula, ok = plan.union_masses[key]
        assert ok and union == Fraction(29, 32)
        masses = [P.relative_measure() for P in plan.p_final[key]]
        assert masses == [Fraction(3, 4), Fraction(5, 8)]

    def test_quarter_turn_masses_match_axis(self, square_plan):
        _, plan = square_plan
        k0 = BasisSpec("rotated", 2, 0.0).describe()
        k90 = BasisSpec("rotated", 2, math.pi / 2).describe()
        for i in range(2):
            m0 = plan.p_final[k0][i].relative_measure()
            m90 = plan.p_final[k90][i].relative_measure()
            assert m0 == m90
        assert plan.union_masses[k0][0] == plan.union_masses[k90][0]

    def test_union_exceeds_half_everywhere(self, square_plan):
        _, plan = square_plan
        assert all(u >= Fraction(1, 2) for u, _, _ in plan.union_masses.values())

    def test_g_dominated_by_input_mass(self, square_plan):
        _, plan = square_plan
        assert plan.integral_g <= plan.integral_f
        assert max(plan.g.values.ravel()) == plan.selection.entries[-1][1]

    def test_deep_verify_confirms_refinement_invariance(self):
        f, pads = synthetic_resonance_input(PHI, 2, style="square")
        plan = build_resonance_function(
            f, [BasisSpec("axis", 2)], PHI, 2, pads=pads, deep_verify=True
        )
        assert plan.verified()
        assert all(all(v) for v in plan.containment_ok.values())

    def test_resolution_cap_names_achievable_depth(self):
        f, pads = synthetic_resonance_input(PHI, 2, style="square")
        with pytest.raises(ResolutionCapError) as ei:
            build_resonance_function(
                f, [BasisSpec("axis", 2)], PHI, 2, pads=pads, resolution_cap=2
            )
        assert ei.value.achievable_depth is not None


class TestRearrangement:
    def test_permutation_histogram_and_domination(self, square_plan):
        f, plan = square_plan
        omega = build_rearrangement(f, plan)
        assert omega.is_permutation()
        extra = tuple(
            r - m for r, m in zip(plan.final_grid.resolution, f.grid.resolution)
        )
        f_fine = f.refine(extra)
        moved = np.array(f_fine.values.ravel())[omega.perm]
        gflat = plan.g.values.ravel()
        assert all(a >= b for a, b in zip(moved, gflat))
        assert sorted(map(str, moved)) == sorted(map(str, f_fine.values.ravel()))

    def test_input_without_zero_cells(self, square_plan):
        # 0 is no value of a positive f, yet every f >= 0 dominates g = 0
        f, plan = square_plan
        vals = f.values.copy()
        vals[vals == 0] = Fraction(1, 2)
        positive = StepFunction(f.grid, vals)
        assert positive.support().popcount == f.grid.total_cells
        omega = build_rearrangement(positive, plan)
        assert omega.is_permutation()

    def test_inverse_composes_to_identity(self, square_plan):
        f, plan = square_plan
        omega = build_rearrangement(f, plan)
        assert np.array_equal(
            omega.perm[omega.inverse()], np.arange(len(omega.perm))
        )


class TestSyntheticInput:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_depths_one_to_four(self, K):
        f, pads = synthetic_resonance_input(PHI, K)
        assert len(pads) == K
        sel = build_divergent_sequences(PHI, f, 1.0, K)
        assert len(sel.entries) == K

    def test_depth_beyond_shipping_rejected(self):
        with pytest.raises(InfeasibleError):
            synthetic_resonance_input(PHI, 5)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            synthetic_resonance_input(PHI, 2, style="hex")


class TestSerialization:
    def test_plan_and_permutation_round_trip(self, square_plan, tmp_path):
        f, plan = square_plan
        ppath = save_plan(plan, str(tmp_path))
        with open(ppath) as fh:
            doc = json.load(fh)
        assert doc["final_resolution"] == [5, 5]
        assert len(doc["stages"]) == 2
        assert all(v["ok"] for v in doc["union_masses"].values())
        omega = build_rearrangement(f, plan)
        save_rearrangement(omega, str(tmp_path))
        loaded = np.load(tmp_path / "permutation.npy")
        assert np.array_equal(loaded, omega.perm)
        meta = json.loads((tmp_path / "permutation.json").read_text())
        assert meta["cells"] == plan.final_grid.total_cells


def test_pipeline_reads_no_per_cell_fractions(monkeypatch, tmp_path):
    # every StepFunction payload passes through _set, every MaxField through
    # __init__; record both and check none of them built ``values``
    made = []

    def recording(real):
        def wrapper(self, *args, **kwargs):
            made.append(self)
            return real(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(StepFunction, "_set", recording(StepFunction._set))
    monkeypatch.setattr(MaxField, "__init__", recording(MaxField.__init__))
    f, pads = synthetic_resonance_input(PHI, 2, style="square")
    plan = build_resonance_function(f, [BasisSpec("axis", 2)], PHI, 2, pads=pads)
    build_rearrangement(f, plan)
    save_plan(plan, str(tmp_path))
    assert {type(obj) for obj in made} == {StepFunction, MaxField}
    assert not [obj for obj in made if "values" in obj.__dict__]
