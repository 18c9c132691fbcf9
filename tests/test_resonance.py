"""Staged resonance pipeline: band selection, replication, unions, rearrangement."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gridhalo.grid import (
    DyadicGrid,
    GridSet,
    InfeasibleError,
    StepFunction,
    VerificationError,
    _counts,
    _repeat,
    save_step_function,
)
from gridhalo.growth import log_power_growth
from gridhalo.maxop import BasisSpec
from gridhalo.resonance import (
    StageRecord,
    build_divergent_sequences,
    build_rearrangement,
    build_resonance_function,
    check_independence,
    replicate_configuration,
    save_plan,
    save_rearrangement,
    synthetic_resonance_input,
)
from gridhalo import maxop, resonance, witness
from gridhalo.witness import build_tile_witness
from oracles import (
    dominates_by_numerators,
    independence_by_masks,
    p_sets_on_final_grid,
    permutation_by_stage_sets,
    save_by_numerators,
    stage_sets_on_final_grid,
    step_function,
    unions_by_masks,
)

PHI = log_power_growth(2)


def _banded_function(*bands, bits=(2, 2)):
    """Consecutive row-major runs of ``count`` cells of ``value``, one per
    band (value, count), and zero on the remaining cells."""
    grid = DyadicGrid(bits)
    vals = np.full(grid.total_cells, Fraction(0), dtype=object)
    pos = 0
    for value, count in bands:
        vals[pos : pos + count] = Fraction(value)
        pos += count
    return step_function(grid, vals.reshape(grid.shape))


class TestSelectLevelSets:
    def test_single_band_meets_target(self):
        f = _banded_function((3, 8))  # phi(3) * 1/2 >= 1
        (entry,) = build_divergent_sequences(PHI, f, 1)
        A, h, q = entry
        assert (h, q) == (3, 1) and np.array_equal(A.mask, f.num == 3 * f.den)
        assert PHI(3.0) * float(A.measure()) >= 1

    def test_values_at_or_below_q_are_skipped(self):
        # stage 1 passes over the value 1 (not above 1); stage 2 then finds
        # nothing above 3 and names depth 1 as the largest achievable
        f = _banded_function((1, 8), (3, 8))
        (A, h, q), = build_divergent_sequences(PHI, f, 1)
        assert (h, q, A.popcount) == (3, 1, 8)
        with pytest.raises(InfeasibleError, match="largest achievable depth is 1$"):
            build_divergent_sequences(PHI, f, 2)

    def test_values_no_cell_takes_are_skipped(self):
        # 2 and 4 sit in the table between the bands but on no cell; the
        # selection is that of the function without them
        f = _banded_function((1, 8), (3, 8))
        padded = StepFunction.from_table(f.grid, [*f.table, 4, 2], f.codes)
        assert padded.table == (1, 2, 3, 4)
        (A, h, q), = build_divergent_sequences(PHI, padded, 1)
        assert (h, q) == (3, 1) and np.array_equal(A.mask, f.num == 3 * f.den)
        with pytest.raises(InfeasibleError, match="largest achievable depth is 1"):
            build_divergent_sequences(PHI, padded, 2)

    def test_short_first_band_is_infeasible(self):
        # one cell of value 3 has growth mass phi(3)/16 < 1; the larger band
        # of 5 behind it would suffice, but a stage takes one band only
        f = _banded_function((3, 1), (5, 15))
        with pytest.raises(InfeasibleError) as ei:
            build_divergent_sequences(PHI, f, 1)
        assert f"growth mass {PHI(3.0) / 16:.6g} < 1" in str(ei.value)
        assert str(ei.value).endswith("largest achievable depth is 0")


class TestDivergentSequences:
    def test_shipped_input_selects_one_band_per_stage(self):
        f, _ = synthetic_resonance_input(PHI, 3)
        sel = build_divergent_sequences(PHI, f, 3)
        assert [q for _, _, q in sel] == [1, 2, 3]
        hs = [h for _, h, _ in sel]
        assert hs == sorted(set(hs)) and all(h > q for _, h, q in sel)
        taken = np.zeros(f.grid.shape, dtype=int)
        for A, h, q in sel:
            assert np.array_equal(A.mask, f.values == h)
            assert PHI(float(h) / q) * float(A.measure()) >= q
            taken += A.mask
        assert taken.max() == 1  # the bands are disjoint

    def test_depth_failure_names_achievable_depth(self):
        f = _banded_function((3, 8))  # supplies stage 1 but not stage 4
        with pytest.raises(InfeasibleError, match="largest achievable depth is 1$"):
            build_divergent_sequences(PHI, f, 4)


class TestReplication:
    def test_diluted_tiling_keeps_invariants(self):
        rep = replicate_configuration(
            [BasisSpec("axis", 2)], Fraction(9, 4), Fraction(1, 8), (1, 1), Fraction(1), PHI, (1, 0)
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
            for key in w.p_sets:  # every basis here takes the disk route
                mask = p_sets[key].mask.copy()
                mask[tuple(np.argwhere(~mask)[0])] = True
                p_sets[key] = GridSet(w.grid, mask)
            return dataclasses.replace(w, p_sets=p_sets)

        monkeypatch.setattr(resonance, "build_tile_witness", tampered)
        f, pads = synthetic_resonance_input(PHI, 1, style="square")
        bases = [BasisSpec("rotated", 2, math.pi / 8)]
        with pytest.raises(VerificationError, match="containment"):
            build_resonance_function(f, bases, PHI, 1, pads=pads)

    def test_replicated_cell_outside_rotation_certificate_fails(self):
        # the replicated P itself is compared: one extra cell on the
        # replicated grid fails, and so does a grid off the tile lattice
        f, pads = synthetic_resonance_input(PHI, 1, style="square")
        basis = BasisSpec("rotated", 2, math.pi / 8)
        key = basis.describe()
        (stage,) = build_resonance_function(f, [basis], PHI, 1, pads=pads).stages
        P = stage.p_sets[key]
        assert stage.tile.containment(stage.E, {key: P}) == {key: True}
        mask = P.mask.copy()
        mask[tuple(np.argwhere(~mask)[0])] = True
        bad = GridSet(P.grid, mask)
        assert stage.tile.containment(stage.E, {key: bad}) == {key: False}
        # the disk certificate needs E to hold the tile's E in every copy
        empty = GridSet(P.grid, np.zeros(P.grid.shape, dtype=bool))
        assert stage.tile.containment(empty, {key: P}) == {key: False}
        # a box of another side, which no copy of the tile fills
        off = DyadicGrid(stage.j, side=(Fraction(3, 2), Fraction(1)))
        moved = {key: GridSet(off, P.mask)}
        assert stage.tile.containment(GridSet(off, stage.E.mask), moved) == {key: False}
        assert stage.tile.containment(stage.E, moved) == {key: False}

    def test_fresh_masks_are_frozen_in_place(self, monkeypatch):
        # the replicated E and P sets, the central block, the disk core and
        # its rotation preimage are fresh masks: each is frozen where it is
        # made, never copied through GridSet's constructor
        copied = []
        post_init = GridSet.__post_init__

        def counted(self):
            copied.append(self.grid)
            post_init(self)

        monkeypatch.setattr(GridSet, "__post_init__", counted)
        bases = [BasisSpec("axis", 2), BasisSpec("rotated", 2, math.pi / 8)]
        rep = replicate_configuration(
            bases, Fraction(9, 4), Fraction(1, 8), (1, 1), Fraction(1), PHI, (1, 0)
        )
        assert rep.tile.disk is not None and all(rep.containment_ok.values())
        assert copied == []

    def test_target_above_density_rejected(self):
        # the central 2x2 block of the 4x4 base tile has density 1/4
        with pytest.raises(InfeasibleError):
            replicate_configuration(
                [BasisSpec("axis", 2)], Fraction(9, 4), Fraction(1, 2), (0, 0), Fraction(1), PHI,
                (1, 0),
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
        assert len(plan.stages) == 2
        assert calls["witness"] == 2
        assert calls["preimage"] <= 2 * 2
        key = BasisSpec("rotated", 2, math.pi / 8).describe()
        assert plan.containment_ok[key] == tuple(
            s.containment_ok[key] for s in plan.stages
        )


    def test_no_level_set_beyond_the_stage_tile(self, monkeypatch):
        # the replicated sets are checked from the tile's certificates, so
        # every placement pass a depth-3 build runs lives on its stage's
        # tile box: the exact-route P and its certificates on the tile grid,
        # the disk certificate's U on a refinement of it; never on the
        # replicated grid
        stages = []

        def replicating(*args, **kwargs):
            stages.append([])
            stage = replicate_configuration(*args, **kwargs)
            stages[-1].insert(0, stage.tile.grid)
            return stage

        def placements(f, *args, **kwargs):
            stages[-1].append(f.grid)
            return real(f, *args, **kwargs)

        real = maxop._winners
        monkeypatch.setattr(resonance, "replicate_configuration", replicating)
        monkeypatch.setattr(maxop, "_winners", placements)
        monkeypatch.setattr(witness, "_winners", placements)
        f, pads = synthetic_resonance_input(PHI, 3, style="deep")
        bases = [
            BasisSpec("axis", 2),
            BasisSpec("rotated", 2, math.pi / 2),
            BasisSpec("rotated", 2, math.pi / 8),
        ]
        plan = build_resonance_function(f, bases, PHI, 3, pads=pads)
        assert [s.tile.grid for s in plan.stages] == [tile for tile, *_ in stages]
        assert [s.E.grid.shape for s in plan.stages] == [(4, 8), (32, 32), (256, 256)]
        for tile, *grids in stages:
            assert grids.count(tile) == 1 and len(grids) == 2
            for grid in grids:
                assert grid.side == tile.side
                assert all(g >= t for g, t in zip(grid.resolution, tile.resolution))


def _atoms(sets):
    """Cells per code, bit i of a cell's code set when it is in sets[i]."""
    code = sum(s.mask.astype(np.int64) << i for i, s in enumerate(sets))
    return np.bincount(code.ravel(), minlength=1 << len(sets))


_ORACLE_BASES = [BasisSpec("axis", 2), BasisSpec("rotated", 2, math.pi / 2)]


class TestIndependence:
    def test_product_rule_detects_both_cases(self):
        g = DyadicGrid((2, 2))
        rows = GridSet(g, np.arange(4)[:, None] < 2 * np.ones(4, dtype=int))
        cols = GridSet(g, np.ones(4, dtype=int)[:, None] * (np.arange(4) < 2))
        ok = check_independence(_atoms([rows, cols]))
        assert all(r["ok"] for r in ok)
        bad = check_independence(_atoms([rows, rows]))
        assert not any(r["ok"] for r in bad)
        assert ok == independence_by_masks([rows, cols])
        assert bad == independence_by_masks([rows, rows])

    def test_every_subset_is_checked(self):
        # n bit sets of the cell index and their odd-parity set are n-wise
        # independent, but all n + 1 meet in the one cell with every bit set
        # when n is odd and in none when n is even: never 1/2^(n+1)
        for n, res in ((3, (1, 2)), (8, (4, 4))):
            g = DyadicGrid(res)
            idx = np.arange(1 << n).reshape(g.shape)
            bits = [GridSet(g, (idx >> b) & 1 == 1) for b in range(n)]
            parity = GridSet(g, np.bitwise_xor.reduce([b.mask for b in bits]))
            report = check_independence(_atoms([*bits, parity]))
            assert len(report) == 2 ** (n + 1) - (n + 1) - 1
            assert report == independence_by_masks([*bits, parity])
            assert all(r["ok"] for r in report if len(r["subset"]) <= n)
            (full,) = [r for r in report if len(r["subset"]) == n + 1]
            assert full["intersection"] == Fraction(n % 2, 1 << n) != full["product"]
            assert not full["ok"]

    def test_nine_stages_take_uint16_codes(self):
        # stage k holds the odd cells of 2^k cells, which on the final
        # 2^9 cells is bit 9 - k of the cell index: nine independent sets
        # whose codes need nine bits
        stages = [
            StageRecord(
                (k - 1,), (k,), None, None,
                {"b": GridSet(DyadicGrid((k,)), np.arange(1 << k) % 2 == 1)}, None, True, {},
            )
            for k in range(1, 10)
        ]
        code = resonance._stage_code(stages, "b")
        assert code.dtype == np.uint16 and code.shape == (1 << 9,)
        idx = np.arange(1 << 9)
        final = [GridSet(DyadicGrid((9,)), (idx >> (9 - k)) & 1 == 1) for k in range(1, 10)]
        report = check_independence(_counts(code, 1 << 9))
        assert report == independence_by_masks(final)
        assert len(report) == 2**9 - 9 - 1 and all(r["ok"] for r in report)

    @pytest.mark.parametrize("style", ["deep", "square"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_atoms_equal_the_mask_oracles(self, style, depth):
        f, pads = synthetic_resonance_input(PHI, depth, style=style)
        plan = build_resonance_function(f, _ORACLE_BASES, PHI, depth, pads=pads)
        for key, sets in p_sets_on_final_grid(plan).items():
            code = resonance._stage_code(plan.stages, key)
            for k, P in enumerate(sets):
                assert np.array_equal((code >> k) & 1 == 1, P.mask)
            assert plan.independence[key] == independence_by_masks(sets)
            assert plan.unions[key] == unions_by_masks(sets)

    def test_a_flipped_stage_bit_fails(self, monkeypatch):
        # one cell moved in or out of one P_k breaks independence or the
        # union identity, wherever it is
        f, pads = synthetic_resonance_input(PHI, 3, style="deep")
        plan = build_resonance_function(f, _ORACLE_BASES[:1], PHI, 3, pads=pads)
        cells = plan.final_grid.total_cells
        stage_code = resonance._stage_code
        for cell in (0, cells - 1, *np.random.default_rng(3).integers(cells, size=3).tolist()):
            for k in range(3):
                def flipped(stages, key=None, cell=cell, k=k):
                    code = stage_code(stages, key)
                    if key is not None:
                        code.reshape(-1)[cell] ^= 1 << k
                    return code

                monkeypatch.setattr(resonance, "_stage_code", flipped)
                with pytest.raises(VerificationError, match="invariant failed after assembly"):
                    build_resonance_function(f, _ORACLE_BASES[:1], PHI, 3, pads=pads)

    def test_a_dropped_stage_fails_the_union_identity(self, monkeypatch):
        # with P_2's bit cleared in every cell the atoms stay independent
        # (P_2 is empty), so only the union identity, which reads the
        # stage's own measure, can refuse the plan
        f, pads = synthetic_resonance_input(PHI, 3, style="deep")
        stage_code = resonance._stage_code

        def dropped(stages, key=None):
            code = stage_code(stages, key)
            return code if key is None else code & ~np.uint8(2)

        plan = build_resonance_function(f, _ORACLE_BASES[:1], PHI, 3, pads=pads)
        (key,) = plan.basis_keys
        atoms = _counts(dropped(plan.stages, key), 8)
        assert all(r["ok"] for r in check_independence(atoms))
        monkeypatch.setattr(resonance, "_stage_code", dropped)
        with pytest.raises(VerificationError, match="invariant failed after assembly"):
            build_resonance_function(f, _ORACLE_BASES[:1], PHI, 3, pads=pads)


def _arrays(*roots) -> dict:
    """id -> array for every ndarray reachable from ``roots`` through
    attributes, dict keys and values, and sequence items."""
    seen, found, todo = set(), {}, list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, str, int, float, Fraction)):
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found[id(x)] = x
        elif isinstance(x, dict):
            todo.extend([*x.keys(), *x.values()])
        elif isinstance(x, (list, tuple, set, frozenset)):
            todo.extend(x)
        elif hasattr(x, "__dict__"):
            todo.extend(vars(x).values())
    return found


def test_plan_holds_no_final_grid_copy_of_the_stage_sets():
    # apart from what the tiles and the input's bands hold on their own
    # grids, a plan's arrays are its stage sets and g's codes
    f, pads = synthetic_resonance_input(PHI, 3, style="deep")
    plan = build_resonance_function(f, _ORACLE_BASES, PHI, 3, pads=pads)
    own = [plan.g.codes] + [
        a for s in plan.stages for a in (s.E.mask, *(P.mask for P in s.p_sets.values()))
    ]
    small = _arrays([s.tile for s in plan.stages], plan.selection)
    rest = [a for i, a in _arrays(plan).items() if i not in small]
    assert {id(a) for a in rest} == {id(a) for a in own}
    assert sum(a.nbytes for a in rest) == sum(a.nbytes for a in own) > 0


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
        masses = [P.relative_measure() for P in p_sets_on_final_grid(plan)[key]]
        assert masses == [Fraction(3, 4), Fraction(5, 8)]

    def test_quarter_turn_masses_match_axis(self, square_plan):
        _, plan = square_plan
        k0 = BasisSpec("rotated", 2, 0.0).describe()
        k90 = BasisSpec("rotated", 2, math.pi / 2).describe()
        p_final = p_sets_on_final_grid(plan)
        for i in range(2):
            m0 = p_final[k0][i].relative_measure()
            m90 = p_final[k90][i].relative_measure()
            assert m0 == m90
        assert plan.union_masses[k0][0] == plan.union_masses[k90][0]

    def test_union_exceeds_half_everywhere(self, square_plan):
        _, plan = square_plan
        assert all(u >= Fraction(1, 2) for u, _, _ in plan.union_masses.values())

    def test_g_dominated_by_input_mass(self, square_plan):
        _, plan = square_plan
        assert plan.integral_g <= plan.integral_f
        assert max(plan.g.values.ravel()) == plan.selection[-1][1]

    def test_final_grid_containment_on_both_routes(self):
        # refinement keeps every stage's containment: each tile re-checks
        # its sets refined to the final grid, on the exact and disk routes
        f, pads = synthetic_resonance_input(PHI, 2, style="square")
        bases = [BasisSpec("axis", 2), BasisSpec("rotated", 2, math.pi / 8)]
        plan = build_resonance_function(f, bases, PHI, 2, pads=pads)
        assert plan.verified()
        assert plan.stages[0].j != plan.final_grid.resolution
        e_final = stage_sets_on_final_grid(plan)
        p_final = p_sets_on_final_grid(plan)
        for i, s in enumerate(plan.stages):
            p_sets = {key: p_final[key][i] for key in plan.basis_keys}
            got = s.tile.containment(e_final[i], p_sets)
            assert got == dict.fromkeys(plan.basis_keys, True)


class TestRearrangement:
    def test_permutation_histogram_and_domination(self, square_plan):
        f, plan = square_plan
        omega = build_rearrangement(f, plan)
        names = ["is_permutation", "histogram_preserved", "rearranged_dominates_g",
                 "identity_outside_domain"]
        assert omega.checks == dict.fromkeys(names, True)
        assert np.array_equal(np.sort(omega.perm), np.arange(plan.final_grid.total_cells))
        extra = tuple(
            r - m for r, m in zip(plan.final_grid.resolution, f.grid.resolution)
        )
        fine = _repeat(f.values, extra).ravel()
        moved = fine[omega.perm]
        gflat = plan.g.values.ravel()
        assert all(a >= b for a, b in zip(moved, gflat))
        assert sorted(map(str, moved)) == sorted(map(str, fine))

    def test_input_without_zero_cells(self, square_plan):
        # 0 is no value of a positive f, yet every f >= 0 dominates g = 0
        f, plan = square_plan
        vals = f.values.copy()
        vals[vals == 0] = Fraction(1, 2)
        positive = step_function(f.grid, vals)
        assert np.count_nonzero(positive.num) == f.grid.total_cells
        omega = build_rearrangement(positive, plan)
        assert np.array_equal(np.sort(omega.perm), np.arange(plan.final_grid.total_cells))
        # 32 zero cells of the 8x8 input became 1/2, each band holds 16; the
        # final grid splits every input cell into 16
        bands = [(h, 256, 256) for _, h, _ in plan.selection]
        assert list(omega.histogram) == [(Fraction(1, 2), 512, 512), *bands]

    def test_moving_a_cell_off_the_domain_raises(self, square_plan, domain_breach):
        f, plan = square_plan
        with pytest.raises(VerificationError, match="fails identity_outside_domain$"):
            build_rearrangement(f, plan)

    @pytest.mark.parametrize(
        "style, depth", [("square", 2), ("square", 3), ("deep", 2), ("deep", 3)]
    )
    def test_codes_equal_the_mask_and_numerator_routes(self, style, depth, tmp_path):
        # E'_k is g's code k, the permutation is the one the refined stage
        # masks give, domination holds on cross-multiplied numerators, and
        # g.txt is the text the numerator sort writes
        f, pads = synthetic_resonance_input(PHI, depth, style=style)
        plan = build_resonance_function(f, [BasisSpec("axis", 2)], PHI, depth, pads=pads)
        omega = build_rearrangement(f, plan)
        e_final = stage_sets_on_final_grid(plan)
        later = np.zeros(plan.final_grid.shape, dtype=bool)
        for k in reversed(range(depth)):
            assert np.array_equal(plan.g.codes == k + 1, e_final[k].mask & ~later)
            later |= e_final[k].mask
        assert np.array_equal(plan.g.codes != 0, later)
        extra = [r - m for r, m in zip(plan.final_grid.resolution, f.grid.resolution)]
        bands = [_repeat(A.mask, extra) for A, _, _ in plan.selection]
        assert np.array_equal(omega.perm, permutation_by_stage_sets(e_final, bands))
        assert dominates_by_numerators(f, plan.g, omega.perm)
        save_step_function(plan.g, tmp_path / "g.txt")
        save_by_numerators(plan.g, tmp_path / "oracle.txt")
        assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()

    @pytest.mark.parametrize("chunk", [1000, 1 << 12, 1 << 20])
    @pytest.mark.parametrize("style", ["square", "deep"])
    def test_chunked_walks_equal_the_mask_route(self, style, chunk, monkeypatch):
        # the index walks go a chunk at a time: chunks that do and do not
        # divide the 2^16 final cells, and one past them
        monkeypatch.setattr(resonance, "_CHUNK", chunk)
        f, pads = synthetic_resonance_input(PHI, 3, style=style)
        plan = build_resonance_function(f, [BasisSpec("axis", 2)], PHI, 3, pads=pads)
        omega = build_rearrangement(f, plan)
        extra = [r - m for r, m in zip(plan.final_grid.resolution, f.grid.resolution)]
        bands = [_repeat(A.mask, extra) for A, _, _ in plan.selection]
        expected = permutation_by_stage_sets(stage_sets_on_final_grid(plan), bands)
        assert omega.perm.dtype == np.int32
        assert np.array_equal(omega.perm, expected)
        assert all(omega.checks.values())

    @pytest.mark.parametrize("where", [0.0, 0.3, 0.6, 0.99])
    def test_chunked_proof_sees_every_chunk(self, square_plan, monkeypatch, where):
        # one cell of g's top stage and one cell off every band and stage
        # set (where f is 0), each in any of 16 chunks, swap images
        monkeypatch.setattr(resonance, "_CHUNK", 64)
        real = resonance._permutation

        def swapped(stage_codes, band_codes, depth):
            perm = real(stage_codes, band_codes, depth)
            top = np.flatnonzero(stage_codes == depth)
            off = np.flatnonzero((stage_codes == 0) & (band_codes == 0))
            a, b = top[int(where * len(top))], off[int((1 - where) * (len(off) - 1))]
            perm[[a, b]] = perm[[b, a]]
            return perm

        monkeypatch.setattr(resonance, "_permutation", swapped)
        f, plan = square_plan
        with pytest.raises(
            VerificationError, match="fails rearranged_dominates_g, identity_outside_domain$"
        ):
            build_rearrangement(f, plan)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunked_send(self, chunk, monkeypatch):
        # sources dense where targets are sparse and the other way round,
        # so the targets not yet sent to span several chunks
        monkeypatch.setattr(resonance, "_CHUNK", chunk)
        cells = np.arange(1000)
        sources = (cells < 300) | (cells % 7 == 0)
        targets = (cells % 2 == 0) | (cells > 900)
        src, tgt = np.flatnonzero(sources), np.flatnonzero(targets)
        assert len(tgt) > len(src)
        expected = cells.copy()
        expected[src] = tgt[: len(src)]
        perm = cells.copy()
        taken = np.zeros(cells.size, dtype=bool)
        resonance._send(perm, lambda sl: sources[sl], lambda sl: targets[sl], taken)
        assert np.array_equal(perm, expected)
        assert np.array_equal(np.flatnonzero(taken), tgt[: len(src)])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_a_flipped_dominance_entry_raises(self, square_plan, monkeypatch, k):
        # every cell pairs g's value with the f value moved there; flipping
        # the entry for g's code k and f's own value there (h_k, or 0 off
        # every stage set) must fail the proof
        f, plan = square_plan
        real = resonance._dominance

        def flipped(f_table, g_table):
            table = real(f_table, g_table)
            i = f_table.index(g_table[k])
            table[i, k] = not table[i, k]
            return table

        monkeypatch.setattr(resonance, "_dominance", flipped)
        with pytest.raises(VerificationError, match="fails rearranged_dominates_g$"):
            build_rearrangement(f, plan)

    def test_a_grid_at_the_int32_bound_is_refused(self, square_plan, monkeypatch):
        # the bound is moved to the plan's 2^10 final cells, so no grid of
        # 2^31 cells is ever allocated: at the bound the run is refused by
        # name, one cell below it the permutation is built
        f, plan = square_plan
        assert resonance.PERMUTATION_CELLS == 1 << 31
        monkeypatch.setattr(resonance, "PERMUTATION_CELLS", 1024)
        with pytest.raises(
            InfeasibleError,
            match="rearrangement of 1024 cells needs an int32 permutation, "
            "which indexes fewer than 1024 cells$",
        ):
            build_rearrangement(f, plan)
        monkeypatch.setattr(resonance, "PERMUTATION_CELLS", 1025)
        assert build_rearrangement(f, plan).perm.dtype == np.int32


class TestSyntheticInput:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_depths_one_to_four(self, K):
        f, pads = synthetic_resonance_input(PHI, K)
        assert len(pads) == K
        sel = build_divergent_sequences(PHI, f, K)
        assert len(sel) == K

    @pytest.mark.parametrize("exponent", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "deltas", [resonance._DEEP_DELTAS, resonance._SQUARE_DELTAS], ids=["deep", "square"]
    )
    def test_amplitude_is_the_least_multiple_of_1_64_reaching_the_target(self, exponent, deltas):
        # every stage of the shipped inputs asks for phi(amp) >= k / delta_k
        phi = log_power_growth(exponent)
        for k, delta in enumerate(deltas, start=1):
            need = k / float(delta)
            amp = resonance._amp_for(phi, need)
            assert 64 % amp.denominator == 0 and amp > 1
            assert phi(float(amp)) >= need > phi(float(amp - Fraction(1, 64)))

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("style", ["deep", "square"])
    def test_band_heights_exceed_their_index_and_increase(self, style, K, exponent):
        # h_k >= amp * k with amp > 1, and each band sits above the last
        f, _ = synthetic_resonance_input(log_power_growth(exponent), K, style=style)
        heights = f.table[1:]
        assert len(heights) == K
        assert all(h > k for k, h in enumerate(heights, start=1))
        assert all(a < b for a, b in zip(heights, heights[1:]))

    def test_a_flat_growth_function_is_refused(self):
        with pytest.raises(InfeasibleError, match="too flat"):
            resonance._amp_for(lambda t: min(t, 5.0), 6.0)

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

    @pytest.mark.parametrize("chunk", [100, 256, 1 << 16])
    def test_permutation_file_is_the_int64_save(self, square_plan, tmp_path, monkeypatch, chunk):
        # converted from int32 a chunk at a time, the file is np.save of the
        # int64 permutation byte for byte: chunks that do and do not divide
        # its 1024 cells, and one past them
        f, plan = square_plan
        omega = build_rearrangement(f, plan)
        monkeypatch.setattr(resonance, "_CHUNK", chunk)
        save_rearrangement(omega, str(tmp_path))
        np.save(tmp_path / "oracle.npy", omega.perm.astype(np.int64))
        assert (tmp_path / "permutation.npy").read_bytes() == (tmp_path / "oracle.npy").read_bytes()


def test_pipeline_reads_no_per_cell_fractions(monkeypatch, tmp_path):
    # every StepFunction payload passes through _set, and a max field's
    # table through maxop._value_table; record both, check that no max
    # field is made at all (level sets come from max_level_set), that no
    # step function built ``values`` and that g, uint8 codes on the final
    # grid, never built its numerators
    made = []

    def recording(real):
        def wrapper(self, *args, **kwargs):
            made.append(self)
            return real(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(StepFunction, "_set", recording(StepFunction._set))
    monkeypatch.setattr(maxop, "_value_table", recording(maxop._value_table))
    f, pads = synthetic_resonance_input(PHI, 2, style="square")
    plan = build_resonance_function(f, [BasisSpec("axis", 2)], PHI, 2, pads=pads)
    build_rearrangement(f, plan)
    save_plan(plan, str(tmp_path))
    assert {type(obj) for obj in made} == {StepFunction}
    assert not [obj for obj in made if "values" in obj.__dict__]
    assert plan.g in made and "num" not in plan.g.__dict__
    assert plan.g.codes.dtype == np.uint8
