"""The known-bad corpus: every defect class must produce its exact code.

Each case constructs (or corrupts) a program with one specific defect
and asserts the verifier pins it with the right diagnostic — and, where
the defect is runtime-observable, that the static verdict agrees with
what actually happens when the program runs.
"""

import dataclasses

import pytest

from repro.apps import heat, jacobi, resolve_config, sor
from repro.analysis import (
    VerificationError,
    analyze,
    analyze_program,
    analyze_tiling,
    verify_program,
)
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.runtime.rankstep import HaloSizeError, freeze_plans
from repro.runtime.vmpi import DeadlockError
from tests.analysis.test_mutation_matrix import (
    ALL_MUTANTS,
    CONFIGS,
    TIER1_ENGINES,
    broken_engines,
    mutant_program,
)


def error_codes(report):
    return sorted({d.code for d in report.errors})


# -- illegal tilings (LEG01) ---------------------------------------------------------


class TestIllegalTilings:
    def test_rectangular_tiling_of_unskewed_sor(self):
        """The paper's rect tiling is only legal *after* skewing."""
        nest = sor.original_nest(4, 6)
        rep = analyze(nest, sor.h_rectangular(2, 3, 3), mapping_dim=2,
                      subject="unskewed sor")
        assert error_codes(rep) == ["LEG01"]
        assert not rep.ok
        # every offending (row, dep) pair is reported, not just the first
        bad = rep.by_code("LEG01")
        assert len(bad) >= 2
        rows = {d.subject_dict()["row"] for d in bad}
        assert len(rows) >= 2
        # the suggestion names the tiling cone's extreme rays
        assert "cone" in bad[0].suggestion

    def test_diamond_tiling_of_skewed_heat(self):
        """h_diamond fits the *unskewed* heat nest; on the skewed one a
        row leaves the cone."""
        app = heat.app(6, 8)
        rep = analyze(app.nest, heat.h_diamond(2),
                      mapping_dim=app.mapping_dim)
        assert error_codes(rep) == ["LEG01"]
        # legality failed, so no program was built and no later pass ran
        assert rep.passes_run == ["legality"]

    def test_diamond_tiling_of_unskewed_heat_is_clean(self):
        app = heat.app_unskewed(6, 8)
        rep = analyze(app.nest, heat.h_diamond(2),
                      mapping_dim=app.mapping_dim)
        assert rep.ok

    def test_construction_still_raises_with_full_violation_list(self):
        nest = sor.original_nest(4, 6)
        with pytest.raises(ValueError, match="negative inner product"):
            TiledProgram(nest, sor.h_rectangular(2, 3, 3), 2)


# -- tiles too small (LEG02) ---------------------------------------------------------


class TestTileTooSmall:
    def test_unit_tile_on_skewed_jacobi(self):
        """The skewed jacobi deps reach 2 along i/j; a 1x1x1 tile cannot
        hold them and the §3.2 halo machinery breaks down."""
        app = jacobi.app(3, 6, 6)
        rep = analyze_tiling(jacobi.h_rectangular(1, 1, 1),
                             app.nest.dependences)
        assert error_codes(rep) == ["LEG02"]
        dims = {d.subject_dict()["dim"] for d in rep.by_code("LEG02")}
        assert dims == {1, 2}
        # the suggested fix names the minimum viable extent
        assert "at least 2" in rep.by_code("LEG02")[0].suggestion

    def test_matches_communication_spec_constructor(self):
        """The precheck must agree exactly with the runtime guard."""
        app = jacobi.app(3, 6, 6)
        with pytest.raises(ValueError, match="tile too small"):
            TiledProgram(app.nest, jacobi.h_rectangular(1, 1, 1), 0)

    def test_adequate_tile_is_clean(self):
        app = jacobi.app(3, 6, 6)
        rep = analyze_tiling(jacobi.h_rectangular(2, 3, 3),
                             app.nest.dependences)
        assert rep.ok and not rep.diagnostics


# -- dropped messages (DL01 + runtime DeadlockError) -------------------------------


class _DroppedSend(TiledProgram):
    """A miscompiled program: tile (0,0,0) forgets its last send — its
    ``rank_plans`` stage is the frozen schedule with that send removed."""

    def _build(self, *args):
        super()._build(*args)
        plans = freeze_plans(self)
        for rank, plan in plans.items():
            if (0, 0, 0) in plan.tiles:
                t = plan.tiles.index((0, 0, 0))
                sends = list(plan.sends)
                sends[t] = sends[t][:-1]
                plans[rank] = dataclasses.replace(plan, sends=tuple(sends))
        self.stages["rank_plans"] = plans


class TestDroppedSend:
    @pytest.fixture(scope="class")
    def broken(self, sor_small):
        return _DroppedSend(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)

    def test_statically_detected_as_unmatched_recv(self, broken):
        rep = analyze_program(broken, subject="dropped send")
        assert "DL01" in error_codes(rep)
        dl = rep.by_code("DL01")[0]
        assert "blocks forever" in dl.message

    def test_runtime_agrees_it_deadlocks(self, broken):
        with pytest.raises(DeadlockError):
            DistributedRun(broken, ClusterSpec()).simulate()

    def test_verify_program_raises(self, broken):
        with pytest.raises(VerificationError) as exc:
            verify_program(broken)
        assert not exc.value.report.ok
        # the race pass also catches the dropped send (it runs first);
        # both verdicts must be in the carried report
        assert "DL01" in error_codes(exc.value.report)
        assert "RACE01" in error_codes(exc.value.report)
        assert "[RACE01]" in str(exc.value)

    def test_verify_flag_guards_construction(self, sor_small):
        with pytest.raises(VerificationError):
            _DroppedSend(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                         mapping_dim=2, verify=True)

    def test_clean_program_passes_verify_flag(self, sor_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2, verify=True)
        assert prog.num_processors > 1


# -- corrupted halo geometry (HALO01/HALO02) ----------------------------------------


class TestOutOfHaloAccess:
    def _corrupt_offsets(self, sor_small, dim):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        off = list(prog.comm.offsets)
        assert off[dim] > 0
        off[dim] = 0
        prog.comm.offsets = tuple(off)
        prog.addressing._lds_by_length.clear()
        return prog

    def test_zeroed_halo_offset_escapes_lds(self, sor_small):
        prog = self._corrupt_offsets(sor_small, dim=0)
        rep = analyze_program(prog, subject="zeroed off_0")
        codes = error_codes(rep)
        assert "HALO01" in codes or "HALO02" in codes
        assert not rep.ok

    def test_diagnostic_carries_cell_and_shape(self, sor_small):
        prog = self._corrupt_offsets(sor_small, dim=0)
        rep = analyze_program(prog)
        halo = [d for d in rep.errors if d.code.startswith("HALO")][0]
        subj = halo.subject_dict()
        assert "cell" in subj and "shape" in subj


# -- uncovered dependences (RACE01) -------------------------------------------------


class TestUncoveredDependence:
    def test_hidden_tile_dependence_is_race01(self, sor_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        dm0 = prog.comm.d_m[0]
        full = prog.comm._dm_to_ds[dm0]
        assert len(full) > 1
        prog.comm._dm_to_ds[dm0] = full[:-1]
        rep = analyze_program(prog, subject="hidden d^S")
        assert "RACE01" in error_codes(rep)
        race = rep.by_code("RACE01")[0]
        assert race.severity == "error"


# -- misplaced messages (RACE01): the halo lands in the wrong place ----------------


MISPLACED = [m for m in ALL_MUTANTS
             if m.kind in ("recv-other-ds", "recv-prev-tile",
                           "send-direction")]


class TestMisplacedMessage:
    """A receive unpacked into another tile's halo (its ``ds`` taken
    from another receive, or posted one chain tile early) and a send
    packed for another processor direction: every channel still pairs
    up, so only RACE01's per-op geometry check sees them."""

    def test_every_config_has_all_three(self):
        assert len(MISPLACED) == 3 * len(CONFIGS)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mutant", MISPLACED, ids=lambda m: m.id)
    def test_race01_fires_and_the_engine_breaks(self, mutant):
        rep = analyze_program(mutant_program(mutant))
        assert "RACE01" in error_codes(rep)
        assert broken_engines(mutant, TIER1_ENGINES["plans"]) == [
            "execute_dense"]


# -- mis-sized sends: the in-process engines refuse them at the send ---------------


MISSIZED = [m for m in ALL_MUTANTS if m.kind in ("send-grow", "send-shrink")]


class TestMissizedSend:
    """A send whose frozen size is one element too many, or one point
    (one element per array) too few, than its pack region: the
    receiver's own size matches the region, so only the sender can
    tell — ``VmpiPort.send`` raises as ``unpack_halo`` does."""

    def test_every_config_has_both(self):
        assert len(MISSIZED) == 2 * len(CONFIGS)

    @pytest.mark.parametrize("mutant", MISSIZED, ids=lambda m: m.id)
    def test_execute_dense_raises(self, mutant):
        init = resolve_config(*CONFIGS[mutant.config])[0].init_value
        with pytest.raises(HaloSizeError, match="size mismatch"):
            DistributedRun(mutant_program(mutant),
                           ClusterSpec()).execute_dense(init)
