"""Unit tests for the TiledProgram compiler output and executor plans."""

import pytest

from repro.apps import adi, sor
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.rankstep import (
    pack_region,
    receive_plan,
    region_count,
    send_plan,
)


@pytest.fixture(scope="module")
def prog(sor_small_module):
    return TiledProgram(sor_small_module.nest,
                        sor.h_nonrectangular(2, 3, 4),
                        mapping_dim=2)


@pytest.fixture(scope="module")
def sor_small_module():
    return sor.app(4, 6)


class TestCompile:
    def test_illegal_tiling_rejected(self, sor_small_module):
        with pytest.raises(ValueError):
            TiledProgram(sor_small_module.original,
                         sor.h_rectangular(2, 3, 4))

    def test_total_points(self, prog):
        assert prog.total_points() == 4 * 6 * 6

    def test_ranks_bijective(self, prog):
        assert len(prog.rank_of) == prog.num_processors
        assert sorted(prog.rank_of.values()) == list(
            range(prog.num_processors))

    def test_arrays(self, prog):
        assert prog.arrays == ["A"]

    def test_tags_distinct(self, prog):
        tags = [prog.comm.tag(dm) for dm in prog.comm.d_m]
        assert len(set(tags)) == len(tags)

    def test_program_is_its_roots_and_the_stage_table(self):
        """Every derived product is a stage row beside its derivation;
        the program itself keeps only these."""
        own = {name for name, value in vars(TiledProgram).items()
               if callable(value)
               or isinstance(value, (property, classmethod))}
        assert own == {"__init__", "from_compiled_state", "_build",
                       "num_processors", "total_points",
                       "hb_certificate", "cost_certificate"}


class TestPlans:
    def test_send_recv_plans_globally_matched(self, prog):
        """Every send has exactly one matching receive (same src/dst/dir),
        with identical element counts, across the whole schedule."""
        narr = len(prog.arrays)
        sends = []
        recvs = []
        for pid in prog.pids:
            for tile in prog.dist.tiles_of(pid):
                for ds, pred, src in receive_plan(prog, tile):
                    n = region_count(prog, pred, ds) * narr
                    if n:
                        recvs.append((src, pid, prog.comm.project(ds), n))
                for dm, dst in send_plan(prog, tile):
                    full = prog.comm.send_direction(dm)
                    n = region_count(prog, tile, full) * narr
                    if n:
                        sends.append((pid, dst, dm, n))
        assert sorted(sends) == sorted(recvs)

    def test_receive_sources_are_predecessors(self, prog):
        for pid in prog.pids:
            for tile in prog.dist.tiles_of(pid):
                for ds, pred, src in receive_plan(prog, tile):
                    assert prog.dist.valid(pred)
                    assert src in prog.rank_of or src not in prog.pids
                    dm = prog.comm.project(ds)
                    assert tuple(a - b for a, b in zip(pid, dm)) == src

    def test_full_region_counts_positive(self, prog):
        for dm in prog.comm.d_m:
            full = prog.comm.send_direction(dm)
            assert pack_region(prog, full).sum() > 0

    def test_region_count_full_tile_shortcut(self, prog):
        full_tiles = [t for t in prog.dist.tiles
                      if prog.tiling.classify_tile(t) == "full"]
        for t in full_tiles[:4]:
            for dm in prog.comm.d_m:
                full = prog.comm.send_direction(dm)
                assert region_count(prog, t, full) == \
                    pack_region(prog, full).sum()


class TestSimulateVsExecuteTiming:
    def test_same_makespan(self, sor_small_module):
        """Data mode and timing mode must produce identical clocks —
        the schedule is the same program."""
        p1 = TiledProgram(sor_small_module.nest,
                          sor.h_nonrectangular(2, 3, 4), mapping_dim=2)
        spec = ClusterSpec()
        sim = DistributedRun(p1, spec).simulate()
        _, ex = DistributedRun(p1, spec).execute(
            sor_small_module.init_value)
        assert abs(sim.makespan - ex.makespan) < 1e-12
        assert sim.total_messages == ex.total_messages
        assert sim.total_elements == ex.total_elements

    def test_deterministic(self, sor_small_module):
        p = TiledProgram(sor_small_module.nest,
                         sor.h_nonrectangular(2, 3, 4), mapping_dim=2)
        spec = ClusterSpec()
        a = DistributedRun(p, spec).simulate()
        b = DistributedRun(p, spec).simulate()
        assert a.makespan == b.makespan
        assert a.clocks == b.clocks


class TestMultiArray:
    def test_adi_message_elements_scale_with_arrays(self):
        app = adi.app(4, 5)
        p = TiledProgram(app.nest, adi.h_rectangular(2, 3, 3),
                         mapping_dim=0)
        assert len(p.arrays) == 2
        stats = DistributedRun(p, ClusterSpec()).simulate()
        # every message carries X and B: element total must be even
        assert stats.total_elements % 2 == 0
