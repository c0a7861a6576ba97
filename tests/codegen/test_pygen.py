"""Unit tests for executable Python code generation."""

import pytest

from repro.apps import adi, sor
from repro.codegen import (
    generate_python_node_programs,
    load_generated_module,
)
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.vmpi import VirtualMPI


@pytest.fixture(scope="module")
def generated():
    app = sor.app(4, 6)
    h = sor.h_nonrectangular(2, 3, 4)
    src = generate_python_node_programs(app.nest, h, mapping_dim=2)
    return app, h, src


class TestEmission:
    def test_self_contained_header(self, generated):
        _, _, src = generated
        assert "Auto-generated" in src
        assert "from repro.runtime.vmpi import Compute, Recv, Send" in src
        # nothing else from the compiler is imported
        imports = [l for l in src.splitlines()
                   if l.startswith(("import ", "from "))]
        assert imports == ["from repro.runtime.vmpi import "
                           "Compute, Recv, Send"]

    def test_schedules_table_per_rank(self, generated):
        app, h, src = generated
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        mod = load_generated_module(src)
        assert set(mod.SCHEDULES) == set(range(prog.num_processors))

    def test_compiles_and_loads(self, generated):
        _, _, src = generated
        mod = load_generated_module(src)
        assert callable(mod.node_program)


class TestGeneratedExecution:
    def test_same_makespan_as_executor(self, generated):
        app, h, src = generated
        spec = ClusterSpec()
        mod = load_generated_module(src)
        engine = VirtualMPI(spec, {r: mod.node_program(r)
                                   for r in mod.RANKS})
        gen_stats = engine.run()
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        direct = DistributedRun(prog, spec).simulate()
        assert abs(gen_stats.makespan - direct.makespan) < 1e-15
        assert gen_stats.total_messages == direct.total_messages
        assert gen_stats.total_elements == direct.total_elements

    def test_multi_array_app(self):
        app = adi.app(4, 5)
        h = adi.h_nr3(2, 3, 3)
        src = generate_python_node_programs(app.nest, h, mapping_dim=0)
        mod = load_generated_module(src)
        spec = ClusterSpec()
        engine = VirtualMPI(spec, {r: mod.node_program(r)
                                   for r in mod.RANKS})
        stats = engine.run()
        prog = TiledProgram(app.nest, h, mapping_dim=0)
        direct = DistributedRun(prog, spec).simulate()
        assert abs(stats.makespan - direct.makespan) < 1e-15

    def test_spec_dependent_constants(self, generated):
        """Compute durations are baked with the spec used at emission."""
        app, h, _ = generated
        fast = ClusterSpec(time_per_iteration=1e-9)
        src = generate_python_node_programs(app.nest, h, mapping_dim=2,
                                            spec=fast)
        mod = load_generated_module(src)
        engine = VirtualMPI(fast, {r: mod.node_program(r)
                                   for r in mod.RANKS})
        stats = engine.run()
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        direct = DistributedRun(prog, fast).simulate()
        assert abs(stats.makespan - direct.makespan) < 1e-15


class TestDenseEmission:
    @pytest.fixture(scope="class")
    def dense_generated(self):
        app = sor.app(4, 6)
        h = sor.h_nonrectangular(2, 3, 4)
        src = generate_python_node_programs(app.nest, h, mapping_dim=2,
                                            engine="dense")
        return app, h, src

    def test_default_is_unchanged(self, generated):
        app, h, src = generated
        again = generate_python_node_programs(app.nest, h, mapping_dim=2,
                                              engine="sparse")
        assert again == src

    def test_unknown_engine_rejected(self):
        app = sor.app(4, 6)
        with pytest.raises(ValueError, match="engine"):
            generate_python_node_programs(
                app.nest, sor.h_rectangular(2, 3, 4), mapping_dim=2,
                engine="cuda")

    def test_wavefront_constant(self, dense_generated):
        app, h, src = dense_generated
        mod = load_generated_module(src)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        assert mod.ENGINE == "dense"
        assert mod.WAVEFRONT == prog.stage("dense_s")

    def test_slice_sizes_sum_to_tile_points(self, dense_generated):
        app, h, src = dense_generated
        mod = load_generated_module(src)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        # every tile-compute event carries the wavefront slice sizes;
        # their total over a rank equals the rank's point count
        expected = {
            prog.rank_of[pid]: sum(prog.tiling.tile_point_count(t)
                                   for t in prog.dist.tiles_of(pid))
            for pid in prog.pids
        }
        for rank, events in mod.SCHEDULES.items():
            total = sum(sum(ev[2]) for ev in events
                        if ev[0] == "compute" and len(ev) == 3)
            assert total == expected[rank]

    def test_same_stats_as_sparse_emission(self, generated,
                                           dense_generated):
        _, _, sparse_src = generated
        _, _, dense_src = dense_generated
        spec = ClusterSpec()
        stats = []
        for src in (sparse_src, dense_src):
            mod = load_generated_module(src)
            engine = VirtualMPI(
                spec, {r: mod.node_program(r) for r in mod.RANKS})
            stats.append(engine.run())
        assert stats[0] == stats[1]

    def test_passes_translation_validation(self, dense_generated):
        from repro.analysis.transval import check_pygen_source
        app, h, src = dense_generated
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        assert check_pygen_source(prog, src) == []


class TestOverlapEmission:
    @pytest.fixture(scope="class")
    def overlap_generated(self):
        app = sor.app(4, 6)
        h = sor.h_nonrectangular(2, 3, 4)
        src = generate_python_node_programs(app.nest, h, mapping_dim=2,
                                            engine="dense-overlap")
        return app, h, src

    def test_engine_constant(self, overlap_generated):
        app, h, src = overlap_generated
        mod = load_generated_module(src)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        assert mod.ENGINE == "dense-overlap"
        assert mod.WAVEFRONT == prog.stage("dense_s")

    def test_boundary_sizes_bounded_by_slices(self, overlap_generated):
        app, h, src = overlap_generated
        mod = load_generated_module(src)
        # tile-compute events carry (time, slice_sizes, boundary_sizes)
        # with boundary[L] <= slice[L] per level, and at least one
        # boundary point wherever the tile sends anything.
        seen = 0
        for events in mod.SCHEDULES.values():
            for ev in events:
                if ev[0] == "compute" and len(ev) == 4:
                    seen += 1
                    sizes, bnd = ev[2], ev[3]
                    assert len(bnd) == len(sizes)
                    assert all(0 <= b <= s
                               for b, s in zip(bnd, sizes))
        assert seen > 0

    def test_same_stats_as_dense_emission(self, overlap_generated):
        app, h, src = overlap_generated
        dense_src = generate_python_node_programs(
            app.nest, h, mapping_dim=2, engine="dense")
        spec = ClusterSpec()
        stats = []
        for s in (dense_src, src):
            mod = load_generated_module(s)
            engine = VirtualMPI(
                spec, {r: mod.node_program(r) for r in mod.RANKS})
            stats.append(engine.run())
        assert stats[0] == stats[1]

    def test_passes_translation_validation(self, overlap_generated):
        from repro.analysis.transval import check_pygen_source
        app, h, src = overlap_generated
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        assert check_pygen_source(prog, src) == []
