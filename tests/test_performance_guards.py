"""Performance guards that count calls, never seconds.

Tier-1 holds no assertion that depends on host speed: each guard
monkeypatches a counter onto the path it protects and bounds the *work*
(calls per compile, per tile, per message).  Wall-clock claims live in
``bench/``; ``docs/BENCHMARKING.md`` maps every retired timing floor to
its workload or to one of these guards.
"""

import sys
import time
from collections import Counter

import pytest

from repro.apps import adi, jacobi, sor
from repro.experiments.figures import sor_factors
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram


def _count_calls(monkeypatch, *targets):
    """Count calls of each ``(owner, name)`` under ``name``."""
    counts = Counter()
    for owner, name in targets:
        def wrapper(*args, _inner=getattr(owner, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    return counts


class TestCompileTime:
    """The paper claims negligible compilation overhead: on the SOR
    anchor experiment (M=100, N=200, 4x4 mesh) the compiler's and the
    simulator's work stays linear in the schedule."""

    @staticmethod
    def _anchor(z):
        x, y = sor_factors(100, 200)
        app = sor.app(100, 200)
        return TiledProgram(app.nest, sor.h_nonrectangular(x, y, z),
                            mapping_dim=2)

    def test_fourier_motzkin_runs_per_compile_not_per_tile(
            self, monkeypatch):
        from repro.polyhedra import fourier_motzkin as fm

        counts = _count_calls(monkeypatch, (fm, "eliminate_variable"))
        tiles = {}
        for z in (4, 8):
            counts.clear()
            tiles[z] = len(self._anchor(z).dist.tiles)  # forces enumeration
            # the two bound derivations of a 3-deep nest, n(n-1) at most
            assert 0 < counts["eliminate_variable"] <= 6
        assert tiles[4] > 1.9 * tiles[8]    # twice the tiles, same algebra

    def test_simulation_issues_one_request_per_planned_event(
            self, monkeypatch):
        from repro.runtime import rankstep, vmpi

        prog = self._anchor(8)
        messages = sum(n for n, _, _ in rankstep.edge_tally(
            rankstep.build_rank_plans(prog)).values())
        counts = _count_calls(
            monkeypatch, (vmpi.VirtualMPI, "_do_send"),
            (vmpi.VirtualMPI, "_try_deliver"),
            (vmpi.VirtualMPI, "_step_until_blocked"),
            (rankstep.VmpiPort, "recv"), (rankstep.VmpiPort, "compute"))
        stats = DistributedRun(prog, ClusterSpec()).simulate()
        assert (counts["_do_send"] == counts["recv"] == messages
                == stats.total_messages)
        assert counts["compute"] == len(prog.dist.tiles)
        # no polling: delivery attempts and rank resumptions stay
        # linear in the message count
        assert (counts["_try_deliver"] + counts["_step_until_blocked"]
                <= 2 * messages)

    def test_cost_certificate_is_one_simulation(self, monkeypatch):
        """COST03 reads the simulator's clock: one certificate builds
        no happens-before graph and runs the virtual cluster once."""
        from repro.analysis.cost import certify_cost
        from repro.analysis.hb.graph import GraphBuilder
        from repro.runtime.vmpi import VirtualMPI

        app = sor.app(10, 14)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(3, 4, 5),
                            mapping_dim=2)
        counts = _count_calls(monkeypatch, (GraphBuilder, "finish"),
                              (VirtualMPI, "run"))
        assert certify_cost(prog).ok
        assert counts == {"run": 1}

    def test_mask_caching_effective(self):
        """Repeated point counts reuse cached per-tile masks."""
        app = sor.app(40, 60)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(11, 26, 8),
                            mapping_dim=2)
        tiles = prog.dist.tiles
        a = [prog.tiling.tile_point_count(t) for t in tiles]
        # every partial tile's mask is now cached...
        partial = [t for t in tiles
                   if prog.tiling.classify_tile(t) == "partial"]
        assert partial
        cache = prog.tiling.stage("masks")
        assert all(tuple(t) in cache for t in partial)
        # ...and a second pass returns identical counts
        assert a == [prog.tiling.tile_point_count(t) for t in tiles]


class TestDenseAddressing:
    """Deterministic counting guards (no timing): the dense back-end
    derives its addresses once per LDS geometry, not once per tile."""

    @staticmethod
    def _counted_run(monkeypatch):
        from repro.linalg.ratmat import RatMat
        from repro.runtime.dense import DenseData, LdsTables, RankLDS

        app = sor.app(20, 30)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(5, 8, 4),
                            mapping_dim=2)
        run = DistributedRun(prog, ClusterSpec())
        counts = Counter()

        def counting(cls, name, key):
            inner = getattr(cls, name)

            def wrapper(self, *args):
                counts[key] += 1
                # DenseData.rank is first called when set-up is over
                # and the rank walk is being assembled.
                counts[key, "walk"] += counts["rank"] > 0
                return inner(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        # Warm: the program's lazily compiled stages (pack regions,
        # masks, the halo tables) are compile-side work, not the body's.
        counting(LdsTables, "to_flat", "to_flat_warm")
        run.execute_dense(app.init_value)
        counting(DenseData, "rank", "rank")
        counting(LdsTables, "to_flat", "to_flat")
        counting(RatMat, "matvec", "matvec")
        counting(RankLDS, "compute_batch", "compute_batch")
        run.execute_dense(app.init_value)
        offsets = len(next(iter(prog.stage("halo_tables").values()))
                      .tables.base)
        return prog, counts, offsets

    def test_to_flat_runs_per_geometry_not_per_tile(self, monkeypatch):
        """The halo tables evaluate the map once per LDS geometry and
        offset, at the first run; a later run evaluates it nowhere."""
        prog, counts, offsets = self._counted_run(monkeypatch)
        ranks, tiles = prog.num_processors, len(prog.dist.tiles)
        assert counts["rank"] == ranks
        assert ranks * offsets < tiles       # the guard can tell them apart
        assert 0 < counts["to_flat_warm"] <= ranks * offsets
        assert counts["to_flat"] == 0

    def test_one_numpy_batch_per_wavefront_level(self, monkeypatch):
        """The deterministic form of "dense >= 10x sparse": the sequential
        oracle evaluates one point at a time, the dense engine one
        wavefront level of a tile at a time."""
        from repro.runtime.dense import tile_levels

        prog, counts, _offsets = self._counted_run(monkeypatch)
        levels = sum(len(tile_levels(prog, tile))
                     for tile in prog.dist.tiles)
        assert counts["compute_batch"] == levels
        assert 5 * levels < prog.total_points()   # far from per point

    def test_no_rational_matvec_in_the_walk(self, monkeypatch):
        """Set-up still solves for the dependences and the field boxes
        in rationals (a handful of calls per statement read); the walk
        and the write-back make none."""
        _prog, counts, _offsets = self._counted_run(monkeypatch)
        assert counts["matvec", "walk"] == 0
        assert counts["matvec"] <= 64


class TestOverlapPhases:
    """Deterministic counting guards (no timing): the overlapped walk
    executes the frozen phase table — one kernel call per non-empty
    phase and one gather per message — the blocking walk still makes
    exactly one kernel call per tile, on both a message has one life:
    reserve, one pack into the ring slot, commit, and the native
    kernels build no per-tile index vector (no ``tile_segments``, no
    ``tile_pure``)."""

    CONFIGS = [
        pytest.param(jacobi.app(6, 12, 12),
                     jacobi.h_nonrectangular(2, 4, 4), 0, id="jacobi"),
        pytest.param(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2,
                     id="sor"),
    ]

    @staticmethod
    def _counted_walk(monkeypatch, tmp_path, app, h, mdim, overlap):
        """Every rank's ``rank_walk`` over the ring port, in this
        process (the workers' scheduler loop without the fork), on the
        native kernels, with the calls of interest counted."""
        import numpy as np

        from repro.artifacts import ArtifactCache
        from repro.native.engine import RankKernels, build_native_library
        from repro.runtime import dense, parallel
        from repro.runtime.dense import (
            DenseData,
            RankLDS,
            prewarm_overlap_plans,
        )

        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        lib = build_native_library(prog, cache=ArtifactCache(str(tmp_path)))
        if not lib.available:
            pytest.skip(f"no native kernels: {lib.fallback_reason}")
        spec = ClusterSpec()
        sim = DistributedRun(prog, spec).simulate()
        prewarm_overlap_plans(prog)
        plans = parallel.build_rank_plans(prog)
        layout = parallel.build_edges(plans, 8)
        meta = np.zeros(sum(2 + e.depth for e in layout.values()),
                        dtype=np.int64)
        slots = np.zeros(sum(e.depth * e.capacity for e in layout.values()),
                         dtype=np.float64)
        rings = {k: parallel._Edge(e, meta, slots)
                 for k, e in layout.items()}
        data = DenseData(prog, app.init_value, np.float64, lib)
        ctrl = np.zeros(3, dtype=np.int64)
        ports = {r: parallel._RingPort(
            r, rings, spec, "eager", ctrl, [0], time.perf_counter_ns(),
            crash=False) for r in plans}
        # rank set-up (LDS buffers, address tables) is not the walk
        ldss = {r: data.rank(plans[r].pid) for r in plans}
        gens = {r: parallel.rank_walk(prog, plans[r], ports[r], ldss[r],
                                      overlap) for r in plans}
        counts = _count_calls(
            monkeypatch, (RankKernels, "_call"), (RankKernels, "run_tile"),
            (parallel._Edge, "commit"), (np, "concatenate"),
            (np, "ascontiguousarray"), (dense, "tile_segments"),
            (DenseData, "tile_pure"))

        def reserve(edge, n, _inner=parallel._Edge.reserve):
            view = _inner(edge, n)
            counts["reserve"] += view is not None
            return view

        def pack(lds, t, k, out=None, _inner=RankLDS.pack):
            counts["pack"] += 1
            counts["pack_into_ring"] += (
                out is not None and np.shares_memory(out, slots))
            return _inner(lds, t, k, out)

        def empty(*args, _inner=np.empty, **kwargs):
            code = sys._getframe(1).f_code
            counts["empty"] += (code.co_name == "pack"
                                or code.co_filename == parallel.__file__)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(parallel._Edge, "reserve", reserve)
        monkeypatch.setattr(RankLDS, "pack", pack)
        monkeypatch.setattr(np, "empty", empty)
        live = list(gens)
        while live:
            for r in list(live):
                try:
                    next(gens[r])
                except StopIteration:
                    live.remove(r)
        monkeypatch.undo()
        for r, lds in ldss.items():
            lds.write_back(plans[r].tiles)
        blocks = parallel.span_blocks(plans)
        spans = np.zeros((blocks[-1], 6), dtype=np.int64)
        for r, port in ports.items():
            spans[blocks[r]:blocks[r + 1]][:len(port.spans)] = port.spans
        stats = parallel._decode_spans(spans, blocks, overlap)
        messages = stats.total_messages
        assert messages == sim.total_messages
        assert stats.total_elements == sim.total_elements
        assert stats.channel_elements == sim.channel_elements
        ref, _ = DistributedRun(prog, spec).execute_dense(app.init_value)
        for name, field in data.fields.items():
            assert np.array_equal(field.values, ref[name].values)
        return prog, plans, counts, messages

    @staticmethod
    def _one_life_per_message(counts, messages):
        """reserve → gather → commit, once each, on either schedule:
        the one gather lands in the ring slot and nothing on the
        message path allocates."""
        assert (counts["reserve"] == counts["commit"] == counts["pack"]
                == counts["pack_into_ring"] == messages > 0)
        assert counts["empty"] == 0

    @pytest.mark.parametrize("app,h,mdim", CONFIGS)
    def test_one_call_per_phase_and_one_gather_per_message(
            self, monkeypatch, tmp_path, app, h, mdim):
        prog, plans, counts, messages = self._counted_walk(
            monkeypatch, tmp_path, app, h, mdim, overlap=True)
        from repro.runtime.dense import overlap_plan

        nonempty = bound = levels = 0
        for plan in plans.values():
            for t in range(len(plan.tiles)):
                oplan = overlap_plan(prog, plan, t)
                nonempty += sum(oplan.cuts[ph.lo] < oplan.cuts[ph.hi]
                                for ph in oplan.phases)
                bound += 1 + len(set(oplan.recv_level)) + len(
                    {p.commit_level for p in oplan.packs})
                levels += oplan.nlevels
        assert counts["_call"] == nonempty <= bound
        assert bound < levels           # the guard can tell them apart
        assert counts["run_tile"] == 0
        self._one_life_per_message(counts, messages)
        # phase arguments are read off the plan: nothing is assembled
        assert counts["concatenate"] == counts["ascontiguousarray"] == 0
        assert counts["tile_segments"] == counts["tile_pure"] == 0

    @pytest.mark.parametrize("app,h,mdim", CONFIGS)
    def test_blocking_walk_is_one_call_per_tile(
            self, monkeypatch, tmp_path, app, h, mdim):
        prog, plans, counts, messages = self._counted_walk(
            monkeypatch, tmp_path, app, h, mdim, overlap=False)
        tiles = [t for plan in plans.values() for t in plan.tiles]
        assert counts["run_tile"] == len(tiles)
        assert counts["_call"] == sum(
            prog.tiling.tile_point_count(t) > 0 for t in tiles)
        self._one_life_per_message(counts, messages)
        assert counts["tile_segments"] == counts["tile_pure"] == 0


class TestBoundaryFillAndWriteBack:
    """Deterministic counting guards (no timing): a dense run asks
    ``init_value`` once per (rank, distinct out-of-domain source cell)
    plus the pure-input table cells — not once per (point, read) — and
    on the native kernels every non-empty tile is one ``repro_tile``
    call and one ``repro_write_back`` call for all its arrays, with no
    numpy write-back and no per-tile index vector."""

    CONFIGS = [
        pytest.param(sor.app(20, 30), sor.h_nonrectangular(5, 8, 4), 2,
                     id="sor"),
        pytest.param(jacobi.app(6, 12, 12),
                     jacobi.h_nonrectangular(2, 4, 4), 0, id="jacobi"),
        pytest.param(adi.app(8, 16), adi.h_nr3(2, 4, 4), 0, id="adi"),
    ]

    @staticmethod
    def _defined_calls(prog):
        """``(per cell, per read)``: the boundary calls counted per
        (rank, distinct source cell) and per (point, read), each plus
        the pure-input table cells."""
        import numpy as np

        from repro.runtime.dense import (
            RefIndexer,
            _access_box,
            read_dependences,
        )

        nest = prog.nest
        amat, bvec = prog.tiling._amat, prog.tiling._bvec
        reads = [(ref, dep) for stmt, row in zip(
            nest.statements, read_dependences(nest))
            for ref, dep in zip(stmt.reads, row)]
        tables = {(ref.array, ref.offset, str(ref.matrix)):
                  int(np.prod(_access_box(ref, nest.domain)[1]))
                  for ref, dep in reads if dep is None}
        per_cell = per_read = sum(tables.values())
        for pid in prog.pids:
            cells = set()
            for tile in prog.dist.tiles_of(pid):
                pts = prog.tiling.tile_points_np(tile)
                for ref, dep in reads:
                    if dep is None:
                        continue
                    ood = np.any(amat @ (pts - np.asarray(dep)).T
                                 > bvec[:, None], axis=0)
                    per_read += int(ood.sum())
                    cells.update((ref.array, *c) for c in RefIndexer.of(
                        ref).cells(pts[ood]).tolist())
            per_cell += len(cells)
        return per_cell, per_read

    @pytest.mark.parametrize("app,h,mdim", CONFIGS)
    def test_one_init_value_call_per_rank_and_cell(self, app, h, mdim):
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        calls = Counter()

        def init(array, cell):
            calls["init_value"] += 1
            return app.init_value(array, cell)

        DistributedRun(prog, ClusterSpec()).execute_dense(init)
        per_cell, per_read = self._defined_calls(prog)
        assert calls["init_value"] == per_cell
        assert per_cell < per_read      # the guard can tell them apart

    @pytest.mark.parametrize("app,h,mdim", CONFIGS)
    def test_native_tile_is_one_call_and_one_write_back(
            self, monkeypatch, tmp_path, app, h, mdim):
        import numpy as np

        from repro.artifacts import ArtifactCache
        from repro.native.engine import build_native_library
        from repro.runtime import dense
        from repro.runtime.dense import DenseData
        from repro.runtime.rankstep import build_rank_plans

        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        lib = build_native_library(prog, cache=ArtifactCache(str(tmp_path)))
        if not lib.available:
            pytest.skip(f"no native kernels: {lib.fallback_reason}")
        run = DistributedRun(prog, ClusterSpec())
        data = DenseData(prog, app.init_value, np.float64, lib)
        rt = data.native_rt
        counts = _count_calls(monkeypatch, (dense, "tile_segments"),
                              (DenseData, "tile_pure"))

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        rt.fns = rt.fns._replace(
            tile=counted("repro_tile", rt.fns.tile),
            write_back=counted("repro_write_back", rt.fns.write_back))
        # a numpy scatter into the fields would raise; C ignores the flag
        for g in data.gtables:
            g.values.flags.writeable = g.written.flags.writeable = False
        run._run(build_rank_plans(prog), data.rank)
        monkeypatch.undo()
        nonempty = sum(prog.tiling.tile_point_count(t) > 0
                       for t in prog.dist.tiles)
        assert counts["repro_tile"] == nonempty
        assert counts["repro_write_back"] == nonempty
        assert counts["tile_segments"] == counts["tile_pure"] == 0
        ref, _ = run.execute_dense(app.init_value)
        for name, field in data.fields.items():
            assert np.array_equal(field.values, ref[name].values)
            assert np.array_equal(field.written, ref[name].written)


class TestOneCompilePerRequest:
    """Deterministic counting guards (no timing): exactly one layer
    turns ``(nest, H, mapping_dim)`` into a compiled program.  The
    ``(nest, h)`` entry points compile once; every program-taking
    renderer and ``check_*`` pass constructs nothing."""

    @staticmethod
    def _count_constructors(monkeypatch):
        from repro.tiling.transform import TilingTransformation

        counts = Counter()
        for cls in (TiledProgram, TilingTransformation):
            def counting(self, *args, _init=cls.__init__,
                         _key=cls.__name__, **kwargs):
                counts[_key] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @staticmethod
    def _config():
        app = sor.app(8, 12)
        return app, sor.h_nonrectangular(2, 3, 4)

    def test_transval_report_compiles_once(self, monkeypatch):
        from repro.analysis import transval_report

        app, h = self._config()
        counts = self._count_constructors(monkeypatch)
        report = transval_report(app.nest, h, mapping_dim=app.mapping_dim)
        assert report.ok and "transval-kernels" in report.passes_run
        assert counts == {"TiledProgram": 1, "TilingTransformation": 1}

    def test_cli_analyze_with_every_pass_compiles_once(self, monkeypatch,
                                                       capsys):
        from repro.cli import main

        counts = self._count_constructors(monkeypatch)
        rc = main(["analyze", "--app", "sor", "-s", "8", "12",
                   "-t", "2", "3", "4", "--shape", "nonrect",
                   "--transval", "--hb", "--cost", "--overlap"])
        assert rc == 0 and "transval-kernels" in capsys.readouterr().out
        assert counts == {"TiledProgram": 1, "TilingTransformation": 1}

    def test_certifiers_rerun_no_compiler_pass(self, monkeypatch):
        """Why certification is a fraction of construction: verifier,
        HB and cost passes read the compiled stages — no constructor,
        Fourier-Motzkin elimination or tile enumeration runs again."""
        from repro.analysis import verify_program
        from repro.polyhedra import fourier_motzkin as fm
        from repro.tiling.transform import TilingTransformation

        app, h = self._config()
        prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
        assert prog.dist.tiles
        built = self._count_constructors(monkeypatch)
        passes = _count_calls(monkeypatch, (fm, "eliminate_variable"),
                              (TilingTransformation, "_enumerate_tiles"))
        assert verify_program(prog).ok
        assert prog.hb_certificate().ok and prog.cost_certificate().ok
        assert not built and not passes

    def test_entry_points_compile_once(self, monkeypatch):
        from repro import codegen

        app, h = self._config()
        counts = self._count_constructors(monkeypatch)
        codegen.generate_mpi_code(app.nest, h, app.mapping_dim)
        codegen.generate_python_node_programs(app.nest, h, app.mapping_dim)
        assert counts == {"TiledProgram": 2, "TilingTransformation": 2}
        codegen.generate_sequential_tiled_code(app.nest, h)
        assert counts == {"TiledProgram": 2, "TilingTransformation": 3}

    def test_renderers_and_checks_construct_nothing(self, monkeypatch):
        from repro import codegen
        from repro.analysis import transval as tv

        app, h = self._config()
        prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
        counts = self._count_constructors(monkeypatch)
        mpi = codegen.render_mpi_code(prog)
        seq = codegen.render_sequential_tiled_code(prog.nest, prog.tiling)
        for engine in ("sparse", "dense", "dense-overlap"):
            pygen = codegen.render_python_node_programs(prog, engine=engine)
            assert tv.check_pygen_source(prog, pygen) == []
        assert tv.check_mpi_text(prog, mpi) == []
        assert tv.check_sequential_text(prog, seq) == []
        assert tv.check_transval(prog) == []
        tv.validate_mpi_text(prog, mpi)
        assert not counts
