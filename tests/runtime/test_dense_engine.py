"""Correctness of the dense vectorized execution engine.

The sequential oracle (`run_sequential`) is the semantic reference, and
the compiled §2.3 text its twin for the tiled order; every dense run
here is cross-checked against them **bitwise** (``tol=0.0``) — a
statement's kernel expr performs the same IEEE-754 operations in the
same order on a scalar and on a batch (``tests/loops/test_kexpr.py``),
so any drift is a real indexing or scheduling bug, not float noise.
Its :class:`RunStats` are the timing-only ``simulate()``'s.
"""

import importlib

import numpy as np
import pytest

from repro import execute
from repro.apps import adi, heat, jacobi, sor
from repro.codegen import (
    generate_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    HaloSizeError,
    ParallelRuntimeError,
    TiledProgram,
    arrays_match,
    dense_to_cells,
    level_batches,
    read_dependences,
    run_sequential,
    wavefront_vector,
)
from tests.conftest import requires_cc

SPEC = ClusterSpec()


class TestWavefrontVector:
    def test_no_deps_is_zero(self):
        assert wavefront_vector([], 3) == (0, 0, 0)

    def test_axis_preferred(self):
        # every dependence advances along axis 0 => a single coordinate
        # suffices and gives the fewest levels
        assert wavefront_vector([(1, 0), (1, 1), (2, -1)], 2) == (1, 0)

    def test_axis_min_extent_wins(self):
        # both axes qualify; the smaller extent means fewer levels
        s = wavefront_vector([(1, 2), (2, 1)], 2, extents=[100, 5])
        assert s == (0, 1)

    def test_all_ones_for_nonnegative_deps(self):
        # no single axis covers both, but all deps are componentwise >= 0
        assert wavefront_vector([(1, 0), (0, 1)], 2) == (1, 1)

    def test_weighted_for_lex_positive_deps(self):
        # an unskewed stencil: (1, -1) rules out axis 1 and all-ones
        deps = [(1, 0), (1, -1), (1, 1)]
        s = wavefront_vector(deps, 2)
        for d in deps:
            assert sum(a * b for a, b in zip(s, d)) >= 1

    def test_zero_dependence_rejected(self):
        with pytest.raises(ValueError):
            wavefront_vector([(1, 0), (0, 0)], 2)

    def test_validates_result(self):
        # lexicographically *negative* dependence admits no schedule
        with pytest.raises(ValueError):
            wavefront_vector([(1, 0), (-1, 0)], 2)


class TestLevelBatches:
    def test_zero_vector_single_batch(self):
        pts = np.array([[0, 0], [1, 1], [2, 2]])
        batches = level_batches(pts, (0, 0))
        assert len(batches) == 1
        assert batches[0].tolist() == [0, 1, 2]

    def test_partition_is_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 5, size=(40, 3))
        batches = level_batches(pts, (1, 2, 3))
        got = np.concatenate(batches)
        assert sorted(got.tolist()) == list(range(40))

    def test_levels_increase_and_are_uniform(self):
        pts = np.array([[2, 0], [0, 0], [1, 0], [0, 1], [1, 1]])
        s = (1, 1)
        batches = level_batches(pts, s)
        levels = [set((pts[b] @ np.array(s)).tolist()) for b in batches]
        assert all(len(lv) == 1 for lv in levels)
        flat = [lv.pop() for lv in levels]
        assert flat == sorted(flat)

    def test_stable_within_level(self):
        pts = np.array([[0, 1], [1, 0], [0, 1]])
        batches = level_batches(pts, (1, 1))
        assert batches[0].tolist() == [0, 1, 2]


class TestReadDependences:
    def test_shape_matches_statements(self):
        nest = sor.app(4, 6).nest
        deps = read_dependences(nest)
        assert len(deps) == len(nest.statements)
        for stmt, ds in zip(nest.statements, deps):
            assert len(ds) == len(stmt.reads)

    def test_self_deps_nonneg_after_skewing(self):
        # the skewed SOR nest is legal, so every same-array read
        # dependence is lexicographically positive
        nest = sor.app(4, 6).nest
        for ds in read_dependences(nest):
            for d in ds:
                if d is not None and any(d):
                    assert next(x for x in d if x != 0) > 0


# One tile holds the whole nest: one rank computes every point in the
# dense engine's wavefront order and sends nothing.
DENSE_SEQ_APPS = [
    pytest.param(sor.app(4, 6), sor.h_rectangular(64, 64, 64), 2,
                 id="sor"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_rectangular(64, 64, 64),
                 0, id="jacobi"),
    pytest.param(adi.app(4, 5), adi.h_rectangular(64, 64, 64), 0,
                 id="adi"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(64, 64), 1,
                 id="heat"),
    pytest.param(heat.app_unskewed(4, 8), heat.h_diamond(64), 1,
                 id="heat-unskewed"),
]


class TestDenseSequentialBitwise:
    @pytest.mark.parametrize("app,h,mdim", DENSE_SEQ_APPS)
    def test_matches_sparse_reference(self, app, h, mdim):
        """The dense engine on a single tile against the sequential
        oracle (the id predates the removal of the dense sequential
        interpreter this case used to run)."""
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        fields, stats = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        assert stats.total_messages == 0
        ref = run_sequential(app.nest, app.init_value)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)


# (app, tiling, mapping_dim) configurations, chosen to hit partial
# tiles, nonrectangular tilings, multi-array nests, and c > 1 strides.
EXEC_CONFIGS = [
    pytest.param(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2,
                 id="sor-rect"),
    pytest.param(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2,
                 id="sor-nonrect"),
    pytest.param(sor.app(5, 7), sor.h_rectangular(3, 4, 5), 2,
                 id="sor-partial-tiles"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3), 0,
                 id="jacobi-rect"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_nonrectangular(2, 4, 3),
                 0, id="jacobi-nonrect"),
    pytest.param(adi.app(4, 5), adi.h_rectangular(2, 3, 3), 0,
                 id="adi-rect"),
    pytest.param(adi.app(4, 5), adi.h_nr3(2, 3, 3), 0, id="adi-nr3"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(2, 4), 1,
                 id="heat-rect"),
    pytest.param(heat.app_unskewed(4, 8), heat.h_diamond(2), 1,
                 id="heat-diamond"),
    pytest.param(heat.app(4, 8), heat.h_skewed_band(2, 2), 1,
                 id="heat-skewed-band"),
]


class TestExecuteDenseBitwise:
    @pytest.mark.parametrize("app,h,mdim", EXEC_CONFIGS)
    def test_matches_sparse_executor(self, app, h, mdim):
        """The data against the sequential oracle, the clocks against
        ``simulate()`` (the id predates the sparse engine's removal)."""
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        ref_arrays = run_sequential(app.nest, app.init_value)
        ref_stats = DistributedRun(prog, SPEC).simulate()
        fields, stats = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        assert arrays_match(dense_to_cells(fields), ref_arrays, tol=0.0)
        # the dense engine must also yield the timing-only event
        # sequence, hence identical simulated measurements
        assert stats.makespan == ref_stats.makespan
        assert stats.clocks == ref_stats.clocks
        assert stats.total_messages == ref_stats.total_messages
        assert stats.total_elements == ref_stats.total_elements

    @requires_cc
    @pytest.mark.parametrize("app,h,mdim", EXEC_CONFIGS[:4])
    def test_matches_tiled_sequential(self, app, h, mdim):
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        fields, _ = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        ref = run_sequential_tiled_code(
            app.nest, generate_sequential_tiled_code(app.nest, h),
            app.init_value)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)


# The six reference configs (tests/native/test_native_engine.py).
REFERENCE_CONFIGS = [p for p in EXEC_CONFIGS if p.id in {
    "sor-rect", "sor-nonrect", "sor-partial-tiles", "jacobi-rect",
    "adi-rect", "heat-rect"}]


class TestPublicExecute:
    @pytest.mark.parametrize("app,h,mdim", REFERENCE_CONFIGS)
    def test_cells_match_sequential_oracle(self, app, h, mdim):
        """``repro.execute`` keeps its result shape — a ``cell ->
        float`` dict per written array, and the run's stats — now
        from the dense engine."""
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        arrays, stats = execute(prog, app.init_value, SPEC)
        ref = run_sequential(app.nest, app.init_value)
        assert set(arrays) == set(ref)
        for cells in arrays.values():
            assert all(type(c) is tuple and type(v) is float
                       and all(type(x) is int for x in c)
                       for c, v in cells.items())
        assert arrays_match(arrays, ref, tol=0.0)
        assert stats == DistributedRun(prog, SPEC).simulate()


def _execute_parallel(run, init_value):
    return run.execute_parallel(init_value, workers=2, timeout=30.0)


class TestHaloSizeCheck:
    """A payload shorter than the frozen plan says is refused by the
    shared unpack with a named error — in every data engine, and under
    ``python -O`` too (the dense engine used to ``assert``).  The
    in-process engine raises :class:`HaloSizeError` itself; the
    parallel engine surfaces the worker's as its
    ``ParallelRuntimeError`` base."""

    @pytest.mark.parametrize("backend,run,error", [
        ("repro.runtime.dense.RankLDS",
         lambda run, init: run.execute_dense(init), HaloSizeError),
        ("repro.runtime.dense.RankLDS", _execute_parallel,
         ParallelRuntimeError),
    ], ids=["dense", "parallel"])
    def test_short_payload_raises_named_error(self, monkeypatch, backend,
                                              run, error):
        module, cls_name = backend.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), cls_name)
        pack = cls.pack
        monkeypatch.setattr(
            cls, "pack", lambda self, *a: pack(self, *a)[:-1])
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        assert issubclass(HaloSizeError, ParallelRuntimeError)
        with pytest.raises(error, match="size mismatch"):
            run(DistributedRun(prog, SPEC), app.init_value)
