"""Unit + integration tests for the 2D heat app (n = 2 coverage)."""

import pytest

from repro import execute
from repro.apps import heat
from repro.codegen import (
    generate_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.interpreter import run_sequential
from repro.tiling import is_legal_tiling, tiling_cone_rays

from tests.conftest import requires_cc, values_close

SPEC = ClusterSpec()


@pytest.fixture(scope="module")
def ref():
    return heat.reference(8, 12)


class TestDefinition:
    def test_dependences(self):
        nest = heat.original_nest(4, 6)
        assert set(nest.dependences) == {(1, 1), (1, 0), (1, -1)}

    def test_cone_rays(self):
        rays = set(tiling_cone_rays([(1, 1), (1, 0), (1, -1)]))
        assert rays == {(1, 1), (1, -1)}

    def test_skewed_dependences_nonnegative(self):
        a = heat.app(4, 6)
        for d in a.nest.dependences:
            assert all(x >= 0 for x in d)

    def test_diamond_legal_on_original(self):
        nest = heat.original_nest(4, 6)
        assert is_legal_tiling(heat.h_diamond(2), nest.dependences)
        assert not is_legal_tiling(heat.h_rectangular(2, 2),
                                   nest.dependences)

    def test_interpreter_matches_reference(self, ref):
        a = heat.app(8, 12)
        got = run_sequential(a.original, a.init_value)
        assert values_close(got["U"], ref)

    def test_skewed_interpreter_matches(self, ref):
        a = heat.app(8, 12)
        got = run_sequential(a.nest, a.init_value)
        assert values_close(got["U"], ref)


class TestDistributed2D:
    def test_skewed_rect(self, ref):
        a = heat.app(8, 12)
        prog = TiledProgram(a.nest, heat.h_rectangular(3, 4),
                            mapping_dim=a.mapping_dim)
        arrays, _ = execute(prog, a.init_value, SPEC)
        assert values_close(arrays["U"], ref)

    def test_skewed_band(self, ref):
        a = heat.app(8, 12)
        prog = TiledProgram(a.nest, heat.h_skewed_band(3, 2),
                            mapping_dim=a.mapping_dim)
        arrays, _ = execute(prog, a.init_value, SPEC)
        assert values_close(arrays["U"], ref)

    def test_diamond_on_original(self, ref):
        a = heat.app_unskewed(8, 12)
        prog = TiledProgram(a.nest, heat.h_diamond(2),
                            mapping_dim=a.mapping_dim)
        arrays, _ = execute(prog, a.init_value, SPEC)
        assert values_close(arrays["U"], ref)

    def test_processor_mesh_is_1d(self):
        a = heat.app(8, 12)
        prog = TiledProgram(a.nest, heat.h_rectangular(3, 4),
                            mapping_dim=0)
        assert all(len(pid) == 1 for pid in prog.pids)

    @requires_cc
    def test_tiled_sequential(self, ref):
        a = heat.app_unskewed(8, 12)
        got = run_sequential_tiled_code(
            a.nest, generate_sequential_tiled_code(a.nest,
                                                   heat.h_diamond(2)),
            a.init_value)
        assert values_close(got["U"], ref)


class TestShapeEffect2D:
    def test_band_tiling_not_slower_than_rect(self):
        """Cone-aligned band vs rectangular at equal volume, 2D."""
        a = heat.app(40, 48)
        spec = ClusterSpec()
        results = {}
        # equal volume: rect 4x12 = 48 = band 2*4*6
        for label, h in (("rect", heat.h_rectangular(4, 12)),
                         ("band", heat.h_skewed_band(4, 6))):
            prog = TiledProgram(a.nest, h, mapping_dim=0)
            stats = DistributedRun(prog, spec).simulate()
            results[label] = stats.makespan
        assert results["band"] <= results["rect"] * 1.02