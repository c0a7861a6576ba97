"""Compile-time guards: the paper claims negligible compilation overhead.

These are generous ceilings (CI machines vary) that still catch
accidental quadratic blowups in the hot compiler paths.
"""

import time

import pytest

from repro.apps import sor
from repro.experiments.figures import sor_factors
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram


class TestCompileTime:
    def test_paper_scale_compile_under_budget(self):
        x, y = sor_factors(100, 200)
        app = sor.app(100, 200)
        t0 = time.perf_counter()
        prog = TiledProgram(app.nest, sor.h_nonrectangular(x, y, 8),
                            mapping_dim=2)
        prog.dist.tiles  # force tile enumeration
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"compilation took {elapsed:.1f}s"

    def test_paper_scale_simulation_under_budget(self):
        x, y = sor_factors(100, 200)
        app = sor.app(100, 200)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(x, y, 8),
                            mapping_dim=2)
        t0 = time.perf_counter()
        DistributedRun(prog, ClusterSpec()).simulate()
        elapsed = time.perf_counter() - t0
        assert elapsed < 20.0, f"simulation took {elapsed:.1f}s"

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
