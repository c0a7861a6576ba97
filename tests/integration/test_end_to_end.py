"""Integration: full pipeline — compile, distribute, message-pass, verify.

For every app and every paper tiling, the distributed execution on the
virtual cluster (real LDS buffers, real pack/unpack, real messages) must
reproduce the naive sequential reference cell-for-cell.  This exercises
every module at once: skewing, H'/HNF, FM bounds, tile enumeration,
LDS/map/loc, CC/D^m, minsucc matching, and the DES engine.
"""

import pytest

from repro import execute
from repro.apps import adi, jacobi, sor
from repro.runtime import ClusterSpec, TiledProgram

from tests.conftest import requires_cc, values_close

SPEC = ClusterSpec()


def _run(app, h):
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    arrays, stats = execute(prog, app.init_value, SPEC)
    return prog, arrays, stats


class TestSOR:
    @pytest.mark.parametrize("hfun,label", [
        (sor.h_rectangular, "rect"),
        (sor.h_nonrectangular, "nonrect"),
    ])
    def test_matches_reference(self, sor_small, sor_reference_small,
                               hfun, label):
        _, arrays, _ = _run(sor_small, hfun(2, 3, 4))
        assert values_close(arrays["A"], sor_reference_small)

    def test_different_tile_sizes(self, sor_small, sor_reference_small):
        for size in [(1, 2, 3), (3, 2, 5), (4, 6, 2)]:
            _, arrays, _ = _run(sor_small, sor.h_nonrectangular(*size))
            assert values_close(arrays["A"], sor_reference_small)

    def test_single_processor_degenerate(self, sor_small,
                                         sor_reference_small):
        """Tiles covering the whole space: no communication at all."""
        prog, arrays, stats = _run(sor_small, sor.h_rectangular(8, 16, 24))
        assert prog.num_processors == 1
        assert stats.total_messages == 0
        assert values_close(arrays["A"], sor_reference_small)

    def test_mapping_dim_default_also_correct(self, sor_small,
                                              sor_reference_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4))
        arrays, _ = execute(prog, sor_small.init_value, SPEC)
        assert values_close(arrays["A"], sor_reference_small)


class TestJacobi:
    @pytest.mark.parametrize("hfun", [jacobi.h_rectangular,
                                      jacobi.h_nonrectangular])
    def test_matches_reference(self, jacobi_small, jacobi_reference_small,
                               hfun):
        _, arrays, _ = _run(jacobi_small, hfun(2, 4, 3))
        assert values_close(arrays["A"], jacobi_reference_small)

    def test_strided_lattice_tiling(self, jacobi_small,
                                    jacobi_reference_small):
        """H' has det 2 here: the LDS condensation path with c=(1,2,1)."""
        _, arrays, _ = _run(jacobi_small, jacobi.h_nonrectangular(3, 2, 2))
        assert values_close(arrays["A"], jacobi_reference_small)


class TestADI:
    @pytest.mark.parametrize("hfun", [adi.h_rectangular, adi.h_nr1,
                                      adi.h_nr2, adi.h_nr3])
    def test_both_arrays_match(self, adi_small, adi_reference_small, hfun):
        _, arrays, _ = _run(adi_small, hfun(2, 3, 3))
        assert values_close(arrays["X"], adi_reference_small["X"])
        assert values_close(arrays["B"], adi_reference_small["B"])

    def test_equal_volume_claim(self, adi_small):
        """§4.3: all four tilings have the same tile volume."""
        vols = set()
        for hfun in (adi.h_rectangular, adi.h_nr1, adi.h_nr2, adi.h_nr3):
            prog = TiledProgram(adi_small.nest, hfun(2, 3, 3),
                                mapping_dim=0)
            vols.add(prog.tiling.tile_volume())
        assert len(vols) == 1

    def test_equal_processor_count_claim(self, adi_small):
        """§4.3: all four tilings need the same number of processors."""
        counts = set()
        for hfun in (adi.h_rectangular, adi.h_nr1, adi.h_nr2, adi.h_nr3):
            prog = TiledProgram(adi_small.nest, hfun(2, 3, 3),
                                mapping_dim=0)
            counts.add(prog.num_processors)
        assert len(counts) == 1


class TestCrossMode:
    """All three execution modes agree on all apps."""

    @requires_cc
    def test_sor_three_way(self, sor_small, sor_reference_small):
        from repro.codegen import (
            generate_sequential_tiled_code,
            run_sequential_tiled_code,
        )
        from repro.runtime.interpreter import run_sequential
        h = sor.h_nonrectangular(2, 3, 4)
        seq = run_sequential(sor_small.nest, sor_small.init_value)
        tiled = run_sequential_tiled_code(
            sor_small.nest,
            generate_sequential_tiled_code(sor_small.nest, h),
            sor_small.init_value)
        _, dist_arrays, _ = _run(sor_small, h)
        assert values_close(seq["A"], sor_reference_small)
        assert values_close(tiled["A"], sor_reference_small)
        assert values_close(dist_arrays["A"], sor_reference_small)
