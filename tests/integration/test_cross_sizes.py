"""Integration sweep: correctness across many (size, tiling) combos.

Covers the awkward cases individual tests tend to miss: tile extents
that don't divide the space, extent-1 tiles, chains of length 1, and
processor meshes degenerating to a line.
"""

import pytest

from repro import execute
from repro.apps import adi, jacobi, sor
from repro.runtime import ClusterSpec, TiledProgram

from tests.conftest import values_close

SPEC = ClusterSpec()


class TestSORSizes:
    @pytest.mark.parametrize("m,n,x,y,z", [
        (3, 4, 1, 1, 1),       # unit tiles: every point its own tile
        (3, 4, 3, 7, 10),      # tiles bigger than some extents
        (5, 5, 2, 2, 2),
        (4, 7, 3, 5, 4),       # nothing divides anything
        (6, 4, 2, 9, 3),
    ])
    def test_nonrect(self, m, n, x, y, z):
        app = sor.app(m, n)
        ref = sor.reference(m, n)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(x, y, z),
                            mapping_dim=2)
        arrays, _ = execute(prog, app.init_value, SPEC)
        assert values_close(arrays["A"], ref)

    @pytest.mark.parametrize("x,y,z", [(1, 2, 2), (4, 4, 4), (2, 5, 3)])
    def test_rect(self, x, y, z):
        app = sor.app(4, 6)
        ref = sor.reference(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(x, y, z),
                            mapping_dim=2)
        arrays, _ = execute(prog, app.init_value, SPEC)
        assert values_close(arrays["A"], ref)


class TestJacobiSizes:
    @pytest.mark.parametrize("t,i,j,x,y,z", [
        (2, 4, 4, 1, 2, 2),
        (3, 5, 4, 2, 4, 3),
        (4, 3, 6, 3, 2, 4),
        (2, 6, 6, 2, 6, 5),
    ])
    def test_nonrect_strided(self, t, i, j, x, y, z):
        app = jacobi.app(t, i, j)
        ref = jacobi.reference(t, i, j)
        prog = TiledProgram(app.nest, jacobi.h_nonrectangular(x, y, z),
                            mapping_dim=0)
        arrays, _ = execute(prog, app.init_value, SPEC)
        assert values_close(arrays["A"], ref)


class TestADISizes:
    @pytest.mark.parametrize("t,n,x,y,z", [
        (2, 4, 1, 2, 2),
        (5, 4, 2, 2, 3),
        (3, 6, 2, 4, 3),
    ])
    @pytest.mark.parametrize("hf", [adi.h_rectangular, adi.h_nr3])
    def test_multi_array(self, t, n, x, y, z, hf):
        app = adi.app(t, n)
        ref = adi.reference(t, n)
        prog = TiledProgram(app.nest, hf(x, y, z), mapping_dim=0)
        arrays, _ = execute(prog, app.init_value, SPEC)
        assert values_close(arrays["X"], ref["X"])
        assert values_close(arrays["B"], ref["B"])


class TestMappingDimVariants:
    """Every mapping dimension must be correct, not just the paper's."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_sor_any_mapping(self, m):
        app = sor.app(4, 6)
        ref = sor.reference(4, 6)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=m)
        arrays, _ = execute(prog, app.init_value, SPEC)
        assert values_close(arrays["A"], ref)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_adi_any_mapping(self, m):
        app = adi.app(3, 5)
        ref = adi.reference(3, 5)
        prog = TiledProgram(app.nest, adi.h_nr1(2, 3, 3), mapping_dim=m)
        arrays, _ = execute(prog, app.init_value, SPEC)
        assert values_close(arrays["X"], ref["X"])
        assert values_close(arrays["B"], ref["B"])
