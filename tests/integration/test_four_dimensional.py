"""Dimension generality: the full pipeline on a 4D nest.

The paper's experiments are all 3D; nothing in the framework is
3D-specific.  A 4D nest (3D space + time) exercises: Fourier-Motzkin
over 8 joint variables, 4D TTIS/HNF, a *3-D* processor mesh, and 4D
LDS addressing.
"""

from repro import execute
from repro.linalg import from_rows
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.codegen import (
    generate_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.runtime import ClusterSpec, TiledProgram
from repro.runtime.dataspace import arrays_match
from repro.runtime.interpreter import run_sequential
from repro.tiling import rectangular_tiling

from tests.conftest import requires_cc, values_close

SPEC = ClusterSpec()


def _nest_4d(t_sz=3, n=4):
    v = kexpr.reads(4)
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0, 0, 0)),
        [
            ArrayRef.of("A", (-1, 0, 0, 0)),
            ArrayRef.of("A", (-1, -1, 0, 0)),
            ArrayRef.of("A", (0, 0, -1, 0)),
            ArrayRef.of("A", (0, 0, 0, -1)),
        ],
        0.2 * (v[0] + v[1] + v[2] + v[3]) + 0.1,
    )
    return LoopNest.rectangular(
        "stencil4d", [1, 1, 1, 1], [t_sz, n, n, n], [stmt],
        [(1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    )


def _init(_a, cell):
    t, i, j, k = cell
    return 0.01 * t - 0.02 * i + 0.03 * j - 0.04 * k


class TestFourDimensional:
    def test_rectangular_tiling(self):
        nest = _nest_4d()
        ref = run_sequential(nest, _init)
        prog = TiledProgram(nest, rectangular_tiling([2, 2, 2, 2]))
        assert len(prog.pids[0]) == 3  # 3-D processor mesh
        arrays, stats = execute(prog, _init, SPEC)
        assert values_close(arrays["A"], ref["A"])

    def test_skewed_row_tiling(self):
        """One parallelepiped row in 4D."""
        nest = _nest_4d()
        ref = run_sequential(nest, _init)
        h = from_rows([
            ["1/2", 0, 0, 0],
            ["1/2", "-1/2", 0, 0],   # on the cone: orthogonal to (1,1,0,0)
            [0, 0, "1/2", 0],
            [0, 0, 0, "1/2"],
        ])
        prog = TiledProgram(nest, h)
        arrays, _ = execute(prog, _init, SPEC)
        assert values_close(arrays["A"], ref["A"])

    def test_tile_space_partition_4d(self):
        nest = _nest_4d()
        prog = TiledProgram(nest, rectangular_tiling([2, 2, 2, 2]))
        total = sum(prog.tiling.tile_point_count(t)
                    for t in prog.dist.tiles)
        assert total == 3 * 4 * 4 * 4

    @requires_cc
    def test_compiled_sequential_4d(self):
        nest = _nest_4d()
        code = generate_sequential_tiled_code(
            nest, rectangular_tiling([2, 2, 2, 2]))
        got = run_sequential_tiled_code(nest, code, _init)
        assert arrays_match(got, run_sequential(nest, _init), tol=0.0)
