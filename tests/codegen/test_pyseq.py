"""Unit tests for the executable sequential tiled code generator.

These pin down the *textual* loop bounds semantically: the emitted
Python must reproduce the reference interpreter exactly for every app
and tiling — which means the Fourier-Motzkin ceild/floord chains, tile
origins, strides, phases, and boundary guards in the text are right,
not just the in-memory machinery that derived them.
"""

import pytest

from repro.apps import adi, jacobi, sor
from repro.codegen import (
    generate_python_sequential,
    run_generated_sequential,
)
from repro.runtime.interpreter import run_sequential

from tests.conftest import values_close


class TestEmission:
    def test_source_structure(self, sor_small):
        src = generate_python_sequential(sor_small.nest,
                                         sor.h_nonrectangular(2, 3, 4))
        assert "def execute(arrays, init_value, kernels):" in src
        assert src.count("for jS") == 3
        assert src.count("for jp") == 3
        assert "ceild" in src and "floord" in src

    def test_compiles(self, sor_small):
        src = generate_python_sequential(sor_small.nest,
                                         sor.h_rectangular(2, 3, 4))
        compile(src, "<test>", "exec")


class TestSemantics:
    def test_sor_rect(self, sor_small, sor_reference_small):
        got = run_generated_sequential(
            sor_small.nest, sor.h_rectangular(2, 3, 4),
            sor_small.init_value)
        assert values_close(got["A"], sor_reference_small)

    def test_sor_nonrect(self, sor_small, sor_reference_small):
        got = run_generated_sequential(
            sor_small.nest, sor.h_nonrectangular(2, 3, 4),
            sor_small.init_value)
        assert values_close(got["A"], sor_reference_small)

    def test_jacobi_strided(self, jacobi_small, jacobi_reference_small):
        """c = (1,2,1): the emitted stride/phase arithmetic matters."""
        got = run_generated_sequential(
            jacobi_small.nest, jacobi.h_nonrectangular(2, 4, 3),
            jacobi_small.init_value)
        assert values_close(got["A"], jacobi_reference_small)

    def test_adi_multi_statement(self, adi_small, adi_reference_small):
        got = run_generated_sequential(
            adi_small.nest, adi.h_nr3(2, 3, 3), adi_small.init_value)
        assert values_close(got["X"], adi_reference_small["X"])
        assert values_close(got["B"], adi_reference_small["B"])

    @pytest.mark.parametrize("size", [(1, 1, 1), (3, 5, 2), (4, 2, 7)])
    def test_sor_awkward_tile_sizes(self, sor_small, sor_reference_small,
                                    size):
        got = run_generated_sequential(
            sor_small.nest, sor.h_nonrectangular(*size),
            sor_small.init_value)
        assert values_close(got["A"], sor_reference_small)

    def test_matches_interpreter_on_custom_nest(self):
        from repro.loops import ArrayRef, LoopNest, Statement, kexpr
        from repro.tiling import parallelepiped_tiling

        v = kexpr.reads(2)
        stmt = Statement.of(
            ArrayRef.of("A", (0, 0)),
            [ArrayRef.of("A", (-1, -1)), ArrayRef.of("A", (-1, 1))],
            1.0 + 0.25 * v[0] + 0.125 * v[1])
        nest = LoopNest.rectangular("w", [0, 0], [9, 9], [stmt],
                                    [(1, 1), (1, -1)])
        h = parallelepiped_tiling([["1/4", "-1/4"], ["1/4", "1/4"]])

        def init(_a, c):
            return 0.1 * c[0] - 0.2 * c[1]

        got = run_generated_sequential(nest, h, init)
        want = run_sequential(nest, init)
        assert values_close(got["A"], want["A"])
