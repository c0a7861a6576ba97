"""The sequential tiled translation unit: its text, and its compiled
run against the interpreter."""

import subprocess

import pytest

from repro.apps import adi, jacobi, sor
from repro.codegen import (
    generate_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.codegen.sequential import NoCompilerError
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.native.compile import find_compiler
from repro.runtime.dataspace import arrays_match
from repro.runtime.interpreter import run_sequential
from repro.tiling import parallelepiped_tiling
from tests.conftest import requires_cc


class TestStructure:
    def test_2n_loops(self, sor_small):
        code = generate_sequential_tiled_code(
            sor_small.nest, sor.h_nonrectangular(2, 3, 4))
        assert code.count("for (long jS") == 3
        assert code.count("for (long jp") == 3

    def test_prologue_helpers_present(self, sor_small):
        code = generate_sequential_tiled_code(
            sor_small.nest, sor.h_rectangular(2, 3, 4))
        assert "floord" in code and "ceild" in code

    def test_boundary_guard_present(self, sor_small):
        code = generate_sequential_tiled_code(
            sor_small.nest, sor.h_nonrectangular(2, 3, 4))
        assert "if (" in code

    def test_braces_balanced(self, sor_small):
        code = generate_sequential_tiled_code(
            sor_small.nest, sor.h_nonrectangular(2, 3, 4))
        assert code.count("{") == code.count("}")


class TestSkewedIndexing:
    def test_sor_array_expressions(self, sor_small):
        """The skewed SOR must index A with unskewed expressions like
        A[j0][-j0 + j1][-2*j0 + j2] (paper §4.1's skewed loop body)."""
        code = generate_sequential_tiled_code(
            sor_small.nest, sor.h_nonrectangular(2, 3, 4))
        assert "A[j0][-j0 + j1][-2*j0 + j2]" in code

    def test_jacobi_array_expressions(self, jacobi_small):
        code = generate_sequential_tiled_code(
            jacobi_small.nest, jacobi.h_rectangular(2, 4, 3))
        assert "A[j0][-j0 + j1][-j0 + j2]" in code


class TestStrides:
    def test_unit_strides_for_rectangular(self, adi_small):
        code = generate_sequential_tiled_code(
            adi_small.nest, adi.h_rectangular(2, 3, 3))
        assert "jp0 += 1" in code

    def test_nonunit_stride_for_strided_lattice(self, jacobi_small):
        """Jacobi H_nr has c = (1,2,1): dimension 1 steps by 2."""
        code = generate_sequential_tiled_code(
            jacobi_small.nest, jacobi.h_nonrectangular(2, 4, 3))
        assert "jp1 += 2" in code

    def test_incremental_offset_in_phase(self, jacobi_small):
        """The HNF subdiagonal entry appears in the phase expression."""
        code = generate_sequential_tiled_code(
            jacobi_small.nest, jacobi.h_nonrectangular(2, 4, 3))
        assert "ph1 = 1*x0" in code


class TestMultiStatement:
    def test_adi_two_statements(self, adi_small):
        code = generate_sequential_tiled_code(
            adi_small.nest, adi.h_nr3(2, 3, 3))
        assert "F_X(" in code and "F_B(" in code
        assert "A[j1][j2]" in code  # 2D input array projection


class TestTranslationUnit:
    def test_defines_everything_it_calls(self, adi_small):
        code = generate_sequential_tiled_code(
            adi_small.nest, adi.h_nr3(2, 3, 3))
        for helper in ("floord", "ceild", "min", "max"):
            assert f"static inline long {helper}(" in code
        assert code.count("static double F_") == 2
        assert "void repro_seq(double **bufs)" in code
        # one pointer-to-array view per array, X and B 3-D, A 2-D
        assert code.count("= (double (*)") == 3

    @requires_cc
    @pytest.mark.parametrize("h", [sor.h_rectangular(2, 3, 4),
                                   sor.h_nonrectangular(2, 3, 4)],
                             ids=["rect", "nonrect"])
    def test_standalone_under_wall_werror(self, sor_small, h, tmp_path):
        """The printed text is a whole TU: it compiles on its own."""
        c_path = tmp_path / "seq.c"
        c_path.write_text(generate_sequential_tiled_code(sor_small.nest, h))
        proc = subprocess.run(
            [find_compiler(), "-std=c99", "-Wall", "-Werror", "-c",
             str(c_path), "-o", str(tmp_path / "seq.o")],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr


def _compiled_run(nest, h, init):
    return run_sequential_tiled_code(
        nest, generate_sequential_tiled_code(nest, h), init)


@requires_cc
class TestCompiledRun:
    """The compiled text equals the sequential interpreter bitwise: the
    Fourier-Motzkin ceild/floord chains, tile origins, strides, phases
    and boundary guards of the *text* are right, not only the machinery
    that derived them."""

    @pytest.mark.parametrize("app,h", [
        (sor.app(4, 6), sor.h_rectangular(2, 3, 4)),
        (sor.app(4, 6), sor.h_nonrectangular(2, 3, 4)),
        # c = (1, 2, 1): the emitted stride/phase arithmetic matters
        (jacobi.app(3, 5, 5), jacobi.h_nonrectangular(2, 4, 3)),
        # two statements, a 2-D pure input
        (adi.app(4, 5), adi.h_nr3(2, 3, 3)),
        (sor.app(4, 6), sor.h_nonrectangular(1, 1, 1)),
        (sor.app(4, 6), sor.h_nonrectangular(3, 5, 2)),
        (sor.app(4, 6), sor.h_nonrectangular(4, 2, 7)),
    ], ids=["sor-rect", "sor-nonrect", "jacobi-strided", "adi-nr3",
            "sor-1x1x1", "sor-3x5x2", "sor-4x2x7"])
    def test_equals_interpreter(self, app, h):
        got = _compiled_run(app.nest, h, app.init_value)
        assert arrays_match(got, run_sequential(app.nest, app.init_value),
                            tol=0.0)

    def test_custom_nest(self):
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

        assert arrays_match(_compiled_run(nest, h, init),
                            run_sequential(nest, init), tol=0.0)


def test_no_compiler_is_a_named_error(sor_small, monkeypatch):
    monkeypatch.setattr("repro.codegen.sequential.find_compiler",
                        lambda: None)
    with pytest.raises(NoCompilerError):
        _compiled_run(sor_small.nest, sor.h_rectangular(2, 3, 4),
                      sor_small.init_value)
