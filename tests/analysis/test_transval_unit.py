"""Unit tests for the translation-validation building blocks.

Covers the expression IR (:mod:`repro.analysis.transval.loopir`) —
parsing-independent algebra: affine extraction, rounded-affine atoms,
exact interval evaluation — and the two readers, round-tripped over
freshly emitted artifacts.
"""

from fractions import Fraction

import pytest

from repro.analysis.transval.creader import (
    parse_expr,
    read_mpi,
    read_sequential,
    split_top,
)
from repro.analysis.transval.loopir import (
    Const,
    FloorDiv,
    Mod,
    NotAffine,
    ReaderError,
    Var,
    affine,
    bound_atoms,
    interval,
    rounded_atom,
    substitute,
)
from repro.analysis.transval.pyreader import read_pygen
from repro.apps import sor
from repro.codegen.parallel import generate_mpi_code
from repro.codegen.pygen import generate_python_node_programs
from repro.codegen.sequential import generate_sequential_tiled_code


class TestAffine:
    def test_linear_combination(self):
        coeffs, const = affine(parse_expr("2*x + 3*y - 4"))
        assert coeffs == {"x": 2, "y": 3}
        assert const == -4

    def test_exact_division_by_constant(self):
        # floord(6*x + 4, 2) divides exactly: rational affine result
        coeffs, const = affine(parse_expr("floord(6*x + 4, 2)"))
        assert coeffs == {"x": 3}
        assert const == 2

    def test_mod_is_not_affine(self):
        with pytest.raises(NotAffine):
            affine(parse_expr("x % 3"))


class TestRoundedAtoms:
    def test_floor_atom_normal_form(self):
        a = rounded_atom(parse_expr("floord(x - 2, 3)"))
        b = rounded_atom(parse_expr("floord(x + 1, 3) - 1"))
        assert a == b  # integer shifts fold through the rounding

    def test_exact_when_coefficients_integral(self):
        rounding, items, const = rounded_atom(parse_expr("floord(4*x, 2)"))
        assert rounding == "exact"
        assert dict(items) == {"x": Fraction(2)}
        assert const == 0

    def test_negative_divisor_normalises(self):
        a = rounded_atom(parse_expr("floord(x, 2)"))
        b = rounded_atom(FloorDiv(Var("x"), Const(2)))
        assert a == b

    def test_bound_atoms_unwrap_max(self):
        lows = bound_atoms(parse_expr("max(ceild(x, 2), 0)"), "lower")
        assert len(lows) == 2
        with pytest.raises(NotAffine):
            bound_atoms(parse_expr("max(x, 0)"), "upper")


class TestInterval:
    def test_affine_interval(self):
        lo, hi = interval(parse_expr("2*x - y"), {"x": (0, 3), "y": (1, 2)})
        assert (lo, hi) == (-2, 5)

    def test_floordiv_interval(self):
        lo, hi = interval(parse_expr("floord(x, 3)"), {"x": (-4, 7)})
        assert (lo, hi) == (-2, 2)

    def test_mod_same_block_is_exact(self):
        lo, hi = interval(Mod(Var("x"), Const(5)), {"x": (6, 8)})
        assert (lo, hi) == (1, 3)

    def test_mod_crossing_blocks_is_range(self):
        lo, hi = interval(Mod(Var("x"), Const(5)), {"x": (3, 8)})
        assert (lo, hi) == (0, 4)

    def test_free_variable_raises(self):
        with pytest.raises(ReaderError):
            interval(parse_expr("x + y"), {"x": (0, 1)})

    def test_substitute(self):
        e = substitute(parse_expr("x + y"), {"x": Const(5)})
        assert interval(e, {"y": (0, 0)}) == (5, 5)


class TestParsingHelpers:
    def test_split_top_respects_parens(self):
        assert split_top("f(a, b), c", ",") == ["f(a, b)", "c"]

    def test_parse_error_carries_line(self):
        with pytest.raises(ReaderError) as exc:
            parse_expr("x +", line=7)
        assert exc.value.line == 7
        assert "line 7" in str(exc.value)


@pytest.fixture(scope="module")
def sor_setup():
    app = sor.app(8, 12)
    h = sor.h_nonrectangular(2, 3, 4)
    return app, h


class TestReaderRoundTrips:
    def test_mpi_reader_structure(self, sor_setup):
        app, h = sor_setup
        text = generate_mpi_code(app.nest, h, mapping_dim=app.mapping_dim)
        parsed = read_mpi(text)
        assert parsed.name == app.nest.name
        assert len(parsed.inner_loops) == 3
        assert len(parsed.map_params) == 4  # jp0..jp2 + t
        assert parsed.recv_blocks and parsed.send_blocks
        # every receive block handles a distinct tile dependence, and
        # its tag names its processor direction
        assert len({b.d_s for b in parsed.recv_blocks}) == \
            len(parsed.recv_blocks)
        for b in parsed.recv_blocks:
            assert b.tag == "_".join(
                str(x).replace("-", "m") for x in b.d_m)
        assert len(parsed.body) == len(app.nest.statements)

    def test_sequential_reader_structure(self, sor_setup):
        app, h = sor_setup
        text = generate_sequential_tiled_code(app.nest, h)
        parsed = read_sequential(text)
        assert parsed.name == app.nest.name
        assert len(parsed.outer) == 3
        assert len(parsed.inner_loops) == 3
        # a loop's start is its lo_k definition, not the name lo_k
        assert parsed.inner_loops[0].start == parse_expr(
            "((ph0 % 1) + 1) % 1")
        assert parsed.guards  # original-space membership conjuncts

    def test_pygen_reader_schedules(self, sor_setup):
        app, h = sor_setup
        src = generate_python_node_programs(
            app.nest, h, mapping_dim=app.mapping_dim)
        parsed = read_pygen(src)
        assert parsed.num_ranks == len(parsed.schedules)
        assert set(parsed.pid_of_rank) == set(range(parsed.num_ranks))

    def test_garbage_raises_reader_error(self):
        with pytest.raises(ReaderError):
            read_mpi("this is not a program\n")
        with pytest.raises(ReaderError):
            read_sequential("void f() {}\n")
