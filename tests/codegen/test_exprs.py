"""Unit tests for C affine-expression emission."""

from fractions import Fraction

import pytest

from repro.codegen.exprs import affine_to_c, bound_to_c
from repro.polyhedra import box, loop_bounds


class TestAffineToC:
    def test_integer_no_division(self):
        s = affine_to_c((Fraction(2),), Fraction(3), ("i",), "floor")
        assert "floord" not in s
        assert "2*i" in s and "3" in s

    def test_fraction_uses_floord(self):
        s = affine_to_c((Fraction(1, 2),), Fraction(0), ("i",), "floor")
        assert s == "floord(i, 2)"

    def test_fraction_uses_ceild(self):
        s = affine_to_c((Fraction(1, 3),), Fraction(-1, 3), ("i",), "ceil")
        assert s == "ceild(i - 1, 3)"

    def test_unit_coefficients(self):
        s = affine_to_c((Fraction(1), Fraction(-1)), Fraction(0),
                        ("i", "j"), "floor")
        assert "1*" not in s
        assert s == "(i - j)"

    def test_constant_only(self):
        assert affine_to_c((), Fraction(5), (), "floor") == "5"

    def test_bad_rounding_rejected(self):
        with pytest.raises(ValueError):
            affine_to_c((), Fraction(0), (), "trunc")


class TestBoundToC:
    def test_box_bounds_simple(self):
        b = loop_bounds(box([1, 2], [4, 9]))
        assert bound_to_c(b[0], (), "lower") == "1"
        assert bound_to_c(b[0], (), "upper") == "4"

    def test_max_of_multiple_lowers(self):
        from repro.polyhedra import Halfspace
        p = box([0, 0], [9, 9]).with_constraint(
            Halfspace.of([1, -2], 0))  # i - 2j <= 0, i.e. j >= i/2
        b = loop_bounds(p)
        lower = bound_to_c(b[1], ("jS0",), "lower")
        assert "max(" in lower
        assert "ceild" in lower

    def test_unbounded_rejected(self):
        from repro.polyhedra import Halfspace, Polyhedron
        p = Polyhedron([Halfspace.of([1], 5)])
        b = loop_bounds(p)
        with pytest.raises(ValueError):
            bound_to_c(b[0], (), "lower")

    def test_bad_kind(self):
        b = loop_bounds(box([0], [1]))
        with pytest.raises(ValueError):
            bound_to_c(b[0], (), "middle")


class TestFloordSemantics:
    """The emitted C helpers must agree with Python's floor/ceil division."""

    @staticmethod
    def _c_div(a, b):
        """C99 '/' truncates toward zero; '%' takes the dividend's sign."""
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return q, a - q * b

    def test_floord_matches_python_floor(self):
        for a in range(-25, 26):
            for b in (1, 2, 3, 5, 7):
                q, r = self._c_div(a, b)
                c_floord = q - ((r != 0) and ((a ^ b) < 0))
                assert c_floord == a // b, (a, b)

    def test_ceild_matches_python_ceil(self):
        import math
        for a in range(-25, 26):
            for b in (1, 2, 3, 5, 7):
                q, r = self._c_div(a, b)
                c_ceild = q + ((r != 0) and ((a ^ b) > 0))
                assert c_ceild == math.ceil(a / b) == -((-a) // b), (a, b)
