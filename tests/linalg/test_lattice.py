"""Unit tests for lattice membership and enumeration."""

import pytest

from repro.linalg import (
    fundamental_volume,
    lattice_contains,
    lattice_points_in_box,
)


class TestMembership:
    def test_identity_lattice_is_everything(self):
        assert lattice_contains([[1, 0], [0, 1]], (3, -7))

    def test_even_lattice(self):
        basis = [[2, 0], [0, 2]]
        assert lattice_contains(basis, (4, -2))
        assert not lattice_contains(basis, (3, 0))

    def test_sheared_lattice(self):
        basis = [[2, -1], [0, 1]]  # Jacobi-style H'
        assert lattice_contains(basis, (2, 0))
        assert lattice_contains(basis, (-1, 1))
        assert lattice_contains(basis, (1, 1))
        assert not lattice_contains(basis, (1, 0))


class TestVolume:
    def test_unimodular(self):
        assert fundamental_volume([[1, 0], [3, 1]]) == 1

    def test_det_abs(self):
        assert fundamental_volume([[2, -1], [0, 1]]) == 2

    def test_fractional_rejected(self):
        from repro.linalg import from_rows
        with pytest.raises(ValueError):
            fundamental_volume(from_rows([["1/2", 0], [0, 1]]))


class TestEnumeration:
    def test_box_density(self):
        """#points in an aligned box == volume(box)/|det|."""
        basis = [[2, -1], [0, 1]]
        pts = list(lattice_points_in_box(basis, [0, 0], [4, 4]))
        assert len(pts) == 16 // 2

    def test_points_are_members(self):
        basis = [[3, 1], [1, 2]]
        for p in lattice_points_in_box(basis, [-5, -5], [5, 5]):
            assert lattice_contains(basis, p)

    def test_matches_bruteforce(self):
        basis = [[2, 1], [0, 3]]
        got = set(lattice_points_in_box(basis, [-6, -6], [6, 6]))
        want = set()
        for x in range(-30, 31):
            for y in range(-30, 31):
                p = (2 * x + y, 3 * y)
                if all(-6 <= c < 6 for c in p):
                    want.add(p)
        assert got == want

    def test_empty_box(self):
        assert list(lattice_points_in_box([[1, 0], [0, 1]],
                                          [2, 2], [2, 2])) == []

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            list(lattice_points_in_box([[1, 0], [0, 1]], [0], [1]))
