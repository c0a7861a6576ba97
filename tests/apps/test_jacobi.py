"""Unit tests for the Jacobi application definition."""

import pytest

from repro.apps import jacobi
from repro.linalg import RatMat
from repro.loops import is_legal_skew
from repro.tiling import in_tiling_cone


class TestNest:
    def test_original_dependences(self):
        nest = jacobi.original_nest(3, 5, 5)
        assert set(nest.dependences) == {
            (1, 0, 0), (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)
        }

    def test_skew_matches_paper(self):
        assert jacobi.SKEW == RatMat([[1, 0, 0], [1, 1, 0], [1, 0, 1]])

    def test_skew_legal(self):
        nest = jacobi.original_nest(3, 5, 5)
        assert is_legal_skew(jacobi.SKEW, nest.dependences)

    def test_skewed_dependences_match_paper(self, jacobi_small):
        assert set(jacobi_small.nest.dependences) == {
            (1, 1, 1), (1, 2, 1), (1, 0, 1), (1, 1, 2), (1, 1, 0)
        }

    def test_mapping_dim_is_first(self, jacobi_small):
        assert jacobi_small.mapping_dim == 0


class TestTilingMatrices:
    def test_nr_differs_in_one_entry(self):
        hr = jacobi.h_rectangular(2, 4, 3)
        hn = jacobi.h_nonrectangular(2, 4, 3)
        diffs = [
            (i, j)
            for i in range(3) for j in range(3)
            if hr[i, j] != hn[i, j]
        ]
        assert diffs == [(0, 1)]  # "only one element of H was changed"

    def test_nr_first_row_on_cone_boundary(self, jacobi_small):
        deps = jacobi_small.nest.dependences
        h = jacobi.h_nonrectangular(2, 4, 3)
        row = tuple(h.row(0))
        assert in_tiling_cone(row, deps)
        # active on (1,2,1): exactly on the boundary
        assert sum(r * d for r, d in zip(row, (1, 2, 1))) == 0

    def test_p_integral_requires_even_y(self):
        from repro.polyhedra import box
        from repro.tiling import TilingTransformation
        with pytest.raises(ValueError):
            TilingTransformation(jacobi.h_nonrectangular(2, 3, 3),
                                 box([0, 0, 0], [5, 5, 5]))

    def test_equal_volume(self):
        assert abs(jacobi.h_rectangular(2, 4, 3).inverse().det()) == \
            abs(jacobi.h_nonrectangular(2, 4, 3).inverse().det()) == 24


class TestReference:
    def test_size(self):
        assert len(jacobi.reference(2, 3, 4)) == 2 * 3 * 4

    def test_spot_value(self):
        ref = jacobi.reference(1, 1, 1)
        iv = jacobi.init_value
        expect = jacobi.COEF * (
            iv("A", (0, 1, 1)) + iv("A", (0, 0, 1)) + iv("A", (0, 2, 1))
            + iv("A", (0, 1, 0)) + iv("A", (0, 1, 2))
        )
        assert abs(ref[(1, 1, 1)] - expect) < 1e-12
