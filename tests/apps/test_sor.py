"""Unit tests for the SOR application definition."""

from repro.apps import sor
from repro.linalg import RatMat
from repro.loops import is_legal_skew
from repro.tiling import tiling_cone_rays


class TestNest:
    def test_original_dependences(self):
        nest = sor.original_nest(4, 6)
        assert set(nest.dependences) == {
            (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (1, 0, 0)
        }

    def test_skew_matches_paper(self):
        assert sor.SKEW == RatMat([[1, 0, 0], [1, 1, 0], [2, 0, 1]])

    def test_skew_legal(self):
        nest = sor.original_nest(4, 6)
        assert is_legal_skew(sor.SKEW, nest.dependences)

    def test_skewed_dependences_match_paper(self, sor_small):
        assert set(sor_small.nest.dependences) == {
            (1, 1, 2), (0, 1, 0), (1, 0, 2), (1, 1, 1), (0, 0, 1)
        }

    def test_skewed_domain_extents(self, sor_small):
        """t' in [1,M], i' in [2,M+N], j' in [3,2M+N]."""
        dom = sor_small.nest.domain
        assert dom.contains((1, 2, 3))
        assert dom.contains((4, 10, 14))
        assert not dom.contains((0, 2, 3))
        assert not dom.contains((4, 11, 14))

    def test_mapping_dim_is_third(self, sor_small):
        assert sor_small.mapping_dim == 2


class TestTilingMatrices:
    def test_nr_third_row_on_cone(self):
        """The H_nr third row is parallel to the cone ray (-1, 0, 1)."""
        deps = [(1, 1, 2), (0, 1, 0), (1, 0, 2), (1, 1, 1), (0, 0, 1)]
        rays = tiling_cone_rays(deps)
        assert (-1, 0, 1) in rays
        h = sor.h_nonrectangular(2, 3, 5)
        row = [x * 5 for x in h.row(2)]
        assert tuple(int(v) for v in row) == (-1, 0, 1)

    def test_equal_tile_volume(self):
        hr = sor.h_rectangular(2, 3, 5)
        hn = sor.h_nonrectangular(2, 3, 5)
        assert abs(hr.inverse().det()) == abs(hn.inverse().det()) == 30

    def test_shared_leading_rows(self):
        hr = sor.h_rectangular(2, 3, 5)
        hn = sor.h_nonrectangular(2, 3, 5)
        assert hr.row(0) == hn.row(0)
        assert hr.row(1) == hn.row(1)


class TestReference:
    def test_boundary_values_from_init(self):
        ref = sor.reference(2, 3)
        # all interior cells computed
        assert len(ref) == 2 * 3 * 3

    def test_deterministic(self):
        assert sor.reference(3, 4) == sor.reference(3, 4)

    def test_kernel_blends_neighbours(self):
        """Spot-check one cell against the recurrence by hand."""
        ref = sor.reference(1, 2)
        w = sor.OMEGA
        iv = sor.init_value
        t, i, j = 1, 1, 1
        expect = (w / 4) * (
            iv("A", (1, 0, 1)) + iv("A", (1, 1, 0))
            + iv("A", (0, 2, 1)) + iv("A", (0, 1, 2))
        ) + (1 - w) * iv("A", (0, 1, 1))
        assert abs(ref[(1, 1, 1)] - expect) < 1e-12
