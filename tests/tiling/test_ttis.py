"""Unit tests for the TTIS transformation (paper §2.3)."""

import numpy as np
import pytest

from repro.apps import resolve_config
from repro.linalg import RatMat, lattice_points_in_box
from repro.tiling import TTIS
from repro.tiling.shapes import parallelepiped_tiling, rectangular_tiling


def jacobi_h(x=2, y=4, z=3):
    return parallelepiped_tiling([
        [f"1/{x}", f"-1/{2 * x}", 0],
        [0, f"1/{y}", 0],
        [0, 0, f"1/{z}"],
    ])


class TestConstruction:
    def test_v_matrix(self):
        t = TTIS(jacobi_h())
        assert t.v == (4, 4, 3)   # lcm of row denominators

    def test_h_prime_integral(self):
        t = TTIS(jacobi_h())
        assert t.h_prime.is_integer()
        assert t.h_prime == RatMat([[2, -1, 0], [0, 1, 0], [0, 0, 1]])

    def test_strides_from_hnf(self):
        t = TTIS(jacobi_h())
        assert t.c == (1, 2, 1)

    def test_offsets_lower_triangular(self):
        t = TTIS(jacobi_h())
        assert len(t.offsets[0]) == 0
        assert len(t.offsets[1]) == 1
        assert len(t.offsets[2]) == 2

    def test_rectangular_is_trivial(self):
        t = TTIS(rectangular_tiling([3, 4, 5]))
        assert t.v == (3, 4, 5)
        assert t.c == (1, 1, 1)
        assert t.tile_volume == 60

    def test_stride_divides_extent(self):
        t = TTIS(jacobi_h())
        for vk, ck in zip(t.v, t.c):
            assert vk % ck == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            TTIS(RatMat([[1, 0, 0], [0, 1, 0]]))


class TestVolume:
    def test_volume_is_det_p(self):
        h = jacobi_h()
        t = TTIS(h)
        assert t.tile_volume == abs(int(h.inverse().det()))

    def test_volume_counts_lattice_points(self):
        t = TTIS(jacobi_h())
        assert len(list(t.lattice_points())) == t.tile_volume


class TestTraversal:
    def test_matches_generic_lattice_walker(self):
        t = TTIS(jacobi_h())
        ours = sorted(t.lattice_points())
        generic = sorted(lattice_points_in_box(
            t.h_prime, [0] * 3, list(t.v)))
        assert ours == generic

    def test_np_variant_agrees(self):
        t = TTIS(jacobi_h())
        a = sorted(map(tuple, t.lattice_points_np().tolist()))
        assert a == sorted(t.lattice_points())

    def test_np_fast_path_for_unit_strides(self):
        t = TTIS(rectangular_tiling([2, 3, 2]))
        assert len(t.lattice_points_np()) == 12
        assert sorted(map(tuple, t.lattice_points_np().tolist())) == \
            sorted(t.lattice_points())

    @pytest.mark.parametrize("app,sizes,shape,tile", [
        ("sor", (8, 12), "rect", (2, 3, 3)),
        ("sor", (150, 300), "nonrect", (26, 76, 8)),
        ("jacobi", (4, 6, 6), "nonrect", (2, 2, 3)),
        ("jacobi", (100, 200, 200), "nonrect", (5, 20, 20)),
        ("adi", (200, 256), "nr1", (20, 64, 64)),
        ("adi", (48, 128), "nr3", (8, 32, 32)),
    ])
    def test_lattice_is_lexicographic(self, app, sizes, shape, tile):
        """Both traversals emit the lattice in lexicographic order (the
        HNF walk raises ``j'_k`` inside a fixed prefix; unit strides are
        an ``ij`` meshgrid), so a pack region's payload order is its
        lattice order: no stage sorts it."""
        _app, h = resolve_config(app, sizes, shape, tile)
        lat = TTIS(h).lattice_points_np()
        assert np.array_equal(np.lexsort(lat.T[::-1]),
                              np.arange(len(lat)))

    def test_points_inside_box(self):
        t = TTIS(jacobi_h())
        for p in t.lattice_points():
            for k in range(3):
                assert 0 <= p[k] < t.v[k]

    def test_tis_points_are_preimages(self):
        t = TTIS(jacobi_h())
        lat = t.lattice_points_np()
        tis = t.tis_points_np()
        for jp, j in zip(lat, tis):
            assert t.to_ttis(tuple(j)) == tuple(jp)


class TestPointMaps:
    def test_roundtrip(self):
        t = TTIS(jacobi_h())
        for p in t.lattice_points():
            assert t.to_ttis(t.from_ttis(p)) == tuple(p)

    def test_from_ttis_off_lattice_rejected(self):
        t = TTIS(jacobi_h())
        with pytest.raises(ValueError):
            t.from_ttis((1, 0, 0))  # (1,0,0) not in lattice of [[2,-1,0],...]

    def test_contains_lattice_point(self):
        t = TTIS(jacobi_h())
        pts = set(t.lattice_points())
        assert all(t.contains_lattice_point(p) for p in pts)
        assert not t.contains_lattice_point((1, 0, 0))
        assert not t.contains_lattice_point((-2, 1, 0))  # outside box

    def test_transformed_dependences(self):
        t = TTIS(jacobi_h())
        # H' (1,1,1) = (2-1, 1, 1) = (1,1,1)
        assert t.transformed_dependences([(1, 1, 1)]) == ((1, 1, 1),)

    def test_tile_point_in_ttis_box(self):
        """The defining TTIS property: j in TIS <=> H'j in [0, v)."""
        t = TTIS(jacobi_h())
        h = jacobi_h()
        import math
        for j in map(tuple, t.tis_points_np().tolist()):
            assert tuple(math.floor(x) for x in h.matvec(j)) == (0, 0, 0)
