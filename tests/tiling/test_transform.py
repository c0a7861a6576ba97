"""Unit tests for the tiling transformation (tile space, D^S, masks)."""

import pytest

from repro.polyhedra import box
from repro.tiling import TilingTransformation
from repro.tiling.shapes import parallelepiped_tiling, rectangular_tiling

SOR_DEPS = [(0, 1, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1), (1, 1, 2)]


@pytest.fixture(scope="module")
def sor_nr_tiling():
    h = parallelepiped_tiling(
        [["1/3", 0, 0], [0, "1/4", 0], ["-1/5", 0, "1/5"]])
    return TilingTransformation(h, box([1, 1, 1], [9, 12, 20]))


class TestBasics:
    def test_tile_of_floor(self, sor_nr_tiling):
        # H (3,4,5) = (1, 1, (5-3)/5) -> floor = (1, 1, 0)
        assert sor_nr_tiling.tile_of((3, 4, 5)) == (1, 1, 0)

    def test_origin_inverse_of_tile(self, sor_nr_tiling):
        for js in [(0, 0, 0), (1, 2, 1), (2, 0, 3)]:
            origin = sor_nr_tiling.tile_origin(js)
            assert sor_nr_tiling.tile_of(origin) == js

    def test_volume(self, sor_nr_tiling):
        assert sor_nr_tiling.tile_volume() == 3 * 4 * 5

    def test_non_integer_p_rejected(self):
        h = parallelepiped_tiling([["1/2", "-1/3"], [0, "1/2"]])
        with pytest.raises(ValueError):
            TilingTransformation(h, box([0, 0], [5, 5]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TilingTransformation(rectangular_tiling([2, 2]),
                                 box([0, 0, 0], [5, 5, 5]))


class TestPartition:
    def test_every_point_in_its_tile(self, sor_nr_tiling):
        tt = sor_nr_tiling
        for j in [(1, 1, 1), (9, 12, 20), (5, 7, 13)]:
            js = tt.tile_of(j)
            pts = set(map(tuple, tt.tile_points_np(js).tolist()))
            assert j in pts

    def test_tiles_partition_domain(self, sor_nr_tiling):
        tt = sor_nr_tiling
        seen = {}
        for t in tt.enumerate_tiles():
            for p in map(tuple, tt.tile_points_np(t).tolist()):
                assert p not in seen, f"{p} in two tiles"
                seen[p] = t
        assert len(seen) == 9 * 12 * 20

    def test_counts_sum_to_domain(self, sor_nr_tiling):
        tt = sor_nr_tiling
        assert sum(tt.tile_point_count(t)
                   for t in tt.enumerate_tiles()) == 9 * 12 * 20


class TestClassification:
    def test_full_tile(self, sor_nr_tiling):
        tt = sor_nr_tiling
        full = [t for t in tt.enumerate_tiles() if tt.tile_is_full(t)]
        assert full, "expected at least one interior tile"
        for t in full:
            assert tt.classify_tile(t) == "full"
            assert tt.tile_point_count(t) == tt.tile_volume()

    def test_classification_consistent_with_masks(self, sor_nr_tiling):
        tt = sor_nr_tiling
        for t in tt.enumerate_tiles():
            cls = tt.classify_tile(t)
            count = int(tt.tile_mask(t).sum())
            if cls == "full":
                assert count == tt.tile_volume()
            elif cls == "empty":
                assert count == 0
            else:
                assert 0 <= count <= tt.tile_volume()

    def test_far_away_tile_empty(self, sor_nr_tiling):
        assert sor_nr_tiling.classify_tile((50, 50, 50)) == "empty"
        assert sor_nr_tiling.tile_point_count((50, 50, 50)) == 0


class TestTileSpaceBounds:
    def test_bounds_contain_all_tiles(self, sor_nr_tiling):
        tt = sor_nr_tiling
        bounds = tt.tile_space_bounds()
        for t in tt.enumerate_tiles():
            lo0, hi0 = bounds[0].evaluate(())
            assert lo0 <= t[0] <= hi0
            lo1, hi1 = bounds[1].evaluate((t[0],))
            assert lo1 <= t[1] <= hi1
            lo2, hi2 = bounds[2].evaluate((t[0], t[1]))
            assert lo2 <= t[2] <= hi2

    def test_enumeration_cached(self, sor_nr_tiling):
        a = sor_nr_tiling.enumerate_tiles()
        assert sor_nr_tiling.enumerate_tiles() is a


class TestTileDependences:
    def test_sor_ds_nonnegative(self, sor_nr_tiling):
        ds = sor_nr_tiling.tile_dependences(SOR_DEPS)
        assert ds
        for d in ds:
            assert all(x >= 0 for x in d)
            assert any(d)

    def test_matches_bruteforce(self, sor_nr_tiling):
        """D^S definition checked point by point over the TIS."""
        tt = sor_nr_tiling
        got = set(tt.tile_dependences(SOR_DEPS))
        want = set()
        for j in map(tuple, tt.ttis.tis_points_np().tolist()):
            for d in SOR_DEPS:
                jd = tuple(a + b for a, b in zip(j, d))
                t = tt.tile_of(jd)
                if any(t):
                    want.add(t)
        assert got == want

    def test_cached(self, sor_nr_tiling):
        a = sor_nr_tiling.tile_dependences(SOR_DEPS)
        b = sor_nr_tiling.tile_dependences(SOR_DEPS)
        assert a is b

    def test_large_tile_swallows_dependence(self):
        """A tile much larger than all deps has only unit D^S entries."""
        h = rectangular_tiling([10, 10])
        tt = TilingTransformation(h, box([0, 0], [29, 29]))
        ds = tt.tile_dependences([(1, 0), (0, 1), (1, 1)])
        assert set(ds) == {(0, 1), (1, 0), (1, 1)}
