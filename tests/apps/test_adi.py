"""Unit tests for the ADI application definition."""

from repro.apps import adi
from repro.schedule import last_tile_time
from repro.tiling import in_tiling_cone, is_legal_tiling


class TestNest:
    def test_dependences_match_paper(self, adi_small):
        assert set(adi_small.nest.dependences) == {
            (1, 0, 0), (1, 1, 0), (1, 0, 1)
        }

    def test_no_skew_needed(self, adi_small):
        assert adi_small.skew is None
        assert adi_small.nest is adi_small.original

    def test_two_written_arrays(self, adi_small):
        assert set(adi_small.nest.written_arrays) == {"X", "B"}

    def test_input_array_not_written(self, adi_small):
        reads = [r.array for s in adi_small.nest.statements
                 for r in s.reads]
        assert "A" in reads
        assert "A" not in adi_small.nest.written_arrays

    def test_mapping_dim_is_first(self, adi_small):
        assert adi_small.mapping_dim == 0


class TestTilingMatrices:
    def test_all_legal(self, adi_small):
        deps = adi_small.nest.dependences
        for hf in (adi.h_rectangular, adi.h_nr1, adi.h_nr2, adi.h_nr3):
            assert is_legal_tiling(hf(2, 4, 4), deps)

    def test_nr3_row_in_cone(self, adi_small):
        h = adi.h_nr3(2, 4, 4)
        assert in_tiling_cone(tuple(h.row(0)), adi_small.nest.dependences)

    def test_nr3_parallel_to_extreme_ray_when_cubic(self):
        h = adi.h_nr3(4, 4, 4)
        row = tuple(x * 4 for x in h.row(0))
        assert tuple(int(v) for v in row) == (1, -1, -1)

    def test_equal_volumes(self):
        vols = {
            abs(hf(2, 4, 4).inverse().det())
            for hf in (adi.h_rectangular, adi.h_nr1, adi.h_nr2, adi.h_nr3)
        }
        assert vols == {32}

    def test_completion_formula_ordering(self):
        """t_nr3 < t_nr1 = t_nr2 < t_r (y = z)."""
        j_max = (64, 128, 128)
        x, y, z = 8, 16, 16
        ts = {
            name: last_tile_time(hf(x, y, z), j_max)
            for name, hf in [("r", adi.h_rectangular), ("nr1", adi.h_nr1),
                             ("nr2", adi.h_nr2), ("nr3", adi.h_nr3)]
        }
        assert ts["nr3"] < ts["nr1"] == ts["nr2"] < ts["r"]


class TestReference:
    def test_b_stays_positive(self):
        ref = adi.reference(5, 6)
        assert all(v > 0.5 for v in ref["B"].values())

    def test_spot_value_x(self):
        ref = adi.reference(1, 1)
        iv = adi.init_value
        a = iv("A", (1, 1))
        expect = (
            iv("X", (0, 1, 1))
            + iv("X", (0, 1, 0)) * a / iv("B", (0, 1, 0))
            - iv("X", (0, 0, 1)) * a / iv("B", (0, 0, 1))
        )
        assert abs(ref["X"][(1, 1, 1)] - expect) < 1e-12

    def test_sizes(self):
        ref = adi.reference(2, 3)
        assert len(ref["X"]) == len(ref["B"]) == 2 * 9
