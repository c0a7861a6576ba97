"""Unit tests for global data-space assembly and cross-mode checks."""

import numpy as np
import pytest

from repro.runtime.dataspace import (
    arrays_match,
    assemble_dense,
    max_abs_difference,
    written_region,
)


@pytest.fixture
def sparse():
    return {(1, 2): 1.0, (1, 3): 2.0, (3, 2): 3.0}


class TestRegion:
    def test_bounding_box(self, sparse):
        assert written_region(sparse) == ((1, 2), (3, 3))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            written_region({})


class TestAssemble:
    def test_values_placed(self, sparse):
        a = assemble_dense(sparse, fill=0.0)
        assert a.shape == (3, 2)
        assert a[0, 0] == 1.0 and a[0, 1] == 2.0 and a[2, 0] == 3.0

    def test_fill_value(self, sparse):
        a = assemble_dense(sparse)
        assert np.isnan(a[1, 0])

    def test_custom_window(self, sparse):
        a = assemble_dense(sparse, fill=0.0, origin=(0, 0), shape=(5, 5))
        assert a[1, 2] == 1.0
        assert a[3, 2] == 3.0

    def test_out_of_window_raises(self, sparse):
        # Silently dropping cells used to mask assembly bugs; now the
        # caller must opt into truncation explicitly.
        with pytest.raises(ValueError, match="3 cell"):
            assemble_dense(sparse, fill=0.0, origin=(0, 0), shape=(1, 1))

    def test_out_of_window_clip_opt_in(self, sparse):
        a = assemble_dense(sparse, fill=0.0, origin=(0, 0), shape=(1, 1),
                           clip=True)
        assert a.sum() == 0.0  # all cells outside the tiny window

    def test_from_real_execution(self, sor_small, sor_reference_small):
        from repro.apps import sor
        from repro import execute
        from repro.runtime import ClusterSpec, TiledProgram
        prog = TiledProgram(sor_small.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        arrays, _ = execute(prog, sor_small.init_value, ClusterSpec())
        dense = assemble_dense(arrays["A"], fill=0.0)
        # data cells are *unskewed*: A[t,i,j] over [1,4] x [1,6]^2
        assert dense.shape == (4, 6, 6)
        assert not np.isnan(dense).any()


class TestComparison:
    def test_max_abs_difference(self, sparse):
        other = dict(sparse)
        other[(3, 2)] += 1e-6
        assert max_abs_difference(sparse, other) == pytest.approx(1e-6)

    def test_key_mismatch_is_infinite(self, sparse):
        other = dict(sparse)
        other[(9, 9)] = 0.0
        assert max_abs_difference(sparse, other) == float("inf")

    def test_arrays_match(self, sparse):
        assert arrays_match({"A": sparse}, {"A": dict(sparse)})
        assert not arrays_match({"A": sparse}, {"B": sparse})
        shifted = {k: v + 1.0 for k, v in sparse.items()}
        assert not arrays_match({"A": sparse}, {"A": shifted})

    def test_nan_on_one_side_is_infinite(self):
        """A NaN that is not the first cell used to be skipped by
        ``max`` and read as agreement at tol 0.0; it is a mismatch.
        NaN against NaN in one cell agrees."""
        nan = float("nan")
        a = {(0,): 1.0, (1,): nan}
        b = {(0,): 1.0, (1,): 2.0}
        assert max_abs_difference(a, b) == float("inf")
        assert max_abs_difference(b, a) == float("inf")
        assert not arrays_match({"A": a}, {"A": b}, tol=0.0)
        both = {(0,): 1.0, (1,): nan}
        assert max_abs_difference(a, both) == 0.0
        assert arrays_match({"A": a}, {"A": both}, tol=0.0)
