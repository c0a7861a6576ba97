"""Property-based tests: HNF invariants on random matrices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    RatMat,
    column_hnf,
    is_column_hnf,
    is_unimodular,
)


def nonsingular_int_matrices(n: int, lo: int = -6, hi: int = 6):
    return (
        st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
        .map(RatMat)
        .filter(lambda m: m.det() != 0)
    )


@given(nonsingular_int_matrices(2))
@settings(max_examples=120)
def test_hnf_2x2_invariants(a):
    b, u = column_hnf(a)
    assert a @ u == b
    assert is_unimodular(u)
    assert is_column_hnf(b)
    assert abs(b.det()) == abs(a.det())


@given(nonsingular_int_matrices(3, -4, 4))
@settings(max_examples=60)
def test_hnf_3x3_invariants(a):
    b, u = column_hnf(a)
    assert a @ u == b
    assert is_unimodular(u)
    assert is_column_hnf(b)
    assert abs(b.det()) == abs(a.det())


@given(nonsingular_int_matrices(2))
@settings(max_examples=80)
def test_hnf_uniqueness(a):
    """HNF is a canonical form: unimodular column changes don't move it."""
    b1, _ = column_hnf(a)
    # Post-multiply by a fixed unimodular matrix and re-normalize.
    w = RatMat([[1, 1], [0, 1]])
    b2, _ = column_hnf(a @ w)
    assert b1 == b2


@given(nonsingular_int_matrices(2))
@settings(max_examples=80)
def test_hnf_diagonal_product_is_lattice_index(a):
    """prod(c_k) = |det| — the TTIS lattice density identity."""
    b, _ = column_hnf(a)
    assert int(b[0, 0]) * int(b[1, 1]) == abs(int(a.det()))
