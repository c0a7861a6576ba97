"""Unimodularity checks and exact integer inverses.

Skewing matrices (paper §4) must be unimodular so that the skewed
iteration space is a bijective relabelling of the original one; the HNF
transform matrices ``U`` must be unimodular so no lattice points are
created or destroyed.
"""

from __future__ import annotations

from repro.linalg.ratmat import RatMat


def _as_ratmat(a) -> RatMat:
    return a if isinstance(a, RatMat) else RatMat(a)


def is_unimodular(a) -> bool:
    """True iff ``a`` is a square integer matrix with determinant ±1."""
    m = _as_ratmat(a)
    if not m.is_square() or not m.is_integer():
        return False
    return abs(m.det()) == 1


def integer_inverse(a) -> RatMat:
    """Inverse of an integer matrix, asserting the result is integral.

    Valid exactly when ``a`` is unimodular; used to invert skewing
    matrices and HNF column-operation accumulators.
    """
    m = _as_ratmat(a)
    inv = m.inverse()
    if not inv.is_integer():
        raise ValueError(
            "integer_inverse: matrix is not unimodular, inverse has "
            f"fractional entries (det = {m.det()})"
        )
    return inv
