"""Hermite Normal Form of integer matrices.

The paper needs the *column-style* HNF: for a nonsingular integer matrix
``A`` there is a unimodular ``U`` such that ``B = A @ U`` is lower
triangular with ``b_kk > 0`` and ``0 <= b_kl < b_kk`` for ``l < k``.
The TTIS loop strides are ``c_k = b_kk`` and the incremental offsets are
``a_kl = b_kl`` (paper §2.3, Fig. 2).

We implement HNF by exact integer column operations (extended-gcd
pivoting), track ``U``, and also provide the row-style variant (``B = U
@ A`` upper triangular) used for lattice membership tests.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.linalg.ratmat import RatMat

IntRows = Tuple[Tuple[int, ...], ...]


def _to_int_rows(a) -> List[List[int]]:
    if isinstance(a, RatMat):
        rows = a.to_int_rows()
    else:
        rows = tuple(tuple(int(x) for x in row) for row in a)
    return [list(r) for r in rows]


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def column_hnf(a) -> Tuple[RatMat, RatMat]:
    """Column-style Hermite Normal Form.

    Returns ``(B, U)`` with ``B = A @ U`` lower triangular, ``U``
    unimodular, diagonal positive, off-diagonals in each row reduced to
    ``0 <= b_kl < b_kk`` (for columns left of the diagonal).

    ``A`` must be a square nonsingular integer matrix (``RatMat`` with
    integer entries or nested int sequences).
    """
    rows = _to_int_rows(a)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("column_hnf requires a square matrix")
    b = [list(r) for r in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_combine(j1: int, j2: int, m11: int, m12: int, m21: int, m22: int):
        """Replace cols (j1, j2) by (m11*c1 + m21*c2, m12*c1 + m22*c2)."""
        for mat in (b, u):
            for r in mat:
                c1, c2 = r[j1], r[j2]
                r[j1] = m11 * c1 + m21 * c2
                r[j2] = m12 * c1 + m22 * c2

    for k in range(n):
        # Zero out entries to the right of the diagonal in row k using
        # extended-gcd column combinations on columns (k, j).
        for j in range(k + 1, n):
            akk, akj = b[k][k], b[k][j]
            if akj == 0:
                continue
            g, s, t = _ext_gcd(akk, akj)
            # New col k  = s*col_k + t*col_j        (entry becomes g)
            # New col j  = -(akj/g)*col_k + (akk/g)*col_j  (entry becomes 0)
            col_combine(k, j, s, -(akj // g), t, akk // g)
        if b[k][k] == 0:
            raise ZeroDivisionError("matrix is singular; HNF pivot vanished")
        if b[k][k] < 0:
            for mat in (b, u):
                for r in mat:
                    r[k] = -r[k]
        # Reduce columns to the left of the diagonal: 0 <= b[k][l] < b[k][k]
        for l in range(k):
            q = b[k][l] // b[k][k]  # floor division keeps remainder in [0, c_k)
            if q != 0:
                for mat in (b, u):
                    for r in mat:
                        r[l] -= q * r[k]
    return RatMat(b), RatMat(u)


def row_hnf(a) -> Tuple[RatMat, RatMat]:
    """Row-style HNF: returns ``(B, U)`` with ``B = U @ A`` upper triangular.

    Derived from the column form via transposition.  ``B`` has a positive
    diagonal and, within each column, entries above the diagonal reduced
    modulo the diagonal.
    """
    rows = _to_int_rows(a)
    at = RatMat(rows).transpose()
    bt, ut = column_hnf(at)
    return bt.transpose(), ut.transpose()


def is_column_hnf(b) -> bool:
    """Check the structural invariants of a column-style HNF matrix."""
    rows = _to_int_rows(b)
    n = len(rows)
    for k in range(n):
        if rows[k][k] <= 0:
            return False
        for j in range(k + 1, n):
            if rows[k][j] != 0:
                return False
        for l in range(k):
            if not (0 <= rows[k][l] < rows[k][k]):
                return False
    return True
