"""Exact integer and rational linear algebra.

This package is the arithmetic substrate for the whole compiler: tiling
matrices ``H`` have rational entries, their inverses ``P`` must be exact,
and loop strides/offsets come from the Hermite Normal Form of integer
matrices.  Floating point is never acceptable here — a stride that is off
by one produces wrong code — so everything below is built on
:class:`fractions.Fraction` and Python integers.
"""

from repro.linalg.ratmat import (
    RatMat,
    rat,
    identity,
    diag,
    from_rows,
    lcm,
)
from repro.linalg.hermite import (
    column_hnf,
    row_hnf,
    is_column_hnf,
)
from repro.linalg.unimodular import is_unimodular, integer_inverse
from repro.linalg.lattice import (
    lattice_contains,
    lattice_points_in_box,
    fundamental_volume,
)

__all__ = [
    "RatMat",
    "rat",
    "identity",
    "diag",
    "from_rows",
    "lcm",
    "column_hnf",
    "row_hnf",
    "is_column_hnf",
    "is_unimodular",
    "integer_inverse",
    "lattice_contains",
    "lattice_points_in_box",
    "fundamental_volume",
]
