"""Exact integer-point enumeration of polyhedra via derived loop bounds.

This is the reference enumerator the rest of the system is tested
against: it walks the polyhedron the same way generated loop code would
(outer-to-inner with max/ceil lower bounds and min/floor upper bounds)
but in pure Python, so any discrepancy between generated code and this
walker is a codegen bug.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.polyhedra.fourier_motzkin import loop_bounds
from repro.polyhedra.halfspace import Polyhedron


def integer_points(p: Polyhedron) -> Iterator[Tuple[int, ...]]:
    """Yield integer points of a bounded polyhedron in lexicographic order.

    Fourier-Motzkin projections are rationally exact but may admit
    integer shadow points with no integer preimage, so each candidate is
    re-checked against the original constraints before being yielded —
    the "boundary correction" the paper alludes to for boundary tiles.
    """
    bounds = loop_bounds(p)
    n = p.dim

    def rec(k: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if k == n:
            yield prefix
            return
        lo, hi = bounds[k].evaluate(prefix)
        for v in range(lo, hi + 1):
            yield from rec(k + 1, prefix + (v,))

    for pt in rec(0, ()):
        if p.contains(pt):
            yield pt


def count_integer_points(p: Polyhedron) -> int:
    """Number of integer points in a bounded polyhedron."""
    return sum(1 for _ in integer_points(p))


def contains_integer_point(p: Polyhedron) -> bool:
    """True iff the bounded polyhedron contains at least one integer point."""
    return next(integer_points(p), None) is not None
