"""Exact integer-point enumeration of polyhedra via derived loop bounds.

This is the reference enumerator the rest of the system is tested
against: it walks the polyhedron the same way generated loop code would
(outer-to-inner with max/ceil lower bounds and min/floor upper bounds),
so any discrepancy between generated code and this walker is a codegen
bug.  The walk is one integer level sweep (:func:`sweep`): level ``k``'s
bounds are evaluated for every prefix at once and each prefix expanded
into its children, in int64 and in bounded chunks.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.polyhedra.fourier_motzkin import IntegerBound, loop_bounds
from repro.polyhedra.halfspace import Polyhedron

#: The most rows one chunk of a sweep holds, at every level.
CHUNK = 1 << 16


def int_constraints(p: Polyhedron) -> Tuple[np.ndarray, np.ndarray]:
    """Scale constraints ``a x <= b`` to integer (A, b) numpy arrays."""
    rows = []
    rhs = []
    for c in p.normalized().constraints:
        den = math.lcm(c.b.denominator, *(x.denominator for x in c.a))
        rows.append([int(x * den) for x in c.a])
        rhs.append(int(c.b * den))
    return (np.array(rows, dtype=np.int64).reshape(len(rows), p.dim),
            np.array(rhs, dtype=np.int64))


def sweep(levels: Sequence[IntegerBound]) -> Iterator[np.ndarray]:
    """The integer points between the bounds of ``levels`` (level ``k``
    bounds variable ``k`` by the ``k`` before it), in lexicographic
    order, as ``(<= CHUNK, len(levels))`` int64 chunks."""
    yield from _sweep(levels, np.zeros((1, 0), dtype=np.int64))


def _sweep(levels: Sequence[IntegerBound],
           prefixes: np.ndarray) -> Iterator[np.ndarray]:
    k = prefixes.shape[1]
    if k == len(levels):
        yield prefixes
        return
    lo, hi = levels[k].range_of(prefixes)
    count = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(count)
    start = 0
    while start < len(prefixes):
        # The parents whose children fit in one chunk (at least one).
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, done + CHUNK, side="right")))
        part = count[start:stop]
        base = np.repeat(ends[start:stop] - part - done, part)
        values = np.repeat(lo[start:stop], part) + (
            np.arange(len(base), dtype=np.int64) - base)
        children = np.column_stack(
            (np.repeat(prefixes[start:stop], part, axis=0), values))
        for at in range(0, len(children), CHUNK):
            yield from _sweep(levels, children[at:at + CHUNK])
        start = stop


def integer_point_chunks(p: Polyhedron) -> Iterator[np.ndarray]:
    """The integer points of a bounded polyhedron in lexicographic
    order, as nonempty ``(<= CHUNK, dim)`` int64 chunks.

    Fourier-Motzkin projections are rationally exact but may admit
    integer shadow points with no integer preimage, so each chunk is
    re-checked against the original constraints (one integer ``A x <=
    b``) — the "boundary correction" the paper alludes to for boundary
    tiles.
    """
    amat, bvec = int_constraints(p)
    levels = [b.integer_bound() for b in loop_bounds(p)]
    for cand in sweep(levels):
        inside = cand[np.all(cand @ amat.T <= bvec, axis=1)]
        if len(inside):
            yield inside


def integer_points(p: Polyhedron) -> Iterator[Tuple[int, ...]]:
    """Yield integer points of a bounded polyhedron in lexicographic
    order (:func:`integer_point_chunks`, one tuple at a time)."""
    for chunk in integer_point_chunks(p):
        yield from map(tuple, chunk.tolist())


def count_integer_points(p: Polyhedron) -> int:
    """Number of integer points in a bounded polyhedron."""
    return sum(len(chunk) for chunk in integer_point_chunks(p))


def contains_integer_point(p: Polyhedron) -> bool:
    """True iff the bounded polyhedron contains at least one integer point."""
    return next(integer_point_chunks(p), None) is not None
