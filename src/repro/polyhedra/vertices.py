"""Vertex enumeration for bounded polyhedra (exact, small dimension).

Tile-space bounding boxes come from the vertices of the iteration
polyhedron mapped through ``H``: tiles can only exist between
``floor(min H v)`` and ``floor(max H v)`` over vertices ``v``.  Loop
depth is tiny (2-4), so brute-force basis enumeration is exact and fast
enough for a compiler.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, floor
from typing import List, Tuple

from repro.linalg.ratmat import RatMat
from repro.polyhedra.halfspace import Polyhedron


def enumerate_vertices(p: Polyhedron) -> List[Tuple[Fraction, ...]]:
    """All vertices of ``p`` (assumed bounded), exactly.

    Every vertex is the unique solution of ``dim`` linearly independent
    active constraints; we enumerate constraint subsets, solve, and keep
    feasible solutions.  Duplicates (a vertex active on more than
    ``dim`` constraints) are merged.
    """
    n = p.dim
    cs = p.normalized().constraints
    verts: List[Tuple[Fraction, ...]] = []
    seen = set()
    for subset in combinations(range(len(cs)), n):
        a_rows = [cs[i].a for i in subset]
        b_vals = [cs[i].b for i in subset]
        m = RatMat(a_rows)
        if m.det() == 0:
            continue
        x = m.solve(b_vals)
        if x in seen:
            continue
        if p.contains(x):
            seen.add(x)
            verts.append(x)
    return verts


def bounding_box(p: Polyhedron) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Integer bounding box (inclusive) of a bounded polyhedron.

    Returns ``(lo, hi)`` with ``lo_k = ceil(min_k)``, ``hi_k =
    floor(max_k)`` over the vertex set — the tightest box containing all
    *integer* points of ``p``.
    """
    verts = enumerate_vertices(p)
    if not verts:
        raise ValueError("polyhedron has no vertices (empty or unbounded)")
    n = p.dim
    lo = []
    hi = []
    for k in range(n):
        vals = [v[k] for v in verts]
        lo.append(ceil(min(vals)))
        hi.append(floor(max(vals)))
    return tuple(lo), tuple(hi)


def image_bounding_box(
    p: Polyhedron, m: RatMat
) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Exact (rational) bounding box of ``{ M x : x in p }``.

    Convexity means extrema of each output coordinate are attained at
    vertices of ``p``; no floor/ceil applied so callers choose their own
    rounding (tile space uses floor on both ends).
    """
    verts = enumerate_vertices(p)
    if not verts:
        raise ValueError("polyhedron has no vertices (empty or unbounded)")
    imgs = [m.matvec(v) for v in verts]
    lo = tuple(min(img[k] for img in imgs) for k in range(m.nrows))
    hi = tuple(max(img[k] for img in imgs) for k in range(m.nrows))
    return lo, hi
