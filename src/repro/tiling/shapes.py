"""Constructors for tiling matrices.

These mirror how the paper writes its experimental tilings: rectangular
``H_r = diag(1/x, 1/y, 1/z)`` and non-rectangular matrices whose rows
are tiling-cone directions scaled by ``1/size``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.linalg.ratmat import RatMat
from repro.tiling.cone import in_tiling_cone


def rectangular_tiling(sizes: Sequence[int]) -> RatMat:
    """``H_r`` with tile extents ``sizes`` along the axes."""
    n = len(sizes)
    for s in sizes:
        if int(s) <= 0:
            raise ValueError("tile sizes must be positive")
    return RatMat(
        tuple(Fraction(1, int(sizes[i])) if i == j else Fraction(0)
              for j in range(n))
        for i in range(n)
    )


def parallelepiped_tiling(rows: Sequence[Sequence]) -> RatMat:
    """General ``H`` from explicit rational rows (paper's H_nr form)."""
    return RatMat(rows)


def cone_aligned_tiling(
        rays: Sequence[Sequence[int]],
        sizes: Sequence[int],
        deps: Optional[Sequence[Sequence[int]]] = None) -> RatMat:
    """``H`` whose row ``k`` is ``rays[k] / sizes[k]``.

    When the rays are (a subset of) the tiling cone's extreme rays this
    is the scheduling-optimal family of Hodzic & Shang [10].  If
    ``deps`` is given, each ray is validated to lie in the cone.
    """
    if len(rays) != len(sizes):
        raise ValueError("one size per ray required")
    if deps is not None:
        for r in rays:
            if not in_tiling_cone(r, deps):
                raise ValueError(f"ray {tuple(r)} is outside the tiling cone")
    rows: List[Tuple[Fraction, ...]] = []
    for ray, size in zip(rays, sizes):
        s = int(size)
        if s <= 0:
            raise ValueError("tile sizes must be positive")
        rows.append(tuple(Fraction(int(x), s) for x in ray))
    return RatMat(rows)
