"""Jacobi relaxation (paper §4.2).

Original nest (1 <= t <= T, 1 <= i <= I, 1 <= j <= J)::

    A[t,i,j] := c * (A[t-1,i,j] + A[t-1,i-1,j] + A[t-1,i+1,j]
                     + A[t-1,i,j-1] + A[t-1,i,j+1])

Skewed by ``T = [[1,0,0],[1,1,0],[1,0,1]]``; the skewed dependence
matrix is ``[(1,1,1),(1,2,1),(1,0,1),(1,1,2),(1,1,0)]`` (columns).  The
paper's non-rectangular tiling only changes one entry of ``H_r``::

    H_nr = [[1/x, -1/(2x), 0], [0, 1/y, 0], [0, 0, 1/z]]

whose first row ``(1, -1/2, 0)/x`` lies on the tiling cone's boundary
(it is orthogonal to the dependence ``(1,2,1)`` and non-negative on the
rest).  Mapping is along the *first* dimension.  ``y`` must be even for
``P = H^{-1}`` to stay integral.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.apps.base import TiledApp
from repro.linalg.ratmat import RatMat
from repro.loops import kexpr
from repro.loops.dependence import validate_dependences
from repro.loops.nest import LoopNest, Statement
from repro.loops.reference import ArrayRef
from repro.loops.skewing import skew_nest
from repro.tiling.shapes import parallelepiped_tiling, rectangular_tiling

SKEW = RatMat([[1, 0, 0], [1, 1, 0], [1, 0, 1]])

#: Hand-declared dependence matrix of the original nest (read order);
#: consumed by the pipeline and cross-checked against the statement
#: bodies by the ``TV04`` translation-validation pass.
DECLARED_DEPS = ((1, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1))

#: The same matrix after skewing: ``SKEW @ d`` per column.
DECLARED_SKEWED_DEPS = (
    (1, 1, 1), (1, 2, 1), (1, 0, 1), (1, 1, 2), (1, 1, 0))

#: 5-point averaging coefficient.
COEF = 0.2


def init_value(array: str, cell: Tuple[int, ...]) -> float:
    t, i, j = cell
    return math.cos(0.2 * i - 0.5 * j) + 0.05 * t


def _expr():
    # reads: [center, i-1, i+1, j-1, j+1] all at t-1
    v = kexpr.reads(5)
    return COEF * (v[0] + v[1] + v[2] + v[3] + v[4])


def original_nest(t_steps: int, i_size: int, j_size: int) -> LoopNest:
    a = "A"
    stmt = Statement.of(
        ArrayRef.of(a, (0, 0, 0)),
        [
            ArrayRef.of(a, (-1, 0, 0)),
            ArrayRef.of(a, (-1, -1, 0)),
            ArrayRef.of(a, (-1, 1, 0)),
            ArrayRef.of(a, (-1, 0, -1)),
            ArrayRef.of(a, (-1, 0, 1)),
        ],
        _expr(),
    )
    validate_dependences(DECLARED_DEPS)
    return LoopNest.rectangular(
        "jacobi", [1, 1, 1], [t_steps, i_size, j_size], [stmt],
        DECLARED_DEPS,
    )


def app(t_steps: int, i_size: int, j_size: int) -> TiledApp:
    orig = original_nest(t_steps, i_size, j_size)
    skewed = skew_nest(orig, SKEW)
    if skewed.dependences != DECLARED_SKEWED_DEPS:
        raise ValueError(
            f"declared skewed dependences {DECLARED_SKEWED_DEPS} do not "
            f"match SKEW @ DECLARED_DEPS = {skewed.dependences}")
    return TiledApp(
        name=f"jacobi-T{t_steps}-I{i_size}-J{j_size}",
        nest=skewed,
        original=orig,
        skew=SKEW,
        init_value=init_value,
        mapping_dim=0,  # the paper maps tiles along the first dimension
    )


def h_rectangular(x: int, y: int, z: int) -> RatMat:
    return rectangular_tiling([x, y, z])


def h_nonrectangular(x: int, y: int, z: int) -> RatMat:
    """First row ``(1, -1/2, 0) / x`` — on the tiling-cone boundary."""
    return parallelepiped_tiling([
        [f"1/{x}", f"-1/{2 * x}", 0],
        [0, f"1/{y}", 0],
        [0, 0, f"1/{z}"],
    ])


def reference(t_steps: int, i_size: int, j_size: int):
    a = {}

    def val(t, i, j):
        if (t, i, j) in a:
            return a[(t, i, j)]
        return init_value("A", (t, i, j))

    for t in range(1, t_steps + 1):
        for i in range(1, i_size + 1):
            for j in range(1, j_size + 1):
                a[(t, i, j)] = COEF * (
                    val(t - 1, i, j) + val(t - 1, i - 1, j)
                    + val(t - 1, i + 1, j) + val(t - 1, i, j - 1)
                    + val(t - 1, i, j + 1)
                )
    return a
