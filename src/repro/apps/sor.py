"""Gauss Successive Over-Relaxation (paper §4.1).

Original nest (1 <= t <= M, 1 <= i, j <= N)::

    A[t,i,j] := w/4 * (A[t,i-1,j] + A[t,i,j-1]
                       + A[t-1,i+1,j] + A[t-1,i,j+1])
                + (1-w) * A[t-1,i,j]

Dependence vectors contain negative components, so the paper skews by
``T = [[1,0,0],[1,1,0],[2,0,1]]`` (after Xue) before tiling.  The
experimental tilings compared are::

    H_r  = diag(1/x, 1/y, 1/z)                      (rectangular)
    H_nr = [[1/x,0,0],[0,1/y,0],[-1/z,0,1/z]]        (3rd row on the cone)

With common ``x,y,z`` both have tile volume ``xyz``, equal communication
volume and processor counts; the speedup difference is purely the tile
*shape* — the point of the experiment.
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

#: The paper's skewing matrix (from Xue [15]).
SKEW = RatMat([[1, 0, 0], [1, 1, 0], [2, 0, 1]])

#: Hand-declared dependence matrix of the original nest, one column per
#: unique flow dependence in statement read order (write offset minus
#: read offset).  The pipeline consumes THIS tuple; the ``TV04``
#: translation-validation pass re-derives the vectors from the
#: statement bodies and flags any drift between the two.
DECLARED_DEPS = ((0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (1, 0, 0))

#: The same matrix after skewing: ``SKEW @ d`` per column.
DECLARED_SKEWED_DEPS = (
    (0, 1, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1), (1, 1, 2))

#: Relaxation factor used in kernels (any 0 < w < 2 works numerically).
OMEGA = 0.9


def init_value(array: str, cell: Tuple[int, ...]) -> float:
    """Deterministic boundary/initial condition for ``A`` cells.

    Covers ``t = 0`` (initial grid) and the fixed spatial boundary
    (``i`` or ``j`` outside ``1..N``) in one smooth formula so every
    execution mode agrees exactly.
    """
    t, i, j = cell
    return math.sin(0.3 * i + 0.7 * j) + 0.1 * t


def _expr():
    # reads: [A[t,i-1,j], A[t,i,j-1], A[t-1,i+1,j], A[t-1,i,j+1], A[t-1,i,j]]
    # ``OMEGA / 4.0`` and ``1.0 - OMEGA`` fold here, once, in Python.
    v = kexpr.reads(5)
    return (OMEGA / 4.0) * (v[0] + v[1] + v[2] + v[3]) \
        + (1.0 - OMEGA) * v[4]


def original_nest(m: int, n: int) -> LoopNest:
    """The unskewed SOR nest over ``[1,M] x [1,N]^2``."""
    a = "A"
    stmt = Statement.of(
        ArrayRef.of(a, (0, 0, 0)),
        [
            ArrayRef.of(a, (0, -1, 0)),
            ArrayRef.of(a, (0, 0, -1)),
            ArrayRef.of(a, (-1, 1, 0)),
            ArrayRef.of(a, (-1, 0, 1)),
            ArrayRef.of(a, (-1, 0, 0)),
        ],
        _expr(),
    )
    validate_dependences(DECLARED_DEPS)
    return LoopNest.rectangular(
        "sor", [1, 1, 1], [m, n, n], [stmt], DECLARED_DEPS)


def app(m: int, n: int) -> TiledApp:
    """SOR instance, skewed and ready for (rectangular or not) tiling."""
    orig = original_nest(m, n)
    skewed = skew_nest(orig, SKEW)
    if skewed.dependences != DECLARED_SKEWED_DEPS:
        raise ValueError(
            f"declared skewed dependences {DECLARED_SKEWED_DEPS} do not "
            f"match SKEW @ DECLARED_DEPS = {skewed.dependences}")
    return TiledApp(
        name=f"sor-M{m}-N{n}",
        nest=skewed,
        original=orig,
        skew=SKEW,
        init_value=init_value,
        mapping_dim=2,  # the paper maps tiles along the third dimension
    )


def h_rectangular(x: int, y: int, z: int) -> RatMat:
    return rectangular_tiling([x, y, z])


def h_nonrectangular(x: int, y: int, z: int) -> RatMat:
    """Third row parallel to the cone direction ``(-1, 0, 1)``."""
    return parallelepiped_tiling([
        [f"1/{x}", 0, 0],
        [0, f"1/{y}", 0],
        [f"-1/{z}", 0, f"1/{z}"],
    ])


def reference(m: int, n: int):
    """Naive dict-based SOR in original coordinates (independent code
    path; used to validate the IR + interpreter + executor stack)."""
    a = {}

    def val(t, i, j):
        if (t, i, j) in a:
            return a[(t, i, j)]
        return init_value("A", (t, i, j))

    for t in range(1, m + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a[(t, i, j)] = (OMEGA / 4.0) * (
                    val(t, i - 1, j) + val(t, i, j - 1)
                    + val(t - 1, i + 1, j) + val(t - 1, i, j + 1)
                ) + (1.0 - OMEGA) * val(t - 1, i, j)
    return a
