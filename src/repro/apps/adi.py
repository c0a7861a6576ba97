"""ADI integration (paper §4.3, Table 3).

Two statements, two written arrays, one pure-input coefficient array::

    X[t,i,j] := X[t-1,i,j] + X[t-1,i,j-1]*A[i,j]/B[t-1,i,j-1]
                           - X[t-1,i-1,j]*A[i,j]/B[t-1,i-1,j]
    B[t,i,j] := B[t-1,i,j] - A[i,j]^2/B[t-1,i,j-1]
                           - A[i,j]^2/B[t-1,i-1,j]

All dependence vectors (``(1,0,0), (1,1,0), (1,0,1)``) are already
non-negative — no skewing needed.  The paper compares four tilings of
equal volume/communication/processors with predicted completion
ordering ``t_nr3 < t_nr1 = t_nr2 < t_r``.

**A note on the printed matrices.**  §4.3 prints ``H_nr1`` with a
``-1/x`` entry, but derives ``t_nr1 = t_r - N/y`` — which requires the
entry to be ``-1/y`` (then the schedule telescopes:
``Pi H_nr1 j = t/x + j/z`` exactly).  With ``-1/x`` the claimed
improvement holds only for ``x >= y``, contradicting their x-sweep.
The two readings coincide at ``x = y = z``.  We implement the
formula-consistent reading (it is what produces the evaluation's
unconditional ordering)::

    H_r   = diag(1/x, 1/y, 1/z)
    H_nr1 = [[1/x,-1/y,0],[0,1/y,0],[0,0,1/z]]      ->  t_r - N/y
    H_nr2 = [[1/x,0,-1/z],[0,1/y,0],[0,0,1/z]]      ->  t_r - N/z
    H_nr3 = [[1/x,-1/y,-1/z],[0,1/y,0],[0,0,1/z]]   ->  t_r - N/y - N/z

``H_nr3``'s first row is in the tiling cone for ``x <= min(y, z)`` and
parallel to the extreme ray ``(1,-1,-1)`` at ``x = y = z``.
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
from repro.tiling.shapes import parallelepiped_tiling, rectangular_tiling

#: Hand-declared dependence matrix (read order, deduplicated across
#: both statements; the ``A`` reads are pure inputs and contribute no
#: vector).  Consumed by the pipeline and cross-checked against the
#: statement bodies by the ``TV04`` translation-validation pass.  No
#: skewing is needed: every vector is already non-negative.
DECLARED_DEPS = ((1, 0, 0), (1, 0, 1), (1, 1, 0))


def init_value(array: str, cell: Tuple[int, ...]) -> float:
    """Initial/boundary values; ``B`` bounded away from zero so the
    divisions stay well-conditioned in every execution order."""
    if array == "A":        # 2D coefficient array, pure input
        i, j = cell
        return 0.08 + 0.02 * math.sin(0.4 * i + 0.9 * j)
    t, i, j = cell
    if array == "B":
        return 1.5 + 0.1 * math.cos(0.3 * i - 0.2 * j)
    return math.sin(0.5 * i) * math.cos(0.4 * j) + 0.02 * t  # X


def _expr_x():
    # reads: [X[t-1,i,j], X[t-1,i,j-1], B[t-1,i,j-1],
    #         X[t-1,i-1,j], B[t-1,i-1,j], A[i,j]]
    x_c, x_jm, b_jm, x_im, b_im, a = kexpr.reads(6)
    return x_c + x_jm * a / b_jm - x_im * a / b_im


def _expr_b():
    # reads: [B[t-1,i,j], B[t-1,i,j-1], B[t-1,i-1,j], A[i,j]]
    b_c, b_jm, b_im, a = kexpr.reads(4)
    return b_c - (a * a) / b_jm - (a * a) / b_im


#: Access matrix projecting iteration (t,i,j) onto array index (i,j).
_PROJ_IJ = RatMat([[0, 1, 0], [0, 0, 1]])


def original_nest(t_steps: int, n: int) -> LoopNest:
    st_x = Statement.of(
        ArrayRef.of("X", (0, 0, 0)),
        [
            ArrayRef.of("X", (-1, 0, 0)),
            ArrayRef.of("X", (-1, 0, -1)),
            ArrayRef.of("B", (-1, 0, -1)),
            ArrayRef.of("X", (-1, -1, 0)),
            ArrayRef.of("B", (-1, -1, 0)),
            ArrayRef.of("A", (0, 0), _PROJ_IJ),
        ],
        _expr_x(),
    )
    st_b = Statement.of(
        ArrayRef.of("B", (0, 0, 0)),
        [
            ArrayRef.of("B", (-1, 0, 0)),
            ArrayRef.of("B", (-1, 0, -1)),
            ArrayRef.of("B", (-1, -1, 0)),
            ArrayRef.of("A", (0, 0), _PROJ_IJ),
        ],
        _expr_b(),
    )
    validate_dependences(DECLARED_DEPS)
    return LoopNest.rectangular(
        "adi", [1, 1, 1], [t_steps, n, n], [st_x, st_b], DECLARED_DEPS
    )


def app(t_steps: int, n: int) -> TiledApp:
    nest = original_nest(t_steps, n)
    return TiledApp(
        name=f"adi-T{t_steps}-N{n}",
        nest=nest,
        original=nest,
        skew=None,
        init_value=init_value,
        mapping_dim=0,  # tiles mapped along the first dimension
    )


def h_rectangular(x: int, y: int, z: int) -> RatMat:
    return rectangular_tiling([x, y, z])


def h_nr1(x: int, y: int, z: int) -> RatMat:
    """First row tilted against dimension i: ``t_nr1 = t_r - N/y``."""
    return parallelepiped_tiling([
        [f"1/{x}", f"-1/{y}", 0],
        [0, f"1/{y}", 0],
        [0, 0, f"1/{z}"],
    ])


def h_nr2(x: int, y: int, z: int) -> RatMat:
    """First row tilted against dimension j: ``t_nr2 = t_r - N/z``."""
    return parallelepiped_tiling([
        [f"1/{x}", 0, f"-1/{z}"],
        [0, f"1/{y}", 0],
        [0, 0, f"1/{z}"],
    ])


def h_nr3(x: int, y: int, z: int) -> RatMat:
    """Tilted against both spatial dimensions (cone-aligned family):
    ``t_nr3 = t_r - N/y - N/z``."""
    return parallelepiped_tiling([
        [f"1/{x}", f"-1/{y}", f"-1/{z}"],
        [0, f"1/{y}", 0],
        [0, 0, f"1/{z}"],
    ])


def reference(t_steps: int, n: int):
    """Naive dict-based ADI in original coordinates."""
    xs, bs = {}, {}

    def xval(t, i, j):
        return xs.get((t, i, j)) if (t, i, j) in xs \
            else init_value("X", (t, i, j))

    def bval(t, i, j):
        return bs.get((t, i, j)) if (t, i, j) in bs \
            else init_value("B", (t, i, j))

    def aval(i, j):
        return init_value("A", (i, j))

    for t in range(1, t_steps + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = aval(i, j)
                xs[(t, i, j)] = (
                    xval(t - 1, i, j)
                    + xval(t - 1, i, j - 1) * a / bval(t - 1, i, j - 1)
                    - xval(t - 1, i - 1, j) * a / bval(t - 1, i - 1, j)
                )
                bs[(t, i, j)] = (
                    bval(t - 1, i, j)
                    - (a * a) / bval(t - 1, i, j - 1)
                    - (a * a) / bval(t - 1, i - 1, j)
                )
    return {"X": xs, "B": bs}
