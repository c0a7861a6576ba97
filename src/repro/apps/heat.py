"""1D heat equation in (time x space) — a 2D nest beyond the paper.

The paper's machinery is dimension-generic; its experiments are all
3D.  This app exercises the full pipeline at ``n = 2`` (a *1-D*
processor mesh): explicit 1D heat diffusion

    U[t,i] := c * U[t-1,i-1] + (1 - 2c) * U[t-1,i] + c * U[t-1,i+1]

with dependencies ``(1,1), (1,0), (1,-1)`` — negative component, so
either skew by ``[[1,0],[1,1]]`` and tile rectangularly, or tile the
original nest with a cone-aligned diamond ``H``.  Both routes are
provided; tests check they agree.
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

SKEW = RatMat([[1, 0], [1, 1]])

#: Hand-declared dependence matrix of the original nest (read order);
#: consumed by the pipeline and cross-checked against the statement
#: bodies by the ``TV04`` translation-validation pass.
DECLARED_DEPS = ((1, 1), (1, 0), (1, -1))

#: The same matrix after skewing: ``SKEW @ d`` per column.
DECLARED_SKEWED_DEPS = ((1, 2), (1, 1), (1, 0))

#: Diffusion number (stable for c < 1/2).
DIFFUSIVITY = 0.25


def init_value(array: str, cell: Tuple[int, ...]) -> float:
    t, i = cell
    return math.sin(0.5 * i) + 0.02 * t


def _expr():
    # reads: [U[t-1,i-1], U[t-1,i], U[t-1,i+1]]
    c = DIFFUSIVITY
    v = kexpr.reads(3)
    return c * v[0] + (1.0 - 2.0 * c) * v[1] + c * v[2]


def original_nest(t_steps: int, n: int) -> LoopNest:
    u = "U"
    stmt = Statement.of(
        ArrayRef.of(u, (0, 0)),
        [
            ArrayRef.of(u, (-1, -1)),
            ArrayRef.of(u, (-1, 0)),
            ArrayRef.of(u, (-1, 1)),
        ],
        _expr(),
    )
    validate_dependences(DECLARED_DEPS)
    return LoopNest.rectangular(
        "heat", [1, 1], [t_steps, n], [stmt], DECLARED_DEPS)


def app(t_steps: int, n: int) -> TiledApp:
    """Skewed variant (rectangular tiling becomes legal)."""
    orig = original_nest(t_steps, n)
    skewed = skew_nest(orig, SKEW)
    if skewed.dependences != DECLARED_SKEWED_DEPS:
        raise ValueError(
            f"declared skewed dependences {DECLARED_SKEWED_DEPS} do not "
            f"match SKEW @ DECLARED_DEPS = {skewed.dependences}")
    return TiledApp(
        name=f"heat-T{t_steps}-N{n}",
        nest=skewed,
        original=orig,
        skew=SKEW,
        init_value=init_value,
        mapping_dim=0,  # chains along time; space indexes processors
    )


def app_unskewed(t_steps: int, n: int) -> TiledApp:
    """Original nest for direct diamond tiling."""
    orig = original_nest(t_steps, n)
    return TiledApp(
        name=f"heat-diamond-T{t_steps}-N{n}",
        nest=orig,
        original=orig,
        skew=None,
        init_value=init_value,
        mapping_dim=0,
    )


def h_rectangular(x: int, y: int) -> RatMat:
    return rectangular_tiling([x, y])


def h_skewed_band(x: int, y: int) -> RatMat:
    """Second row ``(1, -1/2)/y`` — on the skewed cone's boundary
    (orthogonal to the skewed dependence ``(1, 2)``).  Tile volume is
    ``2xy``."""
    return parallelepiped_tiling([
        [f"1/{x}", 0],
        [f"1/{y}", f"-1/{2 * y}"],
    ])


def h_diamond(s: int) -> RatMat:
    """Cone-aligned diamond for the *unskewed* nest: rows parallel to
    the extreme rays ``(1,1)`` and ``(1,-1)``."""
    return parallelepiped_tiling([
        [f"1/{2 * s}", f"1/{2 * s}"],
        [f"1/{2 * s}", f"-1/{2 * s}"],
    ])


def reference(t_steps: int, n: int):
    u = {}

    def val(t, i):
        return u.get((t, i)) if (t, i) in u else init_value("U", (t, i))

    c = DIFFUSIVITY
    for t in range(1, t_steps + 1):
        for i in range(1, n + 1):
            u[(t, i)] = (c * val(t - 1, i - 1)
                         + (1.0 - 2.0 * c) * val(t - 1, i)
                         + c * val(t - 1, i + 1))
    return u
