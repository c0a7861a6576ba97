"""Parallelepiped tiling transformations (the paper's core contribution).

* :mod:`repro.tiling.transform` — the tiling transformation ``H``/``P``,
  tile space ``J^S``, tile contents, tile dependence matrix ``D^S``.
* :mod:`repro.tiling.ttis` — the Transformed Tile Iteration Space:
  ``H' = V H``, its Hermite Normal Form, loop strides and offsets.
* :mod:`repro.tiling.cone` — the tiling cone of a dependence set and its
  extreme rays (scheduling-optimal tile shapes come from here).
* :mod:`repro.tiling.legality` — ``H D >= 0`` legality.
* :mod:`repro.tiling.shapes` — convenient constructors for the tiling
  matrices used in the paper's experiments.
* :mod:`repro.tiling.selector` — tile-size selection along the mapping
  dimension (closed-form ratio balancing and empirical sweeps).
"""

from repro.tiling.transform import TilingTransformation
from repro.tiling.ttis import TTIS
from repro.tiling.cone import tiling_cone_rays, in_tiling_cone
from repro.tiling.legality import (
    is_legal_tiling,
    check_legal_tiling,
    legality_violations,
)
from repro.tiling.shapes import (
    rectangular_tiling,
    parallelepiped_tiling,
    cone_aligned_tiling,
)
from repro.tiling.selector import (
    SweepOutcome,
    ratio_balanced_extent,
    sweep_best_extent,
)

__all__ = [
    "TilingTransformation",
    "TTIS",
    "tiling_cone_rays",
    "in_tiling_cone",
    "is_legal_tiling",
    "check_legal_tiling",
    "legality_violations",
    "rectangular_tiling",
    "parallelepiped_tiling",
    "cone_aligned_tiling",
    "SweepOutcome",
    "ratio_balanced_extent",
    "sweep_best_extent",
]
