"""Shared application scaffolding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest

Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]


@dataclass(frozen=True)
class TiledApp:
    """One benchmark: a tile-ready nest plus its paper metadata.

    * ``nest`` — the nest tiling is applied to (already skewed when the
      original dependencies have negative components);
    * ``original`` — the unskewed nest (for reference execution);
    * ``skew`` — the unimodular skewing matrix, or ``None``;
    * ``init_value`` — boundary/initial conditions, shared by every
      execution mode so results are comparable cell-for-cell;
    * ``mapping_dim`` — the tile-space dimension the paper maps chains
      along (SOR: the third, Jacobi/ADI: the first).
    """

    name: str
    nest: LoopNest
    original: LoopNest
    skew: Optional[RatMat]
    init_value: InitFn
    mapping_dim: int

    @property
    def depth(self) -> int:
        return self.nest.depth
