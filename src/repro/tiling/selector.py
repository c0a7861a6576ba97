"""Tile-size selection along the mapping dimension.

The paper fixes the processor-grid factors and "adjusts tile size
properly" along the chain (§3.1, following their UET-UCT result [3]:
the mapping is scheduling-optimal when the computation-to-communication
ratio of a tile is about one).  This module automates the adjustment
two ways:

* :func:`ratio_balanced_extent` — closed form: pick the chain extent
  that makes ``t_compute(tile) ~= t_communicate(tile)``
  (:func:`repro.schedule.model.per_step_cost`).
* :func:`sweep_best_extent` — empirical: simulate a sweep and keep the
  extent with the best makespan (what the paper's figures do by hand).

Ranking whole tile *shapes* by the simulated makespan is the tuner's
job (:mod:`repro.tuning`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.linalg.ratmat import RatMat
from repro.runtime.machine import ClusterSpec

if TYPE_CHECKING:
    from repro.loops.nest import LoopNest
    from repro.runtime.executor import TiledProgram
    from repro.tiling.transform import TilingTransformation


@dataclass(frozen=True)
class SweepOutcome:
    """Result of an empirical tile-size sweep."""

    best_extent: int
    best_makespan: float
    best_speedup: float
    curve: Tuple[Tuple[int, float], ...]   # (extent, speedup)


def ratio_balanced_extent(
    h_of_extent: Callable[[int], RatMat],
    nest: "LoopNest",
    mapping_dim: int,
    spec: ClusterSpec,
    arrays: int = 1,
    candidates: Sequence[int] = tuple(range(1, 65)),
) -> int:
    """Chain extent whose full tile has comp/comm ratio closest to 1.

    Uses the compile-time communication-region sizes (no simulation):
    for each candidate extent the tile volume gives the compute time and
    the per-direction pack regions give the communication time.
    """
    from repro.distribution.communication import CommunicationSpec
    from repro.schedule.model import per_step_cost

    best: Optional[Tuple[float, int]] = None
    for ext in candidates:
        h = h_of_extent(int(ext))
        try:
            comm = CommunicationSpec(_transform_for(h, nest),
                                     nest.dependences, mapping_dim)
        except ValueError:
            continue
        t_comp, t_comm = per_step_cost(comm, spec, arrays)
        if t_comm == 0:
            continue
        ratio = t_comp / t_comm
        score = abs(ratio - 1.0)
        if best is None or score < best[0]:
            best = (score, int(ext))
    if best is None:
        raise ValueError("no candidate extent produced a valid tiling")
    return best[1]


def sweep_best_extent(
    h_of_extent: Callable[[int], RatMat],
    nest: "LoopNest",
    mapping_dim: int,
    spec: ClusterSpec,
    candidates: Sequence[int],
) -> SweepOutcome:
    """Simulate every candidate extent and keep the fastest."""
    from repro.runtime.executor import DistributedRun, TiledProgram

    curve: List[Tuple[int, float]] = []
    best: Optional[Tuple[int, float, float]] = None
    for ext in candidates:
        h = h_of_extent(int(ext))
        prog = TiledProgram(nest, h, mapping_dim=mapping_dim)
        stats = DistributedRun(prog, spec).simulate()
        t_seq = spec.compute_time(prog.total_points())
        speedup = t_seq / stats.makespan
        curve.append((int(ext), speedup))
        if best is None or stats.makespan < best[1]:
            best = (int(ext), stats.makespan, speedup)
    if best is None:
        raise ValueError("no candidate extents supplied")
    return SweepOutcome(
        best_extent=best[0],
        best_makespan=best[1],
        best_speedup=best[2],
        curve=tuple(curve),
    )


def _transform_for(h: RatMat, nest: "LoopNest") -> "TilingTransformation":
    from repro.tiling.transform import TilingTransformation

    return TilingTransformation(h, nest.domain)
