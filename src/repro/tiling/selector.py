"""Tile-size selection along the mapping dimension.

The paper fixes the processor-grid factors and "adjusts tile size
properly" along the chain (§3.1, following their UET-UCT result [3]:
the mapping is scheduling-optimal when the computation-to-communication
ratio of a tile is about one).  This module automates the adjustment
two ways:

* :func:`ratio_balanced_extent` — closed form: pick the chain extent
  that makes ``t_compute(tile) ~= t_communicate(tile)``.
* :func:`sweep_best_extent` — empirical: simulate a sweep and keep the
  extent with the best makespan (what the paper's figures do by hand).
* :func:`cost_guided_extent` — analytic: rank every candidate by the
  static cost certifier's critical-path makespan (COST03, no
  execution) and simulate only the small top-``k`` frontier as
  confirmation — the sweep's answer at a fraction of its simulator
  evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.linalg.ratmat import RatMat
from repro.runtime.machine import ClusterSpec
from repro.tiling.frontier import Ranked, top_k_frontier

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

    best: Optional[Tuple[float, int]] = None
    for ext in candidates:
        h = h_of_extent(int(ext))
        try:
            comm = CommunicationSpec(_transform_for(h, nest),
                                     nest.dependences, mapping_dim)
        except ValueError:
            continue
        t_comp = spec.compute_time(comm.tiling.ttis.tile_volume)
        elems = sum(comm.full_pack_estimate(dm)
                    for dm in comm.d_m) * arrays
        t_comm = (len(comm.d_m) * spec.net_latency
                  + elems * spec.bytes_per_element / spec.net_bandwidth
                  + 2 * elems * spec.time_per_packed_element)
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


@dataclass(frozen=True)
class CostGuidedOutcome:
    """Result of a cost-guided (analytic-first) tile-size selection."""

    best_extent: int
    best_makespan: float                     # simulated, on the frontier
    best_speedup: float
    predicted_curve: Tuple[Tuple[int, float], ...]  # (extent, analytic)
    frontier: Tuple[int, ...]                # extents actually simulated
    simulator_evals: int                     # == len(frontier)
    candidate_count: int                     # what the full sweep costs


def cost_guided_extent(
    h_of_extent: Callable[[int], RatMat],
    nest: "LoopNest",
    mapping_dim: int,
    spec: ClusterSpec,
    candidates: Sequence[int],
    top_k: Optional[int] = None,
) -> CostGuidedOutcome:
    """Rank candidates by analytic makespan; simulate only the top-k.

    Every candidate gets a static cost certificate (COST03 sweep — the
    simulator's clock arithmetic without the simulator), then only the
    ``top_k`` analytically-best extents are simulated to pick the
    winner.  The ``spec`` protocol is certified, which is exactly what
    :meth:`DistributedRun.simulate` executes, so the analytic ranking
    is faithful and the frontier simulation is confirmation, not
    correction.  ``top_k`` defaults to ``max(1, len(candidates) // 4)``
    — a 4x simulator-evaluation saving on any sweep of 4+ extents.

    Ranking, deadlock exclusion and clamping live in the shared
    :func:`repro.tiling.frontier.top_k_frontier` (also used by the
    tile-shape tuner, :mod:`repro.tuning`, so the two search paths
    cannot diverge): candidates whose schedule deadlocks under the
    model (infinite analytic makespan) are excluded from the frontier;
    if every candidate deadlocks a ``ValueError`` is raised rather
    than handing the simulator a program it cannot finish.
    """
    from repro.runtime.executor import DistributedRun, TiledProgram

    scored: List[Ranked[Tuple[int, "TiledProgram"]]] = []
    predicted: List[Tuple[int, float]] = []
    for ext in candidates:
        h = h_of_extent(int(ext))
        prog = TiledProgram(nest, h, mapping_dim=mapping_dim)
        cert = prog.cost_certificate(protocol="spec", spec=spec)
        scored.append(Ranked(score=cert.makespan, order=int(ext),
                             payload=(int(ext), prog)))
        predicted.append((int(ext), cert.makespan))
    frontier = top_k_frontier(scored, top_k)
    best: Optional[Tuple[int, float, float]] = None
    for ranked in frontier:
        ext, prog = ranked.payload
        stats = DistributedRun(prog, spec).simulate()
        t_seq = spec.compute_time(prog.total_points())
        if best is None or stats.makespan < best[1]:
            best = (ext, stats.makespan, t_seq / stats.makespan)
    assert best is not None                 # frontier is never empty
    return CostGuidedOutcome(
        best_extent=best[0],
        best_makespan=best[1],
        best_speedup=best[2],
        predicted_curve=tuple(predicted),
        frontier=tuple(r.payload[0] for r in frontier),
        simulator_evals=len(frontier),
        candidate_count=len(scored),
    )


def _transform_for(h: RatMat, nest: "LoopNest") -> "TilingTransformation":
    from repro.tiling.transform import TilingTransformation

    return TilingTransformation(h, nest.domain)
