"""Memory-footprint accounting: the §3.1 compression claim.

The paper argues that allocating each processor's share of the global
data space directly would waste memory: the share is a union of
parallelepiped tile footprints, generally non-rectangular, so a naive
allocation takes its *minimum enclosing box*; the LDS instead condenses
the TTIS lattice into a dense rectangle plus a small halo.  This module
measures both quantities exactly so the claim becomes a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid distribution <-> runtime import cycle
    from repro.runtime.executor import TiledProgram

Pid = Tuple[int, ...]


@dataclass(frozen=True)
class ProcessorFootprint:
    """Memory accounting for one processor."""

    pid: Pid
    computed_points: int          # iterations it owns (lower bound)
    lds_cells: int                # what the paper's scheme allocates
    naive_box_cells: int          # enclosing box of its DS footprint

    @property
    def lds_overhead(self) -> float:
        """LDS cells per owned point (1.0 = perfectly dense)."""
        if self.computed_points == 0:
            return float("inf")
        return self.lds_cells / self.computed_points

    @property
    def compression(self) -> float:
        """naive / LDS — how much the paper's layout saves."""
        if self.lds_cells == 0:
            return float("inf")
        return self.naive_box_cells / self.lds_cells


def footprint_of(prog: "TiledProgram", pid: Pid) -> ProcessorFootprint:
    """Exact footprint numbers for one processor.

    The naive baseline is, per written array, the axis-aligned bounding
    box of the *data cells* the processor writes (its share of the
    global array through ``f_w``) — what "allocate your share of the
    global data space" costs.  For skewed nests the share is a slanted
    parallelepiped whose enclosing box inflates in every unskewed
    dimension; the LDS sidesteps that by storing the share densely in
    TTIS coordinates (paper §3.1).  The LDS total is one local array
    per written array.
    """
    lds = prog.addressing.lds_for(pid)
    writes = [s.write for s in prog.nest.statements]
    points = 0
    lo = {w.array: None for w in writes}
    hi = {w.array: None for w in writes}
    fmats = {}
    for w in writes:
        fm = w.access_matrix().to_int_rows()
        fmats[w.array] = (np.array(fm, dtype=np.int64),
                          np.array(w.offset, dtype=np.int64))
    for tile in prog.dist.tiles_of(pid):
        pts = prog.tiling.tile_points_np(tile)
        if len(pts) == 0:
            continue
        points += len(pts)
        for w in writes:
            fm, off = fmats[w.array]
            cells = pts @ fm.T + off
            c_lo = cells.min(axis=0)
            c_hi = cells.max(axis=0)
            a = w.array
            lo[a] = c_lo if lo[a] is None else np.minimum(lo[a], c_lo)
            hi[a] = c_hi if hi[a] is None else np.maximum(hi[a], c_hi)
    naive = 0
    for w in writes:
        a = w.array
        if lo[a] is not None:
            naive += int(np.prod(hi[a] - lo[a] + 1))
    return ProcessorFootprint(
        pid=pid,
        computed_points=points,
        lds_cells=lds.cells * len(writes),
        naive_box_cells=naive,
    )


@dataclass(frozen=True)
class MemoryReport:
    """Aggregate memory accounting across the whole machine."""

    per_processor: Tuple[ProcessorFootprint, ...]

    @property
    def total_lds(self) -> int:
        return sum(f.lds_cells for f in self.per_processor)

    @property
    def total_naive(self) -> int:
        return sum(f.naive_box_cells for f in self.per_processor)

    @property
    def total_points(self) -> int:
        return sum(f.computed_points for f in self.per_processor)

    @property
    def compression(self) -> float:
        return self.total_naive / self.total_lds if self.total_lds else 0.0

    @property
    def lds_overhead(self) -> float:
        return self.total_lds / self.total_points if self.total_points \
            else float("inf")

    def table(self) -> str:
        lines = [
            f"{'pid':<12}{'points':>9}{'LDS':>9}{'naive box':>11}"
            f"{'compression':>13}",
        ]
        for f in self.per_processor:
            lines.append(
                f"{str(f.pid):<12}{f.computed_points:>9}{f.lds_cells:>9}"
                f"{f.naive_box_cells:>11}{f.compression:>12.2f}x")
        lines.append(
            f"{'TOTAL':<12}{self.total_points:>9}{self.total_lds:>9}"
            f"{self.total_naive:>11}{self.compression:>12.2f}x")
        return "\n".join(lines)


def memory_report(prog: "TiledProgram") -> MemoryReport:
    """Footprints for every processor of a compiled program."""
    return MemoryReport(per_processor=tuple(
        footprint_of(prog, pid) for pid in prog.pids
    ))
