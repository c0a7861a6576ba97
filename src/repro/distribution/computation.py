"""Computation distribution: tiles -> processors (paper §3.1).

The ``n`` inner (intra-tile) loops are never parallelized; distribution
assigns *tiles* to processors.  Following Hodzic & Shang and the
UET-UCT optimality result (paper ref [3]), all tiles along the
tile-space dimension ``m`` with the maximum trip count go to the same
processor, executed in linear-schedule order; the other ``n-1`` tile
coordinates name the processor (``pid``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.tiling.transform import TilingTransformation

Pid = Tuple[int, ...]
Tile = Tuple[int, ...]


class ComputationDistribution:
    """Assignment of a tile space to an ``(n-1)``-dimensional processor mesh."""

    def __init__(self, tiling: TilingTransformation,
                 mapping_dim: Optional[int] = None):
        self.tiling = tiling
        self.n = tiling.n
        tiles = tiling.enumerate_tiles()
        if not tiles:
            raise ValueError("tile space is empty")
        self.tiles: Tuple[Tile, ...] = tuple(tiles)
        spans = []
        for k in range(self.n):
            vals = [t[k] for t in tiles]
            spans.append(max(vals) - min(vals) + 1)
        if mapping_dim is None:
            # Dimension with the maximum number of tiles; ties broken
            # toward the innermost dimension (largest index) so the
            # mapping loop is the one already innermost after reordering.
            best = max(range(self.n), key=lambda k: (spans[k], k))
            mapping_dim = best
        if not (0 <= mapping_dim < self.n):
            raise ValueError("mapping_dim out of range")
        self.m = mapping_dim
        self.spans = tuple(spans)
        self.l_s_m = min(t[self.m] for t in tiles)
        self.u_s_m = max(t[self.m] for t in tiles)
        chains: Dict[Pid, List[int]] = {}
        for t in tiles:
            chains.setdefault(self.pid_of(t), []).append(t[self.m])
        for v in chains.values():
            v.sort()
        self.chains: Dict[Pid, Tuple[int, ...]] = {
            pid: tuple(v) for pid, v in chains.items()
        }
        # Per-processor chain base: the paper's |t| counts the tiles of
        # *this* processor, so LDS indexing is relative to each chain's
        # own first tile (chains are contiguous for convex spaces).
        self.chain_base: Dict[Pid, int] = {
            pid: v[0] for pid, v in self.chains.items()
        }
        for pid, v in self.chains.items():
            if v[-1] - v[0] + 1 != len(v):
                raise AssertionError(
                    f"chain of {pid} has gaps: {v}; convexity violated")
        self._tile_set = set(tiles)

    # -- naming ------------------------------------------------------------------

    def pid_of(self, tile: Tile) -> Pid:
        """Drop the mapping coordinate: the processor owning ``tile``."""
        return tile[: self.m] + tile[self.m + 1:]

    def tile_at(self, pid: Pid, j_s_m: int) -> Tile:
        """Rebuild the full tile coordinates from ``(pid, j^S_m)``."""
        return pid[: self.m] + (j_s_m,) + pid[self.m:]

    def chain_index(self, tile: Tile) -> int:
        """The paper's ``t``: position along the owning processor's own
        chain (``l^S_m`` read per-processor, so the LDS is sized by the
        tiles this processor actually executes)."""
        return tile[self.m] - self.chain_base[self.pid_of(tile)]

    # -- queries --------------------------------------------------------------------

    @property
    def processors(self) -> Tuple[Pid, ...]:
        return tuple(sorted(self.chains.keys()))

    @property
    def num_processors(self) -> int:
        return len(self.chains)

    def tiles_of(self, pid: Pid) -> Tuple[Tile, ...]:
        """The chain of tiles of one processor, in execution order."""
        return tuple(self.tile_at(pid, s) for s in self.chains[pid])

    def valid(self, tile: Tile) -> bool:
        """The paper's ``valid(s)``: is this tile enumerated (nonempty)?"""
        return tile in self._tile_set

    def chain_length(self, pid: Pid) -> int:
        """The paper's ``|t|``: tiles assigned to this processor."""
        return len(self.chains[pid])

    def __repr__(self) -> str:
        return (f"ComputationDistribution(m={self.m}, "
                f"processors={self.num_processors}, tiles={len(self.tiles)})")
