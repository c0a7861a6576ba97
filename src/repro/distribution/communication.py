"""Communication sets: CC vector, halo offsets, processor deps (paper §3.2).

The regularity of the TTIS gives compile-time communication criteria:
``j'`` is a communication point along dimension ``k`` iff
``j'_k >= cc_k`` where ``cc_k = v_kk - max_l(d'_kl)``; the LDS halo
offsets are ``off_k = ceil(max_l(d'_kl) / c_k)`` for ``k != m`` and
``off_m = v_mm / c_m`` (one tile of slack before the chain for
predecessor-tile data).  Processor dependencies ``D^m`` are the nonzero
projections of the tile dependencies ``D^S`` with the mapping dimension
collapsed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.tiling.transform import TilingTransformation

Tile = Tuple[int, ...]
Pdep = Tuple[int, ...]


class CommunicationSpec:
    """Compile-time communication data for a tiled, distributed nest."""

    def __init__(self, tiling: TilingTransformation,
                 deps: Sequence[Sequence[int]],
                 mapping_dim: int):
        self.tiling = tiling
        self.n = tiling.n
        self.m = mapping_dim
        self.deps = tuple(tuple(int(x) for x in d) for d in deps)
        ttis = tiling.ttis
        self.d_prime = ttis.transformed_dependences(self.deps)   # D' = H'D
        v = ttis.v
        c = ttis.c
        # max_l d'_kl per dimension; <= 0 means no communication along k.
        self.max_dp = tuple(
            max((dp[k] for dp in self.d_prime), default=0)
            for k in range(self.n)
        )
        # Paper precondition: dependencies must not be larger than the
        # tile, otherwise a dependence skips over whole tiles and the
        # one-tile halo / CC machinery of §3.2 cannot describe it.
        for k in range(self.n):
            if self.max_dp[k] > v[k]:
                raise ValueError(
                    f"tile too small along dimension {k}: transformed "
                    f"dependence reach {self.max_dp[k]} exceeds tile "
                    f"extent v_{k} = {v[k]}; enlarge the tile (the "
                    "paper's communication scheme assumes dependencies "
                    "within one tile)"
                )
        # Communication vector: j'_k >= cc_k marks a communication point.
        # When max_dp <= 0 nothing ever crosses the k-boundary; cc_k = v_kk
        # makes the criterion unsatisfiable, matching the paper's formula.
        self.cc = tuple(v[k] - max(self.max_dp[k], 0) for k in range(self.n))
        # LDS halo offsets (§3.2 end): receiving space per dimension.
        offs = []
        for k in range(self.n):
            if k == self.m:
                offs.append(v[k] // c[k])
            else:
                offs.append(max(0, math.ceil(self.max_dp[k] / c[k])))
        self.offsets = tuple(offs)
        # Tile dependencies and their processor projections.
        self.d_s: Tuple[Tile, ...] = tiling.tile_dependences(self.deps)
        proj: Dict[Pdep, List[Tile]] = {}
        for ds in self.d_s:
            dm = self.project(ds)
            if any(dm):
                proj.setdefault(dm, []).append(ds)
        self.d_m: Tuple[Pdep, ...] = tuple(sorted(proj.keys()))
        self._dm_to_ds: Dict[Pdep, Tuple[Tile, ...]] = {
            dm: tuple(sorted(lst)) for dm, lst in proj.items()
        }

    # -- projections --------------------------------------------------------------

    def project(self, d_s: Tile) -> Pdep:
        """``d^m(d^S)``: drop the mapping component."""
        return d_s[: self.m] + d_s[self.m + 1:]

    def ds_of_dm(self, d_m: Pdep) -> Tuple[Tile, ...]:
        """``d^S(d^m)``: all tile dependencies projecting onto ``d_m``."""
        return self._dm_to_ds.get(tuple(d_m), ())

    def is_intra_processor(self, d_s: Tile) -> bool:
        """Tile dependencies along the chain only — no message needed."""
        return not any(self.project(d_s))

    def send_direction(self, d_m: Pdep) -> Tile:
        """``d^m`` lifted back to ``n`` components with 0 at the mapping
        dimension: the direction a SEND toward ``d^m`` packs for."""
        return d_m[: self.m] + (0,) + d_m[self.m:]

    def tag(self, d_m: Pdep) -> int:
        """The message tag of processor direction ``d^m``."""
        return self.d_m.index(tuple(d_m))

    def full_pack_estimate(self, d_m: Pdep) -> int:
        """Elements per array a full tile packs toward ``d^m``, estimated
        as the TTIS box fraction with ``j'_k >= lb_k`` times the tile
        volume (lattice density ``1/c``; no mask, no lattice walk)."""
        v = self.tiling.ttis.v
        lbs = self.pack_lower_bounds(self.send_direction(d_m))
        frac = math.prod((v[k] - lbs[k]) / v[k] for k in range(self.n))
        return int(round(self.tiling.ttis.tile_volume * frac))

    # -- communication point criteria -----------------------------------------------

    def is_communication_point(self, j_prime: Sequence[int]) -> bool:
        """Does iteration ``j'`` produce data read by another tile?"""
        return any(
            j_prime[k] >= self.cc[k] for k in range(self.n)
            if self.max_dp[k] > 0
        )

    def pack_lower_bounds(self, direction: Sequence[int]) -> Tuple[int, ...]:
        """Lower TTIS bounds of the pack loop for processor/tile direction
        ``direction`` (paper's ``max(l'_k, d_k cc_k)`` with ``l'_k = 0``).

        ``direction`` has ``n`` components (use the tile dependence
        ``d^S``) — the ``m`` component is ignored per the SEND/RECEIVE
        pseudocode, which always spans the full mapping dimension.
        """
        lbs = []
        for k in range(self.n):
            if k == self.m or direction[k] <= 0:
                lbs.append(0)
            else:
                lbs.append(max(0, direction[k] * self.cc[k]))
        return tuple(lbs)

    def minsucc(self, valid, tile: Tile, d_m: Pdep) -> Tile:
        """Lexicographically minimum *valid* successor of ``tile`` along
        processor direction ``d_m`` (paper's ``minsucc``).

        ``valid`` is a predicate on tiles (the distribution's
        ``valid()``).  Returns ``None`` when no successor exists.
        """
        succs = [
            tuple(a + b for a, b in zip(tile, ds))
            for ds in self.ds_of_dm(d_m)
        ]
        valid_succs = [s for s in succs if valid(s)]
        return min(valid_succs) if valid_succs else None

    def __repr__(self) -> str:
        return (f"CommunicationSpec(cc={self.cc}, offsets={self.offsets}, "
                f"D^S={self.d_s}, D^m={self.d_m})")
