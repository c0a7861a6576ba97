"""Cache-locality model: the last claim of §3.1.

    "storing data accessed by a non-rectangular tile to a dense
     rectangular data space also exploits cache locality."

We make that measurable: replay the address stream a tile's execution
produces under two storage layouts —

* **LDS layout** — the paper's condensed rectangular local array,
  addresses from ``map(j', t)`` flattened row-major;
* **global layout** — the processor working directly on its share of
  the global data space, addresses row-major in the full array box;

through a small set-associative cache model (Pentium-III-ish L1 by
default) and compare miss counts.  The stream covers, per iteration
point in execution order, the write plus every read of each statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of the modelled cache."""

    size_bytes: int = 16 * 1024       # P-III L1D
    line_bytes: int = 32
    associativity: int = 4
    element_bytes: int = 8

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def elements_per_line(self) -> int:
        return self.line_bytes // self.element_bytes


class SetAssociativeCache:
    """LRU set-associative cache over element addresses."""

    def __init__(self, spec: CacheSpec):
        self.spec = spec
        self._sets: List[List[int]] = [
            [] for _ in range(spec.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def access(self, element_address: int) -> bool:
        """Touch one element; returns True on hit."""
        line = element_address // self.spec.elements_per_line
        idx = line % self.spec.num_sets
        ways = self._sets[idx]
        if line in ways:
            ways.remove(line)
            ways.append(line)      # move to MRU position
            self.hits += 1
            return True
        self.misses += 1
        ways.append(line)
        if len(ways) > self.spec.associativity:
            ways.pop(0)            # evict LRU
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class LocalityComparison:
    """Miss statistics of the two layouts over the same access stream."""

    accesses: int
    lds_misses: int
    global_misses: int

    @property
    def lds_miss_rate(self) -> float:
        return self.lds_misses / self.accesses if self.accesses else 0.0

    @property
    def global_miss_rate(self) -> float:
        return self.global_misses / self.accesses if self.accesses else 0.0

    @property
    def improvement(self) -> float:
        """global misses per LDS miss (>1 means the LDS wins)."""
        if self.lds_misses == 0:
            return float("inf")
        return self.global_misses / self.lds_misses


def _flatten(idx: Sequence[int], shape: Sequence[int]) -> int:
    out = 0
    for i, s in zip(idx, shape):
        out = out * s + i
    return out


def compare_tile_locality(prog, pid: Tuple[int, ...],
                          cache: CacheSpec = CacheSpec()) -> LocalityComparison:
    """Replay one processor's full access stream under both layouts.

    ``prog`` is a :class:`repro.runtime.executor.TiledProgram`.  Reads
    that fall outside the domain (boundary data) are skipped in both
    streams alike, so the comparison stays apples-to-apples.
    """
    from repro.runtime.dense import read_dependences

    nest = prog.nest
    tiling = prog.tiling
    ttis = tiling.ttis
    lds = prog.addressing.lds_for(pid)
    lat = ttis.lattice_points_np()
    order = np.lexsort(lat.T[::-1])

    # Per (statement, read): transformed dependence or None (pure input).
    read_deps = read_dependences(nest)
    dprime = [
        [None if d is None else ttis.transformed_dependences([d])[0]
         for d in row]
        for row in read_deps
    ]

    # Global layout: row-major box over each written array's data cells.
    from repro.distribution.memory import footprint_of  # noqa: F401
    writes = {s.write.array: s.write for s in nest.statements}
    bounds: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for tile in prog.dist.tiles_of(pid):
        pts = tiling.tile_points_np(tile)
        if not len(pts):
            continue
        for name, w in writes.items():
            fm = np.array(w.access_matrix().to_int_rows(), dtype=np.int64)
            off = np.array(w.offset, dtype=np.int64)
            cells = pts @ fm.T + off
            lo, hi = cells.min(axis=0), cells.max(axis=0)
            if name in bounds:
                bounds[name] = (np.minimum(bounds[name][0], lo),
                                np.maximum(bounds[name][1], hi))
            else:
                bounds[name] = (lo, hi)
    # Halo margin so cross-tile reads stay in-box.
    shapes = {}
    origins = {}
    arr_base = {}
    base = 0
    for name, (lo, hi) in bounds.items():
        margin = 2
        origins[name] = lo - margin
        shapes[name] = tuple(int(x) for x in (hi - lo + 1 + 2 * margin))
        arr_base[name] = base
        sz = 1
        for s in shapes[name]:
            sz *= s
        base += sz

    lds_base = {name: i * lds.cells for i, name in enumerate(writes)}

    c_lds = SetAssociativeCache(cache)
    c_glob = SetAssociativeCache(cache)
    accesses = 0

    for tile in prog.dist.tiles_of(pid):
        t = prog.dist.chain_index(tile)
        mask = tiling.tile_mask(tile)
        origin = tiling.tile_origin(tile)
        for i in order[mask[order]]:
            jp = tuple(int(x) for x in lat[i])
            local = ttis.from_ttis(jp)
            g = tuple(a + b for a, b in zip(origin, local))
            for si, s in enumerate(nest.statements):
                touches: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = []
                for ri, r in enumerate(s.reads):
                    d = read_deps[si][ri]
                    if d is None:
                        continue  # pure-input array: same cost both ways
                    src = tuple(a - b for a, b in zip(g, d))
                    if not nest.domain.contains(src):
                        continue
                    dp = dprime[si][ri]
                    jq = tuple(a - b for a, b in zip(jp, dp))
                    touches.append((r.array, jq, r.index(g)))
                touches.append((s.write.array, jp, s.write.index(g)))
                for name, jq, cell in touches:
                    accesses += 1
                    lcell = lds.map(jq, t)
                    c_lds.access(lds_base[name]
                                 + _flatten(lcell, lds.shape))
                    gidx = tuple(int(a - b) for a, b in
                                 zip(cell, origins[name]))
                    c_glob.access(arr_base[name]
                                  + _flatten(gidx, shapes[name]))
    return LocalityComparison(
        accesses=accesses,
        lds_misses=c_lds.misses,
        global_misses=c_glob.misses,
    )
