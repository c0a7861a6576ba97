"""The Local Data Space (LDS) and address translation (paper §3.1).

Each processor owns a dense rectangular array: the TTIS lattice is
*condensed* (divided by the strides ``c_k``), extended by halo offsets
``off_k`` for received data, and repeated ``|t|`` times along the
mapping dimension ``m`` — Figure 3 of the paper.  ``map``/``map⁻¹``
translate between TTIS points and LDS cells; ``loc``/``loc⁻¹`` (Tables
1-2) translate between global iteration points and ``(pid, LDS cell)``.

One detail deserves a note: Table 2 reconstructs the intra-stride phase
of ``j'_k`` as ``(sum_l h̃'_kl j'_l) % c_k``.  Read literally with the
*coordinates* ``j'_l`` this is not an identity of the HNF lattice; the
quantity that determines the phase is the vector of HNF *coefficients*
``x_l`` (``j' = H̃' x``).  We implement the coefficient form, which is
exact, and the round-trip property tests pin it down.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.distribution.communication import CommunicationSpec
from repro.distribution.computation import ComputationDistribution

Cell = Tuple[int, ...]
Point = Tuple[int, ...]


class LocalDataSpace:
    """Geometry and addressing of one processor's local array."""

    def __init__(self, comm: CommunicationSpec, num_tiles: int):
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        self.comm = comm
        self.ttis = comm.tiling.ttis
        self.n = comm.n
        self.m = comm.m
        self.num_tiles = num_tiles
        v = self.ttis.v
        c = self.ttis.c
        self.rows = self.ttis.rows_per_dim          # v_k / c_k
        off = comm.offsets
        shape = []
        for k in range(self.n):
            if k == self.m:
                shape.append(off[k] + num_tiles * self.rows[k])
            else:
                shape.append(off[k] + self.rows[k])
        self.shape = tuple(shape)
        self.offsets = off
        self._hnf = self.ttis.hnf.to_int_rows()
        self._c = c
        self._v = v

    # -- sizes ---------------------------------------------------------------------

    @property
    def cells(self) -> int:
        total = 1
        for s in self.shape:
            total *= s
        return total

    # -- map / map⁻¹ ------------------------------------------------------------------

    def map(self, j_prime: Sequence[int], t: int) -> Cell:
        """LDS cell storing TTIS point ``j'`` of chain tile ``t``.

        Floor division is intentional: ``j'_k`` is generally not a
        multiple of ``c_k`` (its phase comes from the outer HNF
        coefficients) and the phase is recovered by :meth:`map_inv`.
        Negative ``j'`` components (reads into the halo) land below
        ``off_k``, which is exactly the received-data region.
        """
        out = []
        for k in range(self.n):
            if k == self.m:
                out.append((t * self._v[k] + j_prime[k]) // self._c[k]
                           + self.offsets[k])
            else:
                out.append(j_prime[k] // self._c[k] + self.offsets[k])
        return tuple(out)

    def map_inv(self, cell: Sequence[int]) -> Tuple[Point, int]:
        """Inverse of :meth:`map` on computation cells: ``(j', t)``.

        Only defined for cells that store *computed* points (i.e. in the
        image of ``map`` over TTIS lattice points); halo cells alias the
        neighbouring tile's computation cells by construction.
        """
        j_prime = [0] * self.n
        xs = [0] * self.n  # HNF coefficients of dims processed so far
        t = 0
        for k in range(self.n):
            phase = sum(self._hnf[k][l] * xs[l] for l in range(k))
            r_k = phase % self._c[k]
            base = self._c[k] * (cell[k] - self.offsets[k])
            if k == self.m:
                t = base // self._v[k]
                jk = base - t * self._v[k] + r_k
            else:
                jk = base + r_k
            j_prime[k] = jk
            num = jk - phase
            if num % self._c[k] != 0:
                raise ValueError(
                    f"cell {tuple(cell)} does not address a lattice point"
                )
            xs[k] = num // self._c[k]
        return tuple(j_prime), t

    # -- halo addressing ----------------------------------------------------------------

    def halo_slot(self, j_prime_pred: Sequence[int], d_s: Sequence[int],
                  t: int) -> Cell:
        """Where tile ``t`` unpacks predecessor point ``j'_pred``
        received across tile dependence ``d^S``.

        Paper RECEIVE: ``LA[map(j', t) - (d^S_k v_kk / c_k)_k]``.  The
        subtraction shifts the slot into the halo region "before" the
        current tile — the same cell a subsequent intra-tile read
        ``map(j' - d', t)`` resolves to.
        """
        base = self.map(j_prime_pred, t)
        return tuple(
            base[k] - d_s[k] * (self._v[k] // self._c[k])
            for k in range(self.n)
        )

    def in_bounds(self, cell: Sequence[int]) -> bool:
        return all(0 <= cell[k] < self.shape[k] for k in range(self.n))

    def __repr__(self) -> str:
        return (f"LocalDataSpace(shape={self.shape}, m={self.m}, "
                f"tiles={self.num_tiles})")


class DistributedAddressing:
    """Tables 1-2: global point <-> (processor, LDS cell)."""

    def __init__(self, dist: ComputationDistribution,
                 comm: CommunicationSpec):
        if dist.m != comm.m:
            raise ValueError("distribution and communication disagree on m")
        self.dist = dist
        self.comm = comm
        self.tiling = dist.tiling
        self._lds_by_length: Dict[int, LocalDataSpace] = {}

    def lds_for(self, pid: Tuple[int, ...]) -> LocalDataSpace:
        """The LDS of one processor (chain lengths differ per pid)."""
        num = self.dist.chain_length(pid)
        lds = self._lds_by_length.get(num)
        if lds is None:
            lds = LocalDataSpace(self.comm, num)
            self._lds_by_length[num] = lds
        return lds

    def loc(self, j: Sequence[int]) -> Tuple[Tuple[int, ...], Cell]:
        """Table 1: ``(pid, j'')`` owning/storing iteration ``j``."""
        tiling = self.tiling
        j_s = tiling.tile_of(j)
        origin = tiling.tile_origin(j_s)
        j_rel = tuple(a - b for a, b in zip(j, origin))
        j_prime = tiling.ttis.to_ttis(j_rel)
        t = self.dist.chain_index(j_s)
        pid = self.dist.pid_of(j_s)
        lds = self.lds_for(pid)
        return pid, lds.map(j_prime, t)

    def loc_inv(self, cell: Sequence[int],
                pid: Tuple[int, ...]) -> Point:
        """Table 2: the iteration point stored at ``(pid, j'')``."""
        lds = self.lds_for(pid)
        j_prime, t = lds.map_inv(cell)
        j_s = self.dist.tile_at(pid, t + self.dist.chain_base[pid])
        origin = self.tiling.tile_origin(j_s)
        local = self.tiling.ttis.from_ttis(j_prime)
        return tuple(a + b for a, b in zip(origin, local))
