"""Closed-form communication/computation volumes (COST01 / COST02).

The per-edge element counts are derived from the TTIS geometry alone:
a pack region toward direction ``d`` is the set of lattice points with
``j'_k >= d_k * cc_k`` (paper §3.2), and the HNF strides/offsets give
the lattice structure, so the region size is a product of per-row
counts — no mask, no execution.  Partial boundary tiles are clipped by
the domain and fall back to the program's exact mask counts (their
geometry is not expressible in closed form).

Two independent paths compute every edge total:

* **path A** (this module): closed-form counting from ``(v, c, HNF,
  CC)`` plus the schedule structure;
* **path B** (the oracle): :func:`repro.runtime.rankstep.edge_tally`
  over the frozen :func:`build_rank_plans` lists, whose sizes come from
  the program's region masks — exactly the messages the simulator and
  the parallel runtime move.

``certify_cost`` compares them edge by edge and emits a ``COST01``
error on any disagreement — that is what catches the seeded
miscomputations of the known-bad corpus (wrong stride, off-by-one
halo, dropped CC edge).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram
    from repro.tiling.ttis import TTIS

Chan = Tuple[int, int, int]             # (src_rank, dst_rank, tag)


def closed_form_region_count(ttis: "TTIS",
                             lower_bounds: Sequence[int],
                             mutation: Optional[str] = None) -> int:
    """Lattice points of the TTIS rectangle with ``j'_k >= lb_k``.

    Exact closed form over the HNF lattice: dimension ``k`` contributes
    the rows ``start_k, start_k + c_k, ...`` (``v_k / c_k`` of them)
    where the phase ``start_k`` is fixed by the outer coordinates
    through the HNF subdiagonal offsets.  When a deeper dimension's
    phase depends on ``x_k`` the recursion enumerates the admissible
    rows; otherwise the per-row count multiplies straight through —
    ``O(n)`` for unimodular ``H'`` (all strides 1).
    """
    n = ttis.n
    hnf = ttis.hnf.to_int_rows()
    if mutation == "wrong_stride":
        # Seeded bug: ignore the HNF strides — count the full integer
        # box as if H' were unimodular.
        c: Tuple[int, ...] = (1,) * n
        rows = tuple(ttis.v)
    else:
        c = ttis.c
        rows = ttis.rows_per_dim
    lbs = tuple(int(x) for x in lower_bounds)
    if all(ck == 1 for ck in c):
        count = 1
        for k in range(n):
            count *= max(0, ttis.v[k] - max(0, lbs[k]))
        return count

    def rec(k: int, coeffs: Tuple[int, ...]) -> int:
        if k == n:
            return 1
        phase = sum(hnf[k][z] * coeffs[z] for z in range(k))
        ck = c[k]
        start = phase % ck
        x_start = (start - phase) // ck
        lb = max(0, lbs[k])
        idx0 = 0 if lb <= start else -(-(lb - start) // ck)
        if idx0 >= rows[k]:
            return 0
        if all(hnf[d][k] == 0 for d in range(k + 1, n)):
            return (rows[k] - idx0) * rec(k + 1, coeffs + (x_start,))
        return sum(rec(k + 1, coeffs + (x_start + idx,))
                   for idx in range(idx0, rows[k]))

    return rec(0, ())


def _pack_lower_bounds(program: "TiledProgram",
                       direction: Sequence[int],
                       mutation: Optional[str]) -> Tuple[int, ...]:
    """Path A's own ``max(0, d_k * cc_k)`` (paper SEND/RECEIVE bounds).

    Recomputed from ``cc`` rather than delegated to
    ``CommunicationSpec.pack_lower_bounds`` so the ``off_by_one_halo``
    mutation can seed the classic halo bug (``cc_k - 1``).
    """
    comm = program.comm
    off = 1 if mutation == "off_by_one_halo" else 0
    lbs: List[int] = []
    for k in range(program.n):
        if k == comm.m or direction[k] <= 0:
            lbs.append(0)
        else:
            lbs.append(max(0, direction[k] * (comm.cc[k] - off)))
    return tuple(lbs)


def edge_volumes(program: "TiledProgram",
                 mutation: Optional[str] = None,
                 ) -> Tuple[Dict[Chan, int], Dict[Chan, int]]:
    """Path A: closed-form per-edge ``(messages, elements)`` totals.

    Walks the schedule structure (which tiles send along which ``d^m``)
    and sizes every message analytically: interior tiles through
    :func:`closed_form_region_count`, boundary tiles through the exact
    masks (cached on the program).
    """
    narr = len(program.arrays)
    dist, comm, tiling = program.dist, program.comm, program.tiling
    ttis = tiling.ttis
    messages: Dict[Chan, int] = {}
    elements: Dict[Chan, int] = {}
    d_m = comm.d_m
    if mutation == "dropped_cc_edge" and len(d_m) > 0:
        # Seeded bug: forget the last processor dependence entirely.
        d_m = d_m[:-1]
    full_counts: Dict[Tuple[int, ...], int] = {}
    for pid in program.pids:
        rank = program.rank_of[pid]
        for tile in dist.tiles_of(pid):
            for dm, dst in program.send_plan(tile):
                if dm not in d_m:
                    continue
                full_dir = dm[:dist.m] + (0,) + dm[dist.m:]
                if tiling.classify_tile(tile) == "full":
                    count = full_counts.get(full_dir)
                    if count is None:
                        count = closed_form_region_count(
                            ttis,
                            _pack_lower_bounds(program, full_dir,
                                               mutation),
                            mutation=mutation)
                        full_counts[full_dir] = count
                else:
                    count = program.region_count(tile, full_dir)
                nelems = count * narr
                if nelems == 0:
                    continue
                chan = (rank, program.rank_of[dst],
                        program.message_tag(dm))
                messages[chan] = messages.get(chan, 0) + 1
                elements[chan] = elements.get(chan, 0) + nelems
    return messages, elements


def rank_volumes(program: "TiledProgram") -> Dict[int, int]:
    """COST02: iteration points owned by each rank (closed form for
    interior tiles — every full tile computes ``|det P|`` points)."""
    tiling = program.tiling
    vol = tiling.tile_volume()
    points: Dict[int, int] = {}
    for pid in program.pids:
        rank = program.rank_of[pid]
        total = 0
        for tile in program.dist.tiles_of(pid):
            if tiling.classify_tile(tile) == "full":
                total += vol
            else:
                total += program.tile_point_count(tile)
        points[rank] = total
    return points
