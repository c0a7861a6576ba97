"""The rank step: one frozen plan, one receive→compute→send walk.

The paper compiles ONE SPMD node program (§3.2)::

    FOR t^S in chain:
        RECEIVE(pid, t^S, D^S, CC)      # recv + unpack into LDS halo
        compute tile (TTIS traversal)   # strides/offsets from HNF
        SEND(pid, t^S, D^m, CC)         # pack + send per successor proc

This module is that program, once:

* The §3.2 schedule is decided here, over the program's roots (``comm``,
  ``dist``, ``tiling``) and its stages: :func:`receive_plan`,
  :func:`send_plan`, the ``CC`` regions (:func:`pack_region`,
  :func:`region_mask`, :func:`region_count`) and the stage rows that
  keep them.  :func:`build_rank_plans` freezes the schedule into
  per-rank :class:`RankPlan` op lists.  Every engine, the HB graph (and
  with it the deadlock and cost passes), the race pass, the overlap
  plans, the artifact format and the code generator replay the same
  lists; :func:`edge_tally` is their one per-edge count.
* :func:`rank_walk` is the walk over one plan — the only function that
  iterates a plan's tiles and places each receive, compute phase,
  publish and rendezvous wait inside a tile.  Blocking is the
  one-phase case; ``overlap=True`` loops over the phase table the
  compiler froze in the tile's
  :class:`~repro.runtime.dense.TileOverlapPlan`.  Every other reader
  of that order is a **port** of the walk:

  ====================  =========================  ======================
  port                  turns each step into       may decide
  ====================  =========================  ======================
  :class:`VmpiPort`     simulator requests         what a step costs
                        (blocking only)            (``node_speed_factor``
                                                   applied once)
  ring (``parallel``)   shared-memory mailbox      how it waits, what to
                        traffic, measured clocks   take early or drain
  graph (``hb.graph``)  ``HBEvent``s, no data      nothing
  table (``pygen``)     ``SCHEDULES`` rows         nothing (records the
                                                   vMPI port's requests)
  ====================  =========================  ======================

  No port may reorder, add or drop a step.  *What* the data is belongs
  to the **back-end**: ``None`` (timing only) or the dense
  :class:`~repro.runtime.dense.RankLDS`.

A port's blocking methods are ``recv(tile, r, unpack)``,
``compute(tile, points, run)`` and ``send(tile, s, pack)`` (see
:class:`VmpiPort`), each an iterable of whatever its transport needs
while it waits.  The overlapped schedule splits ``send`` into
``publish(tile, s, pack)`` (the message leaves) and ``complete(tile,
s)`` (its rendezvous wait, at the tile end) — on the ring and graph
ports ``send`` *is* those two, back to back — and brackets the tile
with ``open_tile(tile, recvs, unpacks)`` / ``close_tile(tile)``.
``pack(out)`` gathers the message into the port's buffer; only the
vMPI port calls it bare and lets the back-end allocate.  A back-end
has ``unpack(t, i, payload)`` for the ``i``-th receive of a tile,
``compute_tile(tile, t)`` and ``pack(t, k)`` for its ``k``-th send,
``t`` being the tile's chain index; the dense one also
``tile_context``, ``compute_phase`` and ``pack``'s ``out`` buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import Compute, Recv, Send
from repro.stages import Stage, copied, on_demand, pickled, unpickled

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram

Pid = Tuple[int, ...]
Tile = Tuple[int, ...]
#: What a port method is: a generator of transport requests.
Steps = Generator[Any, Any, None]
#: Candidate ``d^S`` of one ``d^m``: (receive-plan order, lex order).
_Orders = Tuple[Tuple[Tile, ...], Tuple[Tile, ...]]


class ParallelRuntimeError(RuntimeError):
    """Base class for data-engine runtime failures (the parallel
    backend's transport errors and the shared rank-step checks)."""


class HaloSizeError(ParallelRuntimeError):
    """A sent or received payload does not have the size the plan
    froze."""


# -- the communication schedule (§3.2) -----------------------------------------------


def receive_plan(program: "TiledProgram",
                 tile: Tile) -> List[Tuple[Tile, Tile, Pid]]:
    """Receives posted by ``tile``: ``(d^S, pred_tile, src_pid)``.

    Ordered so that per ``(source, direction)`` the matched messages
    arrive FIFO: directions sorted, and within a direction
    predecessors in ascending chain position (descending ``d^S_m``).
    """
    comm, dist = program.comm, program.dist
    tset = dist._tile_set
    pid = dist.pid_of(tile)
    orders: Dict[Pid, _Orders] = program.stage("recv_order")
    plan = []
    for dm in comm.d_m:
        cands, lex = orders[dm]
        src = None
        for ds in cands:
            pred = tuple([a - b for a, b in zip(tile, ds)])
            if pred not in tset:
                continue
            # tile == minsucc(pred, dm) iff ds is the lex-smallest
            # candidate whose successor of pred is valid (succ order
            # and candidate order agree: succ = pred + ds).
            first = None
            for ds2 in lex:
                if tuple([a + b for a, b in zip(pred, ds2)]) in tset:
                    first = ds2
                    break
            if first != ds:
                continue
            if src is None:
                src = tuple([a - b for a, b in zip(pid, dm)])
            plan.append((ds, pred, src))
    return plan


def _build_recv_order(program: "TiledProgram") -> Dict[Pid, _Orders]:
    """Candidate ``d^S`` lists of every ``d^m``, in receive-plan order
    (descending mapping component) and lexicographic order."""
    comm = program.comm
    out = {}
    for dm in comm.d_m:
        cands = tuple(sorted(comm.ds_of_dm(dm), key=lambda d: -d[comm.m]))
        out[dm] = (cands, tuple(sorted(cands)))
    return out


def send_plan(program: "TiledProgram",
              tile: Tile) -> List[Tuple[Pid, Pid]]:
    """Sends issued by ``tile``: ``(d^m, dst_pid)`` per successor
    processor with at least one valid successor tile."""
    comm, dist = program.comm, program.dist
    tset = dist._tile_set
    orders: Dict[Pid, _Orders] = program.stage("recv_order")
    plan = []
    pid = None
    for dm in comm.d_m:
        for ds in orders[dm][0]:
            if tuple([a + b for a, b in zip(tile, ds)]) in tset:
                if pid is None:
                    pid = dist.pid_of(tile)
                plan.append((dm, tuple([a + b for a, b in zip(pid, dm)])))
                break
    return plan


def pack_region(program: "TiledProgram",
                direction: Sequence[int]) -> np.ndarray:
    """Mask (over TTIS lattice points) of an unclipped (interior)
    tile's pack region toward tile/processor ``direction`` — computed
    points with ``j'_k >= cc_k`` on every non-mapping dimension the
    direction crosses.  Kept per direction; callers must not mutate
    it."""
    key = tuple(direction)
    regions: Dict[Tuple[int, ...], np.ndarray] = \
        program.stage("pack_regions")
    mask = regions.get(key)
    if mask is None:
        lat = program.tiling.ttis.lattice_points_np()
        mask = np.ones(len(lat), dtype=bool)
        for k, lb in enumerate(program.comm.pack_lower_bounds(key)):
            if lb > 0:
                mask &= lat[:, k] >= lb
        regions[key] = mask
    return mask


def region_mask(program: "TiledProgram", tile: Tile,
                direction: Sequence[int]) -> np.ndarray:
    """:func:`pack_region` clipped to the domain points of ``tile``."""
    return program.tiling.tile_mask(tile) & pack_region(program, direction)


def region_count(program: "TiledProgram", tile: Tile,
                 direction: Sequence[int]) -> int:
    """Pack-region size of ``tile`` toward ``direction``.  The
    ``region_counts`` stage holds every pair the communication schedule
    asks about; any other pair is counted on demand."""
    key = (tile, tuple(direction))
    counts: Dict[Tuple[Tile, Tuple[int, ...]], int] = \
        program.stage("region_counts")
    count = counts.get(key)
    if count is None:
        mask = (pack_region(program, direction)
                if program.tiling.classify_tile(tile) == "full"
                else region_mask(program, tile, direction))
        count = counts[key] = int(mask.sum())
    return count


def _build_region_counts(
        program: "TiledProgram") -> Dict[Tuple[Tile, Tuple[int, ...]], int]:
    """Every (tile, direction) count the communication schedule can ask
    about, in bulk.

    One gather over the partial-tile masks replaces thousands of
    per-tile mask reductions — this is what keeps the static verifier's
    schedule replay a small fraction of construction time.  The
    per-call path of :func:`region_count` computes identical values.
    """
    comm, dist, tiling = program.comm, program.dist, program.tiling
    counts: Dict[Tuple[Tile, Tuple[int, ...]], int] = {}
    # Exactly the directions the communication schedule queries: tile
    # dependencies of each d^m (receives) and the zeroed-at-m processor
    # directions (sends).
    dirs: List[Tuple[int, ...]] = []
    for dm in comm.d_m:
        dirs.extend(tuple(ds) for ds in comm.ds_of_dm(dm))
        dirs.append(comm.send_direction(dm))
    dirs = list(dict.fromkeys(dirs))
    if not dirs:
        return counts
    nlat = len(tiling.ttis.lattice_points_np())
    # Pack regions are thin slabs (thickness v_k - cc_k); count over the
    # slab columns, or over the complement when the slab is the wide
    # side.  Only the union of those column sets is ever touched, so
    # partial-tile masks are gathered down to it instead of being
    # densified into a (tiles x volume) matrix.
    sels = []                           # (d, columns, use_complement)
    full_counts = []
    need_totals = False
    for d in dirs:
        vec = pack_region(program, d)
        full_counts.append(int(vec.sum()))
        idx = np.nonzero(vec)[0]
        if 2 * len(idx) <= nlat:
            sels.append((d, idx, False))
        else:
            sels.append((d, np.nonzero(~vec)[0], True))
            need_totals = True
    partial = [t for t in dist.tiles
               if tiling.classify_tile(t) == "partial"]
    if partial:
        cols = np.unique(np.concatenate([c for _, c, _ in sels]))
        sub = np.empty((len(partial), len(cols)), dtype=bool)
        for i, t in enumerate(partial):
            sub[i] = tiling.tile_mask(t)[cols]
        totals = np.array(
            [tiling.tile_point_count(t) for t in partial],
            dtype=np.int64) if need_totals else None
        for d, sel, use_comp in sels:
            pos = np.searchsorted(cols, sel)
            cnts = np.count_nonzero(sub[:, pos], axis=1)
            if use_comp:
                cnts = totals - cnts
            for t, cnt in zip(partial, cnts):
                counts[(t, d)] = int(cnt)
    partial_set = set(partial)
    for t in dist.tiles:
        if t not in partial_set:
            for d, cnt in zip(dirs, full_counts):
                counts[(t, d)] = cnt
    return counts


# -- the frozen schedule -------------------------------------------------------------


@dataclass(frozen=True)
class TileRecv:
    """One posted receive of a tile: edge plus region identity."""

    src_rank: int
    tag: int
    nelems: int
    pred: Tile
    ds: Tile


@dataclass(frozen=True)
class TileSend:
    """One send of a tile toward a successor processor."""

    dst_rank: int
    tag: int
    nelems: int
    direction: Tuple[int, ...]          # d with 0 at the mapping dim


@dataclass(frozen=True)
class RankPlan:
    """The full communication schedule of one rank, tile by tile."""

    rank: int
    pid: Pid
    tiles: Tuple[Tile, ...]
    recvs: Tuple[Tuple[TileRecv, ...], ...]
    sends: Tuple[Tuple[TileSend, ...], ...]


#: One tile's ``[(d^S, pred_tile, src_pid, tag)]`` posted receives and
#: ``[(direction, dst_pid, tag)]`` issued sends, zero-size ones included.
_Ops = Tuple[List[Tuple[Tile, Tile, Pid, int]],
             List[Tuple[Tile, Pid, int]]]
_TileOps = Callable[[Tile, Pid], _Ops]


def _paper_ops(program: "TiledProgram") -> _TileOps:
    """§3.2: receive per predecessor *tile*, send per successor
    *processor* (dependences sharing a ``d^m`` aggregate)."""
    comm = program.comm

    def ops(tile: Tile, pid: Pid) -> _Ops:
        return ([(ds, pred, src, comm.tag(comm.project(ds)))
                 for ds, pred, src in receive_plan(program, tile)],
                [(comm.send_direction(dm), dst, comm.tag(dm))
                 for dm, dst in send_plan(program, tile)])
    return ops


def _per_dependence_ops(program: "TiledProgram") -> _TileOps:
    """The un-aggregated ablation: one message per crossing tile
    dependence with a valid peer tile, tagged by dependence."""
    dist, comm = program.dist, program.comm
    crossing = [(tag, ds, comm.project(ds)) for tag, ds in enumerate(
        ds for ds in comm.d_s if not comm.is_intra_processor(ds))]

    def ops(tile: Tile, pid: Pid) -> _Ops:
        recvs: List[Tuple[Tile, Tile, Pid, int]] = []
        sends: List[Tuple[Tile, Pid, int]] = []
        for tag, ds, dm in crossing:
            pred = tuple(a - b for a, b in zip(tile, ds))
            if dist.valid(pred):
                recvs.append(
                    (ds, pred, tuple(a - b for a, b in zip(pid, dm)), tag))
            if dist.valid(tuple(a + b for a, b in zip(tile, ds))):
                sends.append((comm.send_direction(dm),
                              tuple(a + b for a, b in zip(pid, dm)), tag))
        return recvs, sends
    return ops


def build_rank_plans(program: "TiledProgram",
                     aggregate: bool = True) -> Dict[int, RankPlan]:
    """The per-rank op lists of ``program``.

    The paper schedule (``aggregate=True``) is the program's
    ``rank_plans`` stage: immutable, a pure function of the compiled
    geometry, frozen once.  ``aggregate=False`` builds the
    per-dependence ablation plan of
    ``DistributedRun.simulate_unaggregated`` (timing-only).
    """
    if aggregate:
        plans: Dict[int, RankPlan] = program.stage("rank_plans")
        return plans
    return freeze_plans(program, aggregate=False)


def freeze_plans(program: "TiledProgram",
                 aggregate: bool = True) -> Dict[int, RankPlan]:
    """Freeze the schedule into per-rank op lists (the build function
    of the ``rank_plans`` stage); zero-element messages are dropped, so
    event counts line up across consumers."""
    tile_ops = (_paper_ops if aggregate else _per_dependence_ops)(program)
    narr = len(program.arrays)
    plans: Dict[int, RankPlan] = {}
    for pid in program.pids:
        rank = program.rank_of[pid]
        tiles = program.dist.tiles_of(pid)
        recvs: List[Tuple[TileRecv, ...]] = []
        sends: List[Tuple[TileSend, ...]] = []
        for tile in tiles:
            rr: List[TileRecv] = []
            ss: List[TileSend] = []
            recv_ops, send_ops = tile_ops(tile, pid)
            for ds, pred, src, tag in recv_ops:
                nelems = region_count(program, pred, ds) * narr
                if nelems:
                    rr.append(TileRecv(program.rank_of[src], tag, nelems,
                                       pred, tuple(int(x) for x in ds)))
            for direction, dst, tag in send_ops:
                nelems = region_count(program, tile, direction) * narr
                if nelems:
                    ss.append(TileSend(program.rank_of[dst], tag, nelems,
                                       direction))
            recvs.append(tuple(rr))
            sends.append(tuple(ss))
        plans[rank] = RankPlan(rank, pid, tiles, tuple(recvs),
                               tuple(sends))
    return plans


#: The stage-table rows of the schedule (registered, in table order, by
#: :mod:`repro.runtime.executor`).
RECV_ORDER = Stage("recv_order", "program", _build_recv_order)
PACK_REGIONS = Stage("pack_regions", "program", on_demand)
REGION_COUNTS = Stage("region_counts", "program", _build_region_counts,
                      persisted=True, encode=copied, decode=copied)
RANK_PLANS = Stage("rank_plans", "program", freeze_plans, persisted=True,
                   encode=pickled, decode=unpickled)


#: ``(src_rank, dst_rank, tag)`` — one directed FIFO channel.
EdgeKey = Tuple[int, int, int]


def edge_tally(plans: Dict[int, RankPlan]
               ) -> Dict[EdgeKey, Tuple[int, int, int]]:
    """``(messages, elements, largest message)`` of every directed edge
    the plans send on — the one count the mailbox sizing, the timeout
    report and the COST01 oracle all read."""
    tally: Dict[EdgeKey, Tuple[int, int, int]] = {}
    for plan in plans.values():
        for ss in plan.sends:
            for s in ss:
                key = (plan.rank, s.dst_rank, s.tag)
                msgs, elems, cap = tally.get(key, (0, 0, 0))
                tally[key] = (msgs + 1, elems + s.nelems,
                              max(cap, s.nelems))
    return tally


# -- the walk ------------------------------------------------------------------------


def rank_walk(program: "TiledProgram", plan: RankPlan, port: Any,
              data: Any = None, overlap: bool = False) -> Steps:
    """The node program of one rank (see module docstring).

    Yields whatever ``port`` yields; finishes after the last tile.
    Write-back to the global data space is the caller's, outside every
    engine's timed region.

    ``overlap=True`` is the overlapped schedule, read off the tile's
    frozen phase table (:class:`~repro.runtime.dense.TileOverlapPlan`):
    inside each wavefront level the points feeding outgoing ``CC``
    regions run first, each message is gathered and published once —
    after the boundary segment of its last contributing level, before
    that level's interior, in plan order — each halo is received before
    the first level that reads it, and rendezvous completions wait at
    the tile end.  A within-level reorder of an elementwise schedule:
    results, message order, counts and bytes are those of the blocking
    schedule.
    """
    # The overlap plans live with the level tables, which import this
    # module.
    from repro.runtime.dense import overlap_plan

    points = program.tiling.tile_point_count
    timing_only = data is None
    # plan.tiles is the rank's chain in order, so the enumeration index
    # is the paper's t (``dist.chain_index``).
    for t, tile in enumerate(plan.tiles):
        recvs, sends = plan.recvs[t], plan.sends[t]
        unpacks = [None if timing_only else
                   partial(unpack_halo, data, r, tile, t, i)
                   for i, r in enumerate(recvs)]
        packs = [None if timing_only else partial(data.pack, t, k)
                 for k in range(len(sends))]
        if not overlap:
            # One phase: every halo in, the whole tile, every message
            # out (a send returns once its transport is done with it).
            for r, unpack in zip(recvs, unpacks):
                yield from port.recv(tile, r, unpack)
            yield from port.compute(tile, points(tile),
                                    None if timing_only else partial(
                                        data.compute_tile, tile, t))
            for s, pack in zip(sends, packs):
                yield from port.send(tile, s, pack)
            continue
        oplan = overlap_plan(program, plan, t)
        port.open_tile(tile, recvs, unpacks)
        ctx = None if timing_only else data.tile_context(
            tile, t, tuple(s.direction for s in sends))
        for phase in oplan.phases:
            for i in phase.recvs:
                yield from port.recv(tile, recvs[i], unpacks[i])
            if ctx is not None:
                data.compute_phase(ctx, phase)
            # a message leaves once its last boundary segment has run;
            # consumers drain the ring while the next phase computes
            for k in phase.sends:
                yield from port.publish(tile, sends[k], packs[k])
        port.close_tile(tile)
        for s in sends:
            yield from port.complete(tile, s)


def unpack_halo(data: Any, r: TileRecv, tile: Tile, t: int, i: int,
                payload: Any) -> None:
    """The shared unpack of ``r``, the ``i``-th receive of chain tile
    ``t``: refuse a message whose size differs from the frozen plan,
    then scatter it into the back-end's halo."""
    if len(payload) != r.nelems:
        raise HaloSizeError(
            f"size mismatch at {tile} from {r.pred}: "
            f"{len(payload)} != {r.nelems}")
    data.unpack(t, i, payload)


class VmpiPort:
    """Virtual-MPI transport: every step becomes simulator requests.

    The cost model lives here and nowhere else — ``pack_time`` per
    message side, ``compute_time`` per tile, each scaled by the rank's
    ``node_speed_factor``; :class:`~repro.runtime.vmpi.VirtualMPI`
    adds the transfers — so timing-only and data runs of one
    program return identical ``RunStats`` by construction, and the
    cost certificate's COST03 makespan is that same clock.  The
    callbacks are the back-end's work (``None``: timing only).
    """

    def __init__(self, spec: ClusterSpec, rank: int):
        self.spec = spec
        self.factor = spec.node_speed_factor(rank)

    def recv(self, tile: Tile, r: TileRecv,
             unpack: Optional[Callable[[Any], None]]) -> Steps:
        payload, _got = yield Recv(source=r.src_rank, tag=r.tag)
        yield Compute(self.spec.pack_time(r.nelems) * self.factor)
        if unpack is not None:
            unpack(payload)

    def compute(self, tile: Tile, points: int,
                run: Optional[Callable[[], None]]) -> Steps:
        yield Compute(self.spec.compute_time(points) * self.factor)
        if run is not None:
            run()

    def send(self, tile: Tile, s: TileSend,
             pack: Optional[Callable[[], Any]]) -> Steps:
        yield Compute(self.spec.pack_time(s.nelems) * self.factor)
        payload = None if pack is None else pack()
        if payload is not None and len(payload) != s.nelems:
            # the receiver checks its own frozen size, which a mis-sized
            # send need not break
            raise HaloSizeError(
                f"size mismatch at {tile} toward {s.direction}: "
                f"{len(payload)} != {s.nelems}")
        yield Send(dest=s.dst_rank, tag=s.tag, nelems=s.nelems,
                   payload=payload)
