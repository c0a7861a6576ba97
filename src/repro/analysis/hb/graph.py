"""Happens-before certification of the parallel runtime's schedule.

Layer 1 of the HB certifier (``repro analyze --hb``): build the
happens-before graph of a :class:`TiledProgram`'s multiprocess
execution *symbolically* and prove two theorems about it:

* **HB01 (race freedom)** — every cross-processor tile dependence
  ``d^S`` is happens-before ordered: the event that finalizes the
  packed halo values (the producing tile's compute in the blocking
  schedule; the committing send in the overlapped schedule) precedes
  the consuming tile's compute in the vector-clock order.  The proof
  is the Fidge-Mattern condition ``vc(read)[rank(write)] >=
  tick(write)`` over the certified partial order.
* **HB02 (deadlock freedom)** — the edge-wait graph is acyclic: an
  operational abstract machine executes the per-rank event sequences
  against bounded SPSC rings (the exact per-edge depths
  ``build_edges`` allocates) and either completes or reports the wait
  cycle — SOR's forced-rendezvous deadlock becomes an explicit
  ``rank a -> rank b -> rank a`` diagnostic instead of a runtime
  timeout.

The event model mirrors the runtime's two walks over the same frozen
plans (:func:`repro.runtime.rankstep.rank_walk` and
``repro.runtime.parallel._overlap_walk``) op for op:

* per-rank program order follows the tile chain; each tile contributes
  its receives, one compute event, its sends, and (protocol
  permitting) rendezvous completion waits;
* the overlapped schedule replicates the runtime's placement: receives
  sit at their first reading wavefront level (with the per-edge FIFO
  suffix-min floor), sends commit in plan order gated by their last
  contributing level, rendezvous waits move to the tile end, and a
  rank blocked on a full ring may *drain* arrived-but-deferred
  same-tile halos — exactly ``drain_ready``;
* cross-rank ``msg`` edges pair the k-th send with the k-th receive of
  each ``(src, dst, tag)`` channel (rings are FIFO).

Vector clocks propagate over program order plus ``msg`` edges only.
Backpressure and rendezvous waits constrain *when* a rank may proceed
(the HB02 machine models them) but are not certified orderings — the
simulator's eager protocol has unbounded buffering, and the overlapped
runtime may execute a deferred receive earlier than its static slot
(drains / tile-start eager unpacks), so only edges *into* receives and
orderings between compute/send events are sound to certify.  Receives
have no cross-rank out-edges in this graph, which is exactly why the
propagation stays sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.runtime.machine import FAST_ETHERNET_CLUSTER, ClusterSpec
from repro.runtime.parallel import build_edges
from repro.runtime.rankstep import build_rank_plans

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram

PASS_HB = "hb"

#: Event kinds.
RECV = "recv"
COMPUTE = "compute"
SEND = "send"
SENDWAIT = "sendwait"

Tile = Tuple[int, ...]
Chan = Tuple[int, int, int]             # (src_rank, dst_rank, tag)

_PROTOCOLS = ("eager", "rendezvous", "spec")


@dataclass(frozen=True)
class HBEvent:
    """One schedule event of one rank (static, compile-time)."""

    rank: int
    pos: int                            # index in the rank's order
    kind: str                           # RECV/COMPUTE/SEND/SENDWAIT
    tile: Tile
    tix: int                            # tile ordinal within the chain
    peer: int                           # -1 for compute
    tag: int                            # -1 for compute
    nelems: int
    chan: Optional[Chan]
    chanpos: int                        # 0-based FIFO position, -1 n/a


@dataclass(frozen=True)
class HBGraph:
    """The full happens-before graph of one (protocol, overlap) mode."""

    protocol: str
    overlap: bool
    mailbox_depth: int
    nranks: int
    events: Tuple[HBEvent, ...]         # global id = index
    rank_order: Tuple[Tuple[int, ...], ...]
    msg_edges: Tuple[Tuple[int, int], ...]      # send -> recv
    send_of_recv: Dict[int, int]
    edge_depth: Dict[Chan, int]
    compute_of: Dict[Tile, int]
    send_of: Dict[Tuple[Tile, Chan], int]
    unmatched_recvs: Tuple[int, ...]
    unmatched_sends: Tuple[int, ...]


def _rendezvous_fn(protocol: str,
                   spec: ClusterSpec) -> Callable[[int], bool]:
    """Per-message synchronous-send decision, exactly as the runtime
    (``parallel._RingPort.rendezvous``) and the simulator decide it."""
    thresh = spec.rendezvous_threshold

    def rdv(nelems: int) -> bool:
        if protocol == "eager":
            return False
        if protocol == "rendezvous":
            return True
        return (thresh is not None and not spec.overlap
                and nelems * spec.bytes_per_element > thresh)

    return rdv


def build_hb_graph(program: "TiledProgram", protocol: str = "eager",
                   overlap: bool = False, mailbox_depth: int = 8,
                   spec: Optional[ClusterSpec] = None) -> HBGraph:
    """Symbolic replay of every rank's event sequence (no execution)."""
    if protocol not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if spec is None:
        spec = FAST_ETHERNET_CLUSTER
    rdv = _rendezvous_fn(protocol, spec)
    plans = build_rank_plans(program)
    edge_specs = build_edges(plans, mailbox_depth)
    depth = {key: es.depth for key, es in edge_specs.items()}

    events: List[HBEvent] = []
    rank_order: List[Tuple[int, ...]] = []
    chan_sends: Dict[Chan, List[int]] = {}
    chan_recvs: Dict[Chan, List[int]] = {}
    compute_of: Dict[Tile, int] = {}
    send_of: Dict[Tuple[Tile, Chan], int] = {}

    for rank in sorted(plans):
        plan = plans[rank]
        order: List[int] = []

        def emit(kind: str, tile: Tile, tix: int, peer: int = -1,
                 tag: int = -1, nelems: int = 0,
                 chan: Optional[Chan] = None,
                 chanpos: int = -1,
                 _rank: int = rank, _order: List[int] = order) -> int:
            eid = len(events)
            if chan is not None and chanpos < 0:
                fifo = chan_sends if kind == SEND else chan_recvs
                lst = fifo.setdefault(chan, [])
                chanpos = len(lst)
                lst.append(eid)
            events.append(HBEvent(
                rank=_rank, pos=len(_order), kind=kind, tile=tile,
                tix=tix, peer=peer, tag=tag, nelems=nelems, chan=chan,
                chanpos=chanpos))
            _order.append(eid)
            return eid

        for ti, tile in enumerate(plan.tiles):
            recvs = plan.recvs[ti]
            sends = plan.sends[ti]
            if not overlap:
                for r in recvs:
                    emit(RECV, tile, ti, r.src_rank, r.tag, r.nelems,
                         (r.src_rank, rank, r.tag))
                compute_of[tile] = emit(COMPUTE, tile, ti)
                for s in sends:
                    chan = (rank, s.dst_rank, s.tag)
                    eid = emit(SEND, tile, ti, s.dst_rank, s.tag,
                               s.nelems, chan)
                    send_of[(tile, chan)] = eid
                    if rdv(s.nelems):
                        emit(SENDWAIT, tile, ti, s.dst_rank, s.tag,
                             s.nelems, chan, events[eid].chanpos)
                continue
            # Overlapped schedule: replicate the runtime's placement.
            oplan = program.overlap_plan(tile)
            if len(oplan.packs) != len(sends):
                raise ValueError(
                    f"overlap plan of tile {tile} has "
                    f"{len(oplan.packs)} packs for {len(sends)} sends")
            needs = list(oplan.recv_need)
            floor: Dict[Tuple[int, int], int] = {}
            for i in reversed(range(len(needs))):
                rkey = (recvs[i].src_rank, recvs[i].tag)
                needs[i] = min(needs[i], floor.get(rkey, needs[i]))
                floor[rkey] = needs[i]
            send_ptr = 0
            sent: List[int] = []
            for li in range(oplan.nlevels):
                for i, r in enumerate(recvs):
                    if needs[i] == li:
                        emit(RECV, tile, ti, r.src_rank, r.tag,
                             r.nelems, (r.src_rank, rank, r.tag))
                while (send_ptr < len(sends)
                       and oplan.packs[send_ptr].commit_level <= li):
                    s = sends[send_ptr]
                    chan = (rank, s.dst_rank, s.tag)
                    eid = emit(SEND, tile, ti, s.dst_rank, s.tag,
                               s.nelems, chan)
                    send_of[(tile, chan)] = eid
                    sent.append(eid)
                    send_ptr += 1
            for i, r in enumerate(recvs):
                if needs[i] >= oplan.nlevels:
                    emit(RECV, tile, ti, r.src_rank, r.tag, r.nelems,
                         (r.src_rank, rank, r.tag))
            while send_ptr < len(sends):        # degenerate empty tile
                s = sends[send_ptr]
                chan = (rank, s.dst_rank, s.tag)
                eid = emit(SEND, tile, ti, s.dst_rank, s.tag, s.nelems,
                           chan)
                send_of[(tile, chan)] = eid
                sent.append(eid)
                send_ptr += 1
            compute_of[tile] = emit(COMPUTE, tile, ti)
            for eid in sent:                    # tile-end rendezvous
                e = events[eid]
                if rdv(e.nelems):
                    emit(SENDWAIT, tile, ti, e.peer, e.tag, e.nelems,
                         e.chan, e.chanpos)
        rank_order.append(tuple(order))

    msg_edges: List[Tuple[int, int]] = []
    send_of_recv: Dict[int, int] = {}
    unmatched_r: List[int] = []
    unmatched_s: List[int] = []
    for chan in sorted(set(chan_sends) | set(chan_recvs)):
        ss = chan_sends.get(chan, [])
        rr = chan_recvs.get(chan, [])
        for s_eid, r_eid in zip(ss, rr):
            msg_edges.append((s_eid, r_eid))
            send_of_recv[r_eid] = s_eid
        unmatched_s.extend(ss[len(rr):])
        unmatched_r.extend(rr[len(ss):])

    return HBGraph(
        protocol=protocol, overlap=overlap,
        mailbox_depth=mailbox_depth, nranks=len(rank_order),
        events=tuple(events), rank_order=tuple(rank_order),
        msg_edges=tuple(msg_edges), send_of_recv=send_of_recv,
        edge_depth=depth, compute_of=compute_of, send_of=send_of,
        unmatched_recvs=tuple(unmatched_r),
        unmatched_sends=tuple(unmatched_s))


# -- the HB02 wait machine -----------------------------------------------------------


@dataclass(frozen=True)
class MachineResult:
    """Outcome of one abstract execution of the event sequences."""

    completed: bool
    order: Tuple[int, ...]              # event ids in execution order
    blocked: Dict[int, int]             # rank -> blocking event id
    cycle: Tuple[int, ...]              # rank wait cycle, () if none


def run_wait_machine(g: HBGraph) -> MachineResult:
    """Execute the schedule against bounded SPSC rings.

    The machine is the *most-blocked* sound abstraction of the
    runtime: sends block while the ring holds ``depth`` unconsumed
    messages (the staged fallback; a successful zero-copy reservation
    only ever blocks less), rendezvous waits block until the matching
    receive executed, and — in overlap mode — a rank blocked on a full
    ring drains arrived-but-deferred same-tile receives first-per-edge,
    exactly like ``drain_ready``.  Completion certifies every real
    schedule completes; a stall yields the wait cycle.
    """
    published: Dict[Chan, int] = {}
    consumed: Dict[Chan, int] = {}
    ptr = [0] * g.nranks
    drained: Set[int] = set()
    ex_order: List[int] = []

    def runnable(e: HBEvent) -> bool:
        if e.kind == COMPUTE:
            return True
        assert e.chan is not None
        if e.kind == RECV:
            return published.get(e.chan, 0) > e.chanpos
        if e.kind == SEND:
            return (published.get(e.chan, 0)
                    - consumed.get(e.chan, 0)) < g.edge_depth[e.chan]
        return consumed.get(e.chan, 0) > e.chanpos      # SENDWAIT

    def execute(eid: int) -> None:
        e = g.events[eid]
        if e.chan is not None:
            if e.kind == RECV:
                consumed[e.chan] = consumed.get(e.chan, 0) + 1
            elif e.kind == SEND:
                published[e.chan] = published.get(e.chan, 0) + 1
        ex_order.append(eid)

    def drain(rank: int, pos: int) -> bool:
        """Pop arrived-but-deferred same-tile halos, first remaining
        per channel (rings are FIFO), while blocked on a send."""
        row = g.rank_order[rank]
        tix = g.events[row[pos]].tix
        did = False
        seen: Set[Chan] = set()
        for j in range(pos + 1, len(row)):
            e = g.events[row[j]]
            if e.tix != tix:
                break
            if e.kind != RECV or row[j] in drained:
                continue
            assert e.chan is not None
            if e.chan in seen:
                continue
            seen.add(e.chan)
            if published.get(e.chan, 0) > e.chanpos:
                drained.add(row[j])
                execute(row[j])
                did = True
        return did

    moved = True
    while moved:
        moved = False
        for rank in range(g.nranks):
            row = g.rank_order[rank]
            while ptr[rank] < len(row):
                eid = row[ptr[rank]]
                if eid in drained:
                    ptr[rank] += 1
                    continue
                e = g.events[eid]
                if runnable(e):
                    execute(eid)
                    ptr[rank] += 1
                    moved = True
                    continue
                if (g.overlap and e.kind == SEND
                        and drain(rank, ptr[rank])):
                    moved = True
                    continue                    # retry the send
                break

    blocked = {r: g.rank_order[r][ptr[r]] for r in range(g.nranks)
               if ptr[r] < len(g.rank_order[r])}
    cycle: Tuple[int, ...] = ()
    if blocked:
        def wait_target(e: HBEvent) -> int:
            assert e.chan is not None
            if e.kind == RECV:
                return e.chan[0]
            return e.chan[1]                    # SEND full / SENDWAIT

        for r0 in sorted(blocked):
            seen_ranks: List[int] = []
            r = r0
            while r in blocked and r not in seen_ranks:
                seen_ranks.append(r)
                r = wait_target(g.events[blocked[r]])
            if r in seen_ranks:
                cycle = tuple(seen_ranks[seen_ranks.index(r):])
                break
    return MachineResult(completed=not blocked, order=tuple(ex_order),
                         blocked=blocked, cycle=cycle)


# -- vector clocks -------------------------------------------------------------------


def vector_clocks(g: HBGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Fidge-Mattern clocks over program order + ``msg`` edges.

    Returns ``(clocks, processed)``: ``clocks[e]`` is the vector clock
    *after* event ``e`` ticked (``clocks[e][rank(e)] == pos(e) + 1``);
    ``processed[e]`` is False exactly when ``e`` sits on or behind a
    cycle or an unmatched message, in which case its clock (zeros) can
    prove nothing — the HB01 check treats those pairs as unordered.
    Unmatched receives contribute no cross edge but do tick, so one
    dropped message cannot zero out a whole rank's clocks.
    """
    nev = len(g.events)
    clocks = np.zeros((nev, g.nranks), dtype=np.int64)
    processed = np.zeros(nev, dtype=bool)
    cur = np.zeros((g.nranks, g.nranks), dtype=np.int64)
    ptr = [0] * g.nranks
    moved = True
    while moved:
        moved = False
        for r in range(g.nranks):
            row = g.rank_order[r]
            while ptr[r] < len(row):
                eid = row[ptr[r]]
                e = g.events[eid]
                src = (g.send_of_recv.get(eid)
                       if e.kind == RECV else None)
                if src is not None and not processed[src]:
                    break
                vc = cur[r]
                if src is not None:
                    np.maximum(vc, clocks[src], out=vc)
                vc[r] = e.pos + 1
                clocks[eid] = vc
                processed[eid] = True
                ptr[r] += 1
                moved = True
    return clocks, processed


def happens_before(g: HBGraph, clocks: np.ndarray,
                   processed: np.ndarray, a: int, b: int) -> bool:
    """Is ``a -> b`` provable in the certified partial order?"""
    if not (processed[a] and processed[b]):
        return False
    ea = g.events[a]
    return bool(clocks[b][ea.rank] >= ea.pos + 1)


# -- the certificate -----------------------------------------------------------------


@dataclass(frozen=True)
class HBCertificate:
    """One mode's proof object: graph + machine run + HB01/HB02
    findings.  Cached on the program via ``hb_certificate()``."""

    protocol: str
    overlap: bool
    mailbox_depth: int
    ok: bool
    diagnostics: Tuple[Diagnostic, ...]
    graph: HBGraph
    machine: MachineResult
    pairs_checked: int
    pairs_proved: int

    @property
    def cycle(self) -> Tuple[int, ...]:
        return self.machine.cycle


def _describe_blocked(g: HBGraph, eid: int) -> str:
    e = g.events[eid]
    return (f"rank {e.rank} blocked at {e.kind}(peer={e.peer}, "
            f"tag={e.tag}) in tile {e.tile}")


def _machine_diagnostics(g: HBGraph, mres: MachineResult,
                         mode: str) -> List[Diagnostic]:
    if mres.completed:
        return []
    if mres.cycle:
        chain = " -> ".join(str(r) for r in mres.cycle)
        parts = "; ".join(_describe_blocked(g, mres.blocked[r])
                          for r in mres.cycle)
        return [Diagnostic(
            code="HB02", severity=ERROR, pass_name=PASS_HB,
            message=f"cyclic wait among ranks {chain} -> "
                    f"{mres.cycle[0]} under the {mode} schedule: "
                    f"{parts}",
            equation="edge-wait graph must be acyclic (HB partial "
                     "order exists)",
            subject=(("cycle", mres.cycle), ("mode", mode)),
            suggestion="use the eager protocol (or raise the "
                       "rendezvous threshold) so sends complete "
                       "without waiting on the receiver",
        )]
    parts = "; ".join(_describe_blocked(g, mres.blocked[r])
                      for r in sorted(mres.blocked)[:4])
    more = len(mres.blocked) - min(len(mres.blocked), 4)
    if more > 0:
        parts += f"; and {more} more rank(s)"
    return [Diagnostic(
        code="HB02", severity=ERROR, pass_name=PASS_HB,
        message=f"schedule cannot complete under the {mode} mode: "
                f"{parts}",
        equation="every event must become runnable (no unmatched "
                 "message, no stuck wait)",
        subject=(("blocked_ranks", tuple(sorted(mres.blocked))),
                 ("mode", mode)),
        suggestion="a message is missing or mismatched; the DL01/DL02 "
                   "deadlock pass usually names the exact channel",
    )]


def certify_program(program: "TiledProgram", *,
                    protocol: str = "eager", overlap: bool = False,
                    mailbox_depth: int = 8,
                    spec: Optional[ClusterSpec] = None) -> HBCertificate:
    """Build and prove one mode's HB certificate (HB01 + HB02)."""
    if spec is None:
        spec = FAST_ETHERNET_CLUSTER
    g = build_hb_graph(program, protocol=protocol, overlap=overlap,
                       mailbox_depth=mailbox_depth, spec=spec)
    mres = run_wait_machine(g)
    mode = protocol + ("+overlap" if overlap else "")
    diags = _machine_diagnostics(g, mres, mode)
    clocks, processed = vector_clocks(g)

    dist, comm = program.dist, program.comm
    checked = proved = 0
    fail_count: Dict[Tile, int] = {}
    fail_example: Dict[Tile, Tuple[Tile, Tile, int, int]] = {}
    for tile in dist.tiles:
        pid = dist.pid_of(tile)
        ra = program.rank_of[pid]
        for ds_raw in comm.d_s:
            ds = tuple(int(x) for x in ds_raw)
            succ = tuple(a + b for a, b in zip(tile, ds))
            if not dist.valid(succ):
                continue
            pid2 = dist.pid_of(succ)
            if pid2 == pid:
                continue
            if program.region_count(tile, ds) == 0:
                continue
            rb = program.rank_of[pid2]
            checked += 1
            b = g.compute_of[succ]
            a: Optional[int]
            if overlap:
                tag = program.message_tag(comm.project(ds))
                a = g.send_of.get((tile, (ra, rb, tag)))
            else:
                a = g.compute_of.get(tile)
            if a is not None and happens_before(g, clocks, processed,
                                               a, b):
                proved += 1
            else:
                fail_count[ds] = fail_count.get(ds, 0) + 1
                fail_example.setdefault(ds, (tile, succ, ra, rb))
    for ds in sorted(fail_count):
        count = fail_count[ds]
        tile, succ, ra, rb = fail_example[ds]
        diags.append(Diagnostic(
            code="HB01", severity=ERROR, pass_name=PASS_HB,
            message=f"{count} tile dependence pair(s) along d^S={ds} "
                    f"are not provably happens-before ordered under "
                    f"the {mode} schedule (e.g. tile {tile} on rank "
                    f"{ra} -> tile {succ} on rank {rb}): the halo "
                    f"write/read pair may race",
            equation="vc(read)[rank(write)] >= tick(write) "
                     "(Fidge-Mattern vector clocks)",
            subject=(("ds", ds), ("example_src", tile),
                     ("example_dst", succ), ("src_rank", ra),
                     ("dst_rank", rb), ("pairs", count),
                     ("mode", mode)),
            suggestion="the communication spec does not carry this "
                       "dependence in order; RACE01/DL01 usually "
                       "pinpoint the dropped or misrouted message",
        ))
    return HBCertificate(
        protocol=protocol, overlap=overlap,
        mailbox_depth=mailbox_depth,
        ok=not any(d.severity == ERROR for d in diags),
        diagnostics=tuple(diags), graph=g, machine=mres,
        pairs_checked=checked, pairs_proved=proved)
