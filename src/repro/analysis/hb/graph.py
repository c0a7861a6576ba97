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
* **HB02 (deadlock freedom)** — the edge-wait graph is acyclic:
  :func:`replay` executes the per-rank event sequences against bounded
  SPSC rings (the exact per-edge depths ``build_edges`` allocates) and
  either completes or reports the wait cycle — SOR's forced-rendezvous
  deadlock becomes an explicit ``rank a -> rank b -> rank a``
  diagnostic instead of a runtime timeout.

:func:`replay` is the one static execution of the frozen schedule: the
deadlock pass (:mod:`repro.analysis.deadlock`, DL01-DL04) is the same
replay with the simulator's unbounded buffering.  It decides *whether*
a schedule completes, never *how long* it takes: the COST03 makespan
is the vMPI simulator's own clock, and the simulator stays the one
*dynamic* witness every static verdict is tested against.

The event model is a port of the runtime's own walk
(:func:`repro.runtime.rankstep.rank_walk`, blocking and overlapped): the
walk that drives the workers is run once per rank over a data-less
:class:`_GraphPort`, and every step it takes becomes one event.

* per-rank program order follows the tile chain; each tile contributes
  its receives, one compute event, its sends, and (protocol
  permitting) rendezvous completion waits;
* in the overlapped schedule receives sit at their first reading
  wavefront level (with the per-edge FIFO suffix-min floor), sends
  commit in plan order gated by their last contributing level, the
  compute event closes the tile and rendezvous waits follow it; a rank
  blocked on a full ring or on a receive may *drain* arrived-but-deferred
  same-tile halos — the ring port's ``drain_ready``, which
  :func:`replay` models;
* cross-rank ``msg`` edges pair the k-th send with the k-th receive of
  each ``(src, dst, tag)`` channel (rings are FIFO).

Vector clocks propagate over program order plus ``msg`` edges only.
Backpressure and rendezvous waits constrain *when* a rank may proceed
(the bounded replay models them) but are not certified orderings — the
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
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.runtime.machine import (
    FAST_ETHERNET_CLUSTER,
    PROTOCOLS,
    ClusterSpec,
)
from repro.runtime.parallel import build_edges
from repro.runtime.rankstep import (
    EdgeKey,
    TileRecv,
    TileSend,
    build_rank_plans,
    rank_walk,
    region_count,
)

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram

PASS_HB = "hb"

#: Event kinds.
RECV = "recv"
COMPUTE = "compute"
SEND = "send"
SENDWAIT = "sendwait"

Tile = Tuple[int, ...]
Chan = EdgeKey                          # (src_rank, dst_rank, tag)


class HBEvent(NamedTuple):
    """One schedule event of one rank (static, compile-time).  A
    ``NamedTuple``: every pass builds one per scheduled operation, so
    construction cost is on the verifier's critical path."""

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


class GraphBuilder:
    """Accumulates per-rank event sequences into an :class:`HBGraph`:
    numbers the events, assigns FIFO positions per channel and pairs
    the k-th send of a channel with its k-th receive."""

    def __init__(self, nranks: int) -> None:
        self.events: List[HBEvent] = []
        self.rows: List[List[int]] = [[] for _ in range(nranks)]
        self._fifo: Dict[str, Dict[Chan, List[int]]] = {SEND: {},
                                                        RECV: {}}

    def emit(self, rank: int, kind: str, tile: Tile, tix: int,
             peer: int = -1, tag: int = -1, nelems: int = 0) -> int:
        """Append one event to ``rank``'s order.  A ``SENDWAIT`` waits
        for the consumption of the rank's latest send on its channel."""
        eid = len(self.events)
        chan: Optional[Chan] = None
        chanpos = -1
        if kind == SENDWAIT:
            chan = (rank, peer, tag)
            chanpos = len(self._fifo[SEND][chan]) - 1
        elif kind != COMPUTE:
            chan = ((rank, peer, tag) if kind == SEND
                    else (peer, rank, tag))
            fifo = self._fifo[kind].setdefault(chan, [])
            chanpos = len(fifo)
            fifo.append(eid)
        row = self.rows[rank]
        self.events.append(HBEvent(rank, len(row), kind, tile, tix,
                                   peer, tag, nelems, chan, chanpos))
        row.append(eid)
        return eid

    def finish(self, protocol: str, overlap: bool, mailbox_depth: int,
               edge_depth: Dict[Chan, int]) -> HBGraph:
        sends, recvs = self._fifo[SEND], self._fifo[RECV]
        msg_edges: List[Tuple[int, int]] = []
        unmatched_r: List[int] = []
        unmatched_s: List[int] = []
        for chan in sorted(set(sends) | set(recvs)):
            ss = sends.get(chan, [])
            rr = recvs.get(chan, [])
            msg_edges.extend(zip(ss, rr))
            unmatched_s.extend(ss[len(rr):])
            unmatched_r.extend(rr[len(ss):])
        events = self.events
        return HBGraph(
            protocol=protocol, overlap=overlap,
            mailbox_depth=mailbox_depth, nranks=len(self.rows),
            events=tuple(events),
            rank_order=tuple(tuple(row) for row in self.rows),
            msg_edges=tuple(msg_edges),
            send_of_recv={r: s for s, r in msg_edges},
            edge_depth=edge_depth,
            compute_of={e.tile: i for i, e in enumerate(events)
                        if e.kind == COMPUTE},
            send_of={(e.tile, e.chan): i for i, e in enumerate(events)
                     if e.kind == SEND and e.chan is not None},
            unmatched_recvs=tuple(unmatched_r),
            unmatched_sends=tuple(unmatched_s))


class _GraphPort:
    """The data-less port of :func:`~repro.runtime.rankstep.rank_walk`
    that writes the graph: every step the walk takes becomes one
    :class:`HBEvent`, in the order it is taken.  Nothing blocks and
    nothing is decided here — placement is the walk's."""

    def __init__(self, b: GraphBuilder, rank: int, spec: ClusterSpec,
                 protocol: str) -> None:
        self.b, self.rank = b, rank
        self.spec, self.protocol = spec, protocol
        self.tile: Tile = ()
        self.tix = -1

    def _emit(self, kind: str, tile: Tile, peer: int = -1, tag: int = -1,
              nelems: int = 0) -> Tuple[()]:
        if tile is not self.tile:       # the walk moved to its next tile
            self.tile, self.tix = tile, self.tix + 1
        self.b.emit(self.rank, kind, tile, self.tix, peer, tag, nelems)
        return ()                       # never blocks: nothing to yield

    def recv(self, tile: Tile, r: TileRecv,
             unpack: object = None) -> Tuple[()]:
        return self._emit(RECV, tile, r.src_rank, r.tag, r.nelems)

    def compute(self, tile: Tile, points: int = 0,
                run: object = None) -> Tuple[()]:
        return self._emit(COMPUTE, tile)

    def send(self, tile: Tile, s: TileSend,
             pack: object = None) -> Tuple[()]:
        self.publish(tile, s)
        return self.complete(tile, s)

    def open_tile(self, tile: Tile, recvs: object,
                  unpacks: object) -> None:
        """A tile's start is not an event."""

    def publish(self, tile: Tile, s: TileSend,
                pack: object = None) -> Tuple[()]:
        return self._emit(SEND, tile, s.dst_rank, s.tag, s.nelems)

    close_tile = compute

    def complete(self, tile: Tile, s: TileSend) -> Tuple[()]:
        if self.spec.uses_rendezvous(self.protocol, s.nelems):
            self._emit(SENDWAIT, tile, s.dst_rank, s.tag, s.nelems)
        return ()


def build_hb_graph(program: "TiledProgram", protocol: str = "eager",
                   overlap: bool = False, mailbox_depth: int = 8,
                   spec: Optional[ClusterSpec] = None) -> HBGraph:
    """Symbolic replay of every rank's event sequence (no execution):
    one :func:`~repro.runtime.rankstep.rank_walk` per rank over a
    :class:`_GraphPort`."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if spec is None:
        spec = FAST_ETHERNET_CLUSTER
    plans = build_rank_plans(program)
    b = GraphBuilder(len(plans))
    for rank in sorted(plans):
        for _ in rank_walk(program, plans[rank],
                           _GraphPort(b, rank, spec, protocol),
                           overlap=overlap):
            raise AssertionError("the graph port never blocks")
    return b.finish(
        protocol, overlap, mailbox_depth,
        {key: es.depth
         for key, es in build_edges(plans, mailbox_depth).items()})


# -- the one static replay -----------------------------------------------------------


@dataclass(frozen=True)
class MachineResult:
    """Outcome of one abstract execution of the event sequences."""

    completed: bool
    blocked: Dict[int, int]             # rank -> blocking event id
    cycle: Tuple[int, ...]              # rank wait cycle, () if none


def replay(g: HBGraph, bounded: bool) -> MachineResult:
    """Advance every rank's event list against FIFO channels until all
    ranks finish or none can move — the one static execution of the
    frozen schedule; the HB02 wait machine and the DL01-DL04 deadlock
    pass are this function.

    A receive runs once its message is published, a ``SENDWAIT`` once
    its message is consumed.  ``bounded=False`` gives sends the
    simulator's unlimited buffering.  ``bounded=True`` is the ring
    runtime's one message path, exactly: a send blocks while its ring
    holds ``edge_depth`` unconsumed messages (``_RingPort.publish``
    asking ``reserve`` again), and — in overlap mode — a rank blocked
    on a full ring or on a receive drains arrived-but-deferred
    same-tile receives first-per-edge, like ``drain_ready``.  Every
    rank advances as far as it can, so the final state does not depend
    on the interleaving.
    Completion certifies every real schedule completes; a stall yields
    the wait cycle.
    """
    events, rows, depth = g.events, g.rank_order, g.edge_depth
    published: Dict[Optional[Chan], int] = {}
    consumed: Dict[Optional[Chan], int] = {}
    ptr = [0] * g.nranks
    drained: Set[int] = set()

    def step(e: HBEvent) -> bool:
        """Execute ``e`` if what it waits on has happened."""
        kind, chan = e.kind, e.chan
        if kind == RECV:
            if published.get(chan, 0) <= e.chanpos:
                return False
            consumed[chan] = consumed.get(chan, 0) + 1
        elif kind == SEND:
            sent = published.get(chan, 0)
            if bounded and sent - consumed.get(chan, 0) >= depth[chan]:
                return False
            published[chan] = sent + 1
        elif kind == SENDWAIT and consumed.get(chan, 0) <= e.chanpos:
            return False
        return True

    def drain(row: Tuple[int, ...], pos: int) -> bool:
        """Pop arrived-but-deferred same-tile halos, first remaining
        per channel (rings are FIFO; a blocked receive is first on its
        own), while blocked on a send or a receive."""
        tix = events[row[pos]].tix
        did = False
        seen: Set[Optional[Chan]] = {events[row[pos]].chan}
        for j in range(pos + 1, len(row)):
            e = events[row[j]]
            if e.tix != tix:
                break
            if e.kind != RECV or row[j] in drained or e.chan in seen:
                continue
            seen.add(e.chan)
            if step(e):
                drained.add(row[j])
                did = True
        return did

    moved = True
    while moved:
        moved = False
        for rank, row in enumerate(rows):
            while ptr[rank] < len(row):
                eid = row[ptr[rank]]
                if eid in drained:
                    ptr[rank] += 1
                    continue
                e = events[eid]
                if step(e):
                    ptr[rank] += 1
                    moved = True
                    continue
                if (bounded and g.overlap and e.kind in (SEND, RECV)
                        and drain(row, ptr[rank])):
                    moved = True
                    continue                    # retry the blocked event
                break

    blocked = {r: rows[r][ptr[r]] for r in range(g.nranks)
               if ptr[r] < len(rows[r])}
    cycle: Tuple[int, ...] = ()
    for r0 in sorted(blocked):
        seen_ranks: List[int] = []
        r = r0
        while r in blocked and r not in seen_ranks:
            seen_ranks.append(r)
            e = events[blocked[r]]
            assert e.chan is not None
            # a receive waits on its source; a full ring or a
            # rendezvous wait on the destination
            r = e.chan[0] if e.kind == RECV else e.chan[1]
        if r in seen_ranks:
            cycle = tuple(seen_ranks[seen_ranks.index(r):])
            break
    return MachineResult(completed=not blocked, blocked=blocked,
                         cycle=cycle)


def run_wait_machine(g: HBGraph) -> MachineResult:
    """HB02: :func:`replay` against the bounded SPSC rings."""
    return replay(g, bounded=True)


# -- vector clocks -------------------------------------------------------------------


def vector_clocks(g: HBGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Fidge-Mattern clocks over program order + ``msg`` edges.

    Returns ``(clocks, processed)``: ``clocks[e]`` is the vector clock
    *after* event ``e`` ticked (``clocks[e][rank(e)] == pos(e) + 1``);
    ``processed[e]`` is False exactly when ``e`` sits on or behind a
    cycle or an unmatched message, in which case its clock (zeros) can
    prove nothing — the HB01 check treats those pairs as unordered.
    Unmatched receives contribute no cross edge but do tick, so one
    dropped message cannot zero out a whole rank's clocks — which is
    why this is its own sweep and not :func:`replay`: the replay must
    *stop* at a receive nothing will ever match, and its sends wait on
    rings and rendezvous, which are not certified orderings.
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
            if region_count(program, tile, ds) == 0:
                continue
            rb = program.rank_of[pid2]
            checked += 1
            b = g.compute_of[succ]
            a: Optional[int]
            if overlap:
                tag = comm.tag(comm.project(ds))
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
