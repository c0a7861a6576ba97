"""Real multiprocess parallel backend (one OS process per processor).

Everything else in :mod:`repro.runtime` *simulates* the cluster: the
virtual-MPI engine advances per-rank clocks under a cost model, but no
two tiles ever execute concurrently.  This module finally runs the
compiled schedule in parallel on the host:

* each processor ``pid`` of the :class:`~repro.runtime.executor.
  TiledProgram` becomes (up to ``workers``) an OS process owning its
  dense LDS (:class:`~repro.runtime.dense.RankLDS`, the very object
  the simulated dense engine uses), executing its tile chain through
  the shared node program :func:`~repro.runtime.rankstep.rank_walk`
  with a shared-memory ring port in place of the virtual-MPI one;
* halos move through *lock-free per-edge shared-memory mailboxes*: one
  single-producer/single-consumer ring buffer per directed
  ``(src_rank, dst_rank, tag)`` edge, sized at compile time from the
  ``CC`` region counts (pack-per-processor on send, receive-per-tile
  on the receiving side — the paper's §3.2 asymmetry).  A message has
  one life on every schedule — wait for a free slot, reserve it, gather
  the ``CC`` region straight into it, commit — and is unpacked straight
  out of the slot on the other side: one copy each way, no allocation;
* both MPI protocols are available: *eager* (the bounded ring provides
  backpressure: a full mailbox blocks the sender until a slot frees)
  and *rendezvous* (the sender additionally waits until the receiver
  has consumed the message — ``MPI_Ssend`` semantics).  ``"spec"``
  picks per message from :attr:`ClusterSpec.rendezvous_threshold`,
  exactly like the simulator.

Correctness story: the per-tile computation and every pack/unpack *are*
the dense engine's (same ``RankLDS`` methods, walk and frozen plan), so
results are **bitwise identical** (``tol=0.0``) to ``execute_dense``.
The overlapped schedule is the same walk with ``overlap=True``: it
reorders work *within* a tile and moves every byte through the same LDS
object; this module only supplies the ring mechanics.  The returned
:class:`~repro.runtime.vmpi.RunStats` carries *measured* wall-clock
per-rank clocks and compute/comm splits (idle falls out in
:func:`~repro.runtime.metrics.metrics_from_stats`), while its event
counts (``total_messages``/``total_elements``) must equal the
simulator's — a second cross-check the tests enforce.

Concurrency-safety notes:

* every mailbox ring is strictly single-producer/single-consumer, so
  the monotonic head/tail counters need no locks: the producer writes
  payload then publishes by bumping ``head``; the consumer reads
  ``head`` before touching the slot.  CPython emits the stores in
  program order and aligned 8-byte loads/stores are atomic on every
  supported platform, which is the standard SPSC-ring discipline;
* when ``workers < processors`` each worker runs several rank programs
  under a cooperative scheduler (generators yield while a mailbox
  would block), so intra-worker rank pairs can never deadlock each
  other;
* a crashed worker is detected by the parent (exit-code watch + error
  queue) which flips a shared abort flag so every other worker unwinds
  promptly — no hangs, a clean :class:`ParallelWorkerError`.

Per-rank timings are wall-clock interval sums.  They are exact when
``workers >= processors`` (the measurement configuration); with fewer
workers the ranks sharing a process also share its CPU time, so the
per-rank split becomes an attribution, not a measurement.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.runtime.dataspace import DenseField
from repro.runtime.dense import (
    DenseData,
    prewarm_overlap_plans,
    result_fields,
)
from repro.runtime.machine import PROTOCOLS, ClusterSpec
from repro.runtime.rankstep import (
    EdgeKey,
    ParallelRuntimeError,
    RankPlan,
    Steps,
    TileRecv,
    TileSend,
    build_rank_plans,
    edge_tally,
    rank_walk,
)
from repro.runtime.trace import EventTrace
from repro.runtime.vmpi import RunStats

if TYPE_CHECKING:
    from repro.native.engine import NativeKernelLibrary
    from repro.runtime.executor import TiledProgram

Tile = Tuple[int, ...]
Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]
Unpack = Callable[[np.ndarray], None]
Pack = Callable[[np.ndarray], np.ndarray]
#: (kind, start_ns, end_ns, peer, tag, nelems); peer/tag < 0 = absent.
Event = Tuple[str, int, int, int, int, int]

#: Cooperative-scheduler pacing: passes without local progress before
#: the worker starts sleeping, and the sleep bounds (seconds).
_SPIN_PASSES = 64
_SLEEP_MIN = 50e-6
_SLEEP_MAX = 2e-3
#: Parent watchdog poll period (seconds).
_POLL = 0.01


class ParallelWorkerError(ParallelRuntimeError):
    """A worker process died; carries the remote traceback when known."""


class ParallelTimeoutError(ParallelRuntimeError):
    """No completion within the timeout (hang or real deadlock)."""


# -- mailbox layout ------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeSpec:
    """Shared-memory layout of one mailbox ring."""

    meta_off: int                       # int64 words: head, tail, sizes
    data_off: int                       # payload elements
    depth: int                          # slots in the ring
    capacity: int                       # max elements per message


@dataclass(frozen=True)
class _Segments:
    """Names of every shared-memory segment of one run."""

    ctrl: str
    meta: str
    data: str
    statsf: str
    statsi: str
    edgestats: str                  # int64 (nedges, 2): messages, elems
    fields: Tuple[Tuple[str, str, str], ...]   # (array, values, written)


@dataclass(frozen=True)
class _RunConfig:
    dtype_str: str
    protocol: str                       # "eager" | "rendezvous" | "spec"
    nranks: int
    nworkers: int
    collect_trace: bool
    crash_rank: Optional[int]
    overlap: bool
    field_layout: Tuple[Tuple[str, Tuple[int, ...], Tuple[int, ...]],
                        ...]            # (array, origin, shape)
    #: Native kernel library (repro.native), or None for numpy compute.
    #: Workers re-dlopen the cached .so by path after the pickle trip.
    native: Optional["NativeKernelLibrary"] = None


def build_edges(plans: Dict[int, RankPlan],
                depth: int) -> Dict[EdgeKey, EdgeSpec]:
    """Size one mailbox ring per directed edge that carries messages.

    Capacity is the largest message the edge ever sees (a compile-time
    quantity: the max ``CC`` pack-region count along the chain); depth
    is bounded by the edge's total message count, so short edges do not
    over-allocate.
    """
    edges: Dict[EdgeKey, EdgeSpec] = {}
    meta_off = 0
    data_off = 0
    for key, (count, _elems, cap) in sorted(edge_tally(plans).items()):
        d = max(1, min(depth, count))
        edges[key] = EdgeSpec(meta_off=meta_off, data_off=data_off,
                              depth=d, capacity=cap)
        meta_off += 2 + d
        data_off += d * cap
    return edges


# -- shared memory plumbing ----------------------------------------------------------


def _attach(name: str) -> _shm.SharedMemory:
    """Attach to an existing segment without confusing the resource
    tracker: the parent owns unlinking; attaching processes must not
    register the segment or Python (< 3.13) double-frees it at exit
    (and concurrent workers unregistering the same name make the
    tracker print KeyErrors).  Suppress registration during attach."""
    from multiprocessing import resource_tracker
    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return _shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


class _Edge:
    """One SPSC mailbox ring, viewed through shared memory."""

    __slots__ = ("depth", "capacity", "head", "tail", "sizes", "slots")

    def __init__(self, spec: EdgeSpec, meta: np.ndarray,
                 data: np.ndarray) -> None:
        self.depth = spec.depth
        self.capacity = spec.capacity
        base = spec.meta_off
        self.head = meta[base:base + 1]
        self.tail = meta[base + 1:base + 2]
        self.sizes = meta[base + 2:base + 2 + spec.depth]
        self.slots = data[spec.data_off:
                          spec.data_off + spec.depth * spec.capacity
                          ].reshape(spec.depth, spec.capacity)

    # producer side ------------------------------------------------------------

    def reserve(self, n: int) -> Optional[np.ndarray]:
        """A writable view of the next free slot, or ``None`` when the
        ring is full *right now* (the producer waits and asks again).
        The slot stays invisible to the consumer until :meth:`commit`
        bumps ``head``."""
        if n > self.capacity:
            raise ParallelRuntimeError(
                f"message of {n} elements exceeds mailbox capacity "
                f"{self.capacity}")
        h = int(self.head[0])
        if h - int(self.tail[0]) >= self.depth:
            return None
        return self.slots[h % self.depth, :n]

    def commit(self, n: int) -> None:
        """Publish the ``n`` elements written into the slot handed out
        by :meth:`reserve`.  Payload and size land before the ``head``
        bump (store order is what makes the lock-free ring safe)."""
        h = int(self.head[0])
        self.sizes[h % self.depth] = n
        self.head[0] = h + 1

    def drained(self) -> bool:
        """Everything committed so far has been released — what a
        rendezvous send waits for."""
        return int(self.tail[0]) >= int(self.head[0])

    # consumer side ------------------------------------------------------------

    def can_pop(self) -> bool:
        return int(self.head[0]) > int(self.tail[0])

    def peek(self) -> np.ndarray:
        """Zero-copy view of the oldest in-flight message.  Valid only
        until :meth:`release`; the producer cannot reuse the slot while
        it remains unreleased."""
        slot = int(self.tail[0]) % self.depth
        return self.slots[slot, :int(self.sizes[slot])]

    def release(self) -> None:
        """Retire the message :meth:`peek` exposed (bumps ``tail``)."""
        self.tail[0] = int(self.tail[0]) + 1


# -- worker process ------------------------------------------------------------------


class _Abort(Exception):
    """Raised inside a worker when the shared abort flag flips."""


@dataclass
class _RankClocks:
    compute_ns: int = 0
    comm_ns: int = 0
    sends: int = 0
    recvs: int = 0
    elems_sent: int = 0
    clock_ns: int = 0
    # Per-edge measured counts for this rank's *outgoing* edges; the
    # worker flushes them into the shared ``edgestats`` segment (one
    # row per edge, single writer = the sender's worker).
    edge_msgs: Dict[EdgeKey, int] = field(default_factory=dict)
    edge_elems: Dict[EdgeKey, int] = field(default_factory=dict)


@dataclass
class _RingPort:
    """Shared-memory transport of one rank — the ring port of
    :func:`~repro.runtime.rankstep.rank_walk` (its module docstring has
    the port table).  The walk says *what* happens next; the port owns
    *how*: the rings, what to take early or drain while blocked, and
    every clock.

    Every method that may block is a generator yielding exactly while
    a mailbox ring would block, letting the worker scheduler run its
    other ranks.  Wall time is accounted into the rank's
    :class:`_RankClocks` (and the optional event list) only here.
    """

    rank: int
    edges: Dict[EdgeKey, _Edge]
    spec: ClusterSpec
    protocol: str                       # "eager" | "rendezvous" | "spec"
    ctrl: np.ndarray                    # shared flags; [1] = abort
    clocks: _RankClocks
    progress: List[int]                 # the worker's progress counter
    events: Optional[List[Event]]
    t0_ns: int
    crash: bool                         # test hook, see crash_point
    # The open tile of the overlapped schedule: its start, the comm
    # clock then, and the receives not yet taken (plan order).
    tile0_ns: int = 0
    comm0_ns: int = 0
    due: Optional[Dict[int, Tuple[TileRecv, _Edge, Unpack]]] = None

    def now(self) -> int:
        return time.perf_counter_ns() - self.t0_ns

    def check_abort(self) -> None:
        if self.ctrl[1]:
            raise _Abort

    def wait(self, ready: Callable[[], bool]) -> Steps:
        while not ready():
            self.check_abort()
            yield

    def in_edge(self, r: TileRecv) -> _Edge:
        return self.edges[(r.src_rank, self.rank, r.tag)]

    def out_edge(self, s: TileSend) -> _Edge:
        return self.edges[(self.rank, s.dst_rank, s.tag)]

    def crash_point(self) -> None:
        if self.crash:
            raise RuntimeError(
                f"injected crash in rank {self.rank} (test hook)")

    # -- accounting -----------------------------------------------------------------

    def take(self, r: TileRecv, edge: _Edge, unpack: Unpack,
             w0: int) -> None:
        """Unpack the (already arrived) head message of ``edge``
        zero-copy — scatter straight out of the ring slot, then release
        it — and account it from ``w0``, when the wait for it began."""
        unpack(edge.peek())
        edge.release()
        self.progress[0] += 1
        w1 = self.now()
        self.clocks.comm_ns += w1 - w0
        self.clocks.recvs += 1
        if self.events is not None:
            self.events.append(("recv", w0, w1, r.src_rank, r.tag,
                                r.nelems))

    def sent(self, s: TileSend, w0: int) -> None:
        """Account one published message from ``w0``, when its pack
        began."""
        w1 = self.now()
        c = self.clocks
        c.comm_ns += w1 - w0
        c.sends += 1
        c.elems_sent += s.nelems
        ekey = (self.rank, s.dst_rank, s.tag)
        c.edge_msgs[ekey] = c.edge_msgs.get(ekey, 0) + 1
        c.edge_elems[ekey] = c.edge_elems.get(ekey, 0) + s.nelems
        if self.events is not None:
            self.events.append(
                ("send", w0, w1, s.dst_rank, s.tag, s.nelems))

    # -- the steps of rank_walk ------------------------------------------------------

    def recv(self, tile: Tile, r: TileRecv, unpack: Unpack) -> Steps:
        if self.due is not None and self.due.pop(id(r), None) is None:
            return                      # taken at tile start or by a drain
        edge = self.in_edge(r)
        w0 = self.now()
        yield from self.wait(edge.can_pop)
        self.take(r, edge, unpack, w0)

    def compute(self, tile: Tile, points: int,
                run: Callable[[], None]) -> Tuple[()]:
        c0 = self.now()
        run()
        c1 = self.now()
        self.clocks.compute_ns += c1 - c0
        if self.events is not None:
            self.events.append(("compute", c0, c1, -1, -1, 0))
        self.crash_point()
        return ()                       # never blocks: nothing to yield

    def send(self, tile: Tile, s: TileSend, pack: Pack) -> Steps:
        yield from self.publish(tile, s, pack)
        yield from self.complete(tile, s)

    def publish(self, tile: Tile, s: TileSend, pack: Pack) -> Steps:
        """The one life of a message: wait for a free slot (taking
        deferred halos meanwhile when a tile is open), reserve it,
        ``pack(view)`` — the one gather, straight into shared memory —
        and commit."""
        edge = self.out_edge(s)
        w0 = self.now()
        while (view := edge.reserve(s.nelems)) is None:
            self.check_abort()
            if self.due is None or not self.drain_ready():
                yield
        edge.commit(len(pack(view)))
        self.progress[0] += 1
        self.sent(s, w0)

    def complete(self, tile: Tile, s: TileSend) -> Steps:
        """Rendezvous completion of the rank's latest message on the
        edge — at the tile end on the overlapped schedule, so the
        interior compute overlapped the receiver's drain."""
        if self.spec.uses_rendezvous(self.protocol, s.nelems):
            w0 = self.now()
            yield from self.wait(self.out_edge(s).drained)
            self.clocks.comm_ns += self.now() - w0

    # -- the tile bracket of the overlapped schedule ---------------------------------

    def open_tile(self, tile: Tile, recvs: Sequence[TileRecv],
                  unpacks: Sequence[Unpack]) -> None:
        """Tile start: take every halo that already arrived; the rest
        stay :attr:`due` until the walk reaches the phase that reads
        them."""
        self.tile0_ns, self.comm0_ns = self.now(), self.clocks.comm_ns
        self.crash_point()              # tile open, nothing published
        self.due = {id(r): (r, self.in_edge(r), unpack)
                    for r, unpack in zip(recvs, unpacks)}
        self.drain_ready()

    def drain_ready(self) -> bool:
        """Take arrived-but-deferred halos (first remaining message per
        edge only — rings are FIFO).  Also run while blocked on a full
        ring, so the lazy receives can never introduce a wait cycle the
        blocking schedule does not have."""
        assert self.due is not None
        did = False
        blocked: Set[_Edge] = set()
        for key, (r, edge, unpack) in list(self.due.items()):
            if edge not in blocked and edge.can_pop():
                del self.due[key]
                self.take(r, edge, unpack, self.now())
                did = True
            else:
                blocked.add(edge)
        return did

    def close_tile(self, tile: Tile) -> None:
        """Compute attribution: the tile span not measured as comm."""
        tile1 = self.now()
        self.clocks.compute_ns += (tile1 - self.tile0_ns) - (
            self.clocks.comm_ns - self.comm0_ns)
        if self.events is not None:
            self.events.append(
                ("compute", self.tile0_ns, tile1, -1, -1, 0))


def _rank_generator(program: TiledProgram, plan: RankPlan,
                    port: _RingPort, data: DenseData,
                    overlap: bool) -> Steps:
    """One rank's node program as a cooperative generator: the walk
    over the ring port, then the (untimed) write-back."""
    lds = data.rank(plan.pid)
    yield from rank_walk(program, plan, port, lds, overlap)
    port.clocks.clock_ns = port.now()
    lds.write_back(plan.tiles)


def _worker_main(worker_id: int, ranks: Tuple[int, ...],
                 program: TiledProgram, spec: ClusterSpec,
                 init_value: InitFn, plans: Dict[int, RankPlan],
                 edge_specs: Dict[EdgeKey, EdgeSpec],
                 segments: _Segments, cfg: _RunConfig,
                 error_q: Any, trace_q: Any) -> None:
    """Entry point of one worker process: run ``ranks`` cooperatively.

    Exits via ``os._exit`` so shared-memory views never trip buffer
    teardown; exit codes: 0 success, 1 crash (traceback on
    ``error_q``), 3 aborted because another worker failed.
    """
    segs: List[_shm.SharedMemory] = []
    try:
        dtype = np.dtype(cfg.dtype_str)
        ctrl_seg = _attach(segments.ctrl)
        meta_seg = _attach(segments.meta)
        data_seg = _attach(segments.data)
        statsf_seg = _attach(segments.statsf)
        statsi_seg = _attach(segments.statsi)
        edgestats_seg = _attach(segments.edgestats)
        segs += [ctrl_seg, meta_seg, data_seg, statsf_seg, statsi_seg,
                 edgestats_seg]
        ctrl = np.frombuffer(ctrl_seg.buf, dtype=np.int64)
        meta = np.frombuffer(meta_seg.buf, dtype=np.int64)
        data = np.frombuffer(data_seg.buf, dtype=dtype)
        statsf = np.frombuffer(statsf_seg.buf,
                               dtype=np.float64).reshape(cfg.nranks, 3)
        statsi = np.frombuffer(statsi_seg.buf,
                               dtype=np.int64).reshape(cfg.nranks, 3)
        nedges = len(edge_specs)
        edgestats = (np.frombuffer(edgestats_seg.buf, dtype=np.int64)
                     [:nedges * 2].reshape(nedges, 2)
                     if nedges else None)
        edge_index = {key: i for i, key in enumerate(sorted(edge_specs))}
        layout = {name: (origin, shp)
                  for name, origin, shp in cfg.field_layout}
        fields: Dict[str, DenseField] = {}
        for name, values_nm, written_nm in segments.fields:
            vseg = _attach(values_nm)
            wseg = _attach(written_nm)
            segs += [vseg, wseg]
            origin, shp = layout[name]
            fields[name] = DenseField(
                origin=origin,
                values=np.frombuffer(vseg.buf, dtype=dtype).reshape(shp),
                written=np.frombuffer(wseg.buf,
                                      dtype=np.uint8).reshape(shp))
        my_edges: Dict[EdgeKey, _Edge] = {
            key: _Edge(espec, meta, data)
            for key, espec in edge_specs.items()
            if key[0] in ranks or key[1] in ranks
        }
        # Shared by the worker's ranks and built before the barrier:
        # it is set-up, not schedule.
        shared = DenseData(program, init_value, dtype, cfg.native,
                           fields=fields)
        # Ready/go barrier: measurement starts once everyone is up.
        ctrl[2 + worker_id] = 1
        while not ctrl[0]:
            if ctrl[1]:
                os._exit(3)
            time.sleep(_SLEEP_MIN)
        t0_ns = time.perf_counter_ns()
        progress = [0]
        ports = {r: _RingPort(
            r, my_edges, spec, cfg.protocol, ctrl, _RankClocks(),
            progress, [] if cfg.collect_trace else None, t0_ns,
            crash=(cfg.crash_rank == r)) for r in ranks}
        gens = {r: _rank_generator(program, plans[r], ports[r], shared,
                                   cfg.overlap) for r in ranks}
        live = list(ranks)
        spins = 0
        last_progress = -1
        while live:
            for r in list(live):
                try:
                    next(gens[r])
                except StopIteration:
                    live.remove(r)
                    progress[0] += 1
            if ctrl[1]:
                raise _Abort
            if progress[0] == last_progress:
                spins += 1
                if spins > _SPIN_PASSES:
                    time.sleep(min(_SLEEP_MAX,
                                   _SLEEP_MIN * (spins - _SPIN_PASSES)))
            else:
                spins = 0
                last_progress = progress[0]
        for r in ranks:
            c = ports[r].clocks
            statsf[r, 0] = c.clock_ns / 1e9
            statsf[r, 1] = c.compute_ns / 1e9
            statsf[r, 2] = c.comm_ns / 1e9
            statsi[r, 0] = c.sends
            statsi[r, 1] = c.recvs
            statsi[r, 2] = c.elems_sent
            if edgestats is not None:
                # Each edge has exactly one sending rank, so this
                # worker is the row's only writer.
                for ekey, msgs in c.edge_msgs.items():
                    row = edge_index[ekey]
                    edgestats[row, 0] = msgs
                    edgestats[row, 1] = c.edge_elems[ekey]
        if cfg.collect_trace and trace_q is not None:
            trace_q.put((worker_id,
                         {r: ports[r].events for r in ranks}))
        os._exit(0)
    except _Abort:
        os._exit(3)
    except BaseException:
        try:
            if segs:
                np.frombuffer(segs[0].buf, dtype=np.int64)[1] = 1
            error_q.put((worker_id, tuple(ranks),
                         traceback.format_exc()))
        finally:
            os._exit(1)


# -- parent driver -------------------------------------------------------------------


def _partition(nranks: int, nworkers: int) -> List[Tuple[int, ...]]:
    """Round-robin ranks over workers (rank i -> worker i % W)."""
    out: List[List[int]] = [[] for _ in range(nworkers)]
    for r in range(nranks):
        out[r % nworkers].append(r)
    return [tuple(x) for x in out]


def _drain_error(error_q: Any, fallback: str) -> str:
    """Best remote traceback available, else the generic message."""
    msg = fallback
    try:
        while not error_q.empty():
            wid, ranks, tb = error_q.get()
            msg = f"worker {wid} (ranks {list(ranks)}) crashed:\n{tb}"
    except Exception:
        pass
    return msg


def _blocked_edge_lines(plans: Dict[int, RankPlan],
                        edges: Dict[EdgeKey, EdgeSpec],
                        meta: np.ndarray,
                        limit: int = 6) -> List[str]:
    """Describe every mailbox edge that has not fully drained: the
    shared head/tail counters name exactly which channel is stuck."""
    counts = edge_tally(plans)
    lines: List[str] = []
    for key in sorted(edges):
        es = edges[key]
        head = int(meta[es.meta_off])
        tail = int(meta[es.meta_off + 1])
        total = counts[key][0]
        if head < total or tail < head:
            lines.append(f"rank {key[0]} -> rank {key[1]} tag "
                         f"{key[2]}: {head}/{total} sent, "
                         f"{tail} consumed")
    if len(lines) > limit:
        lines = lines[:limit] + [f"... and {len(lines) - limit} more"]
    return lines


def _hb_cycle_hint(program: TiledProgram, spec: ClusterSpec,
                   protocol: str, overlap: bool,
                   mailbox_depth: int) -> str:
    """Best-effort HB certificate hint for a timed-out run."""
    try:
        cert = program.hb_certificate(
            protocol=protocol, overlap=overlap,
            mailbox_depth=mailbox_depth, spec=spec)
    except Exception:
        return ""
    if cert.cycle:
        chain = " -> ".join(str(r) for r in cert.cycle)
        return (f"; HB certificate reports a wait cycle among ranks "
                f"{chain} -> {cert.cycle[0]} (HB02) — run 'repro "
                f"analyze --hb' for the full diagnostic")
    if cert.ok:
        return ("; the HB certificate is clean for this "
                "configuration — likely a hang or lost worker, not "
                "a schedule deadlock")
    return ""


def run_parallel(program: TiledProgram, spec: ClusterSpec,
                 init_value: InitFn,
                 workers: Optional[int] = None,
                 dtype: type = np.float64,
                 protocol: str = "spec",
                 mailbox_depth: int = 8,
                 timeout: float = 300.0,
                 trace: Optional[EventTrace] = None,
                 start_method: Optional[str] = None,
                 overlap: bool = False,
                 verify: bool = False,
                 native: Optional["NativeKernelLibrary"] = None,
                 _crash_rank: Optional[int] = None,
                 ) -> Tuple[Dict[str, DenseField], RunStats]:
    """Execute ``program`` with real OS-process parallelism.

    Returns ``(fields, stats)`` exactly like ``execute_dense``, except
    the :class:`RunStats` clocks are *measured* wall-clock seconds per
    rank (compute/comm split measured too; idle = makespan - both).
    ``workers`` caps the number of OS processes (default: one per
    processor, bounded by the host's CPU count; values above the
    processor count are clamped — extra processes would only idle).

    ``overlap=True`` selects the overlapped schedule: each tile runs
    the phases its compile-time overlap plan froze — inside a wavefront
    level the boundary points first; each message is gathered straight
    into its mailbox slot like any send, but as soon as the boundary of
    its last contributing level has run, so consumers drain the ring
    while the interior computes; incoming halos unpack
    lazily, before the first level that reads them.  Results are
    bitwise identical to ``overlap=False`` — only the wall-clock
    schedule changes.

    ``native`` (a ``repro.native`` :class:`NativeKernelLibrary`)
    switches workers' per-tile compute to the compiled shared-object
    kernels over the very same LDS buffers and rings — byte layouts,
    message order and results are unchanged (bitwise).  A fallback
    library or non-float64 ``dtype`` silently keeps numpy compute.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if mailbox_depth < 1:
        raise ValueError("mailbox_depth must be >= 1")
    if verify:
        # Pre-flight: refuse to fork workers into a schedule the HB
        # certifier can prove will race or deadlock under exactly this
        # (protocol, overlap, mailbox_depth) configuration.  Lazy
        # imports — analysis depends on this module.
        cert = program.hb_certificate(
            protocol=protocol, overlap=overlap,
            mailbox_depth=mailbox_depth, spec=spec)
        if not cert.ok:
            from repro.analysis.diagnostics import AnalysisReport
            from repro.analysis.verifier import VerificationError
            report = AnalysisReport()
            report.meta["subject"] = (
                f"parallel run (protocol={protocol}, "
                f"overlap={overlap})")
            report.mark_pass("hb")
            report.extend(cert.diagnostics)
            raise VerificationError(report)
    nranks = program.num_processors
    if workers is None:
        workers = min(nranks, os.cpu_count() or 1)
    workers = max(1, min(int(workers), nranks))
    np_dtype = np.dtype(dtype)

    # Freeze the schedule (and with it every region count) before
    # forking, so children share the stages copy-on-write.
    if overlap:
        prewarm_overlap_plans(program)
    plans = build_rank_plans(program)
    edges = build_edges(plans, mailbox_depth)
    proto_fields = result_fields(program.nest, np_dtype)
    field_layout = [(arr, tuple(f.origin), f.values.shape)
                    for arr, f in proto_fields.items()]

    created: Dict[str, _shm.SharedMemory] = {}

    procs: List[Any] = []
    # All numpy views over the shared segments live in this dict so the
    # cleanup path can drop them before closing the mmaps.
    views: Dict[str, np.ndarray] = {}

    def new_seg(key: str, count: int, dtype: Any = np.int64,
                view: bool = True) -> str:
        """Create a segment of ``count`` elements (at least one: a
        program may have no edge at all), zeroed through its view in
        ``views``; returns its name."""
        seg = _shm.SharedMemory(
            create=True, size=max(1, count) * np.dtype(dtype).itemsize)
        created[key] = seg
        if view:
            views[key] = np.frombuffer(seg.buf, dtype=dtype)
            views[key][:] = 0
        return seg.name

    try:
        segments = _Segments(
            ctrl=new_seg("ctrl", 2 + workers),
            meta=new_seg("meta", sum(2 + e.depth for e in edges.values())),
            # the rings' slots: written before they are read, left to
            # the workers to touch
            data=new_seg("data", sum(e.depth * e.capacity
                                     for e in edges.values()),
                         np_dtype, view=False),
            statsf=new_seg("statsf", nranks * 3, np.float64),
            statsi=new_seg("statsi", nranks * 3),
            edgestats=new_seg("edgestats", len(edges) * 2),
            fields=tuple(
                (arr,
                 new_seg(f"values:{arr}", int(np.prod(shp)), np_dtype),
                 new_seg(f"written:{arr}", int(np.prod(shp)), np.uint8))
                for arr, _origin, shp in field_layout))
        cfg = _RunConfig(
            dtype_str=np_dtype.str, protocol=protocol, nranks=nranks,
            nworkers=workers, collect_trace=trace is not None,
            crash_rank=_crash_rank, overlap=overlap,
            field_layout=tuple(field_layout),
            native=native)

        import multiprocessing as _mp
        methods = _mp.get_all_start_methods()
        method = start_method or (
            "fork" if "fork" in methods else "spawn")
        ctx = get_context(method)
        error_q = ctx.SimpleQueue()
        trace_q = ctx.SimpleQueue() if trace is not None else None
        for wid, ranks in enumerate(_partition(nranks, workers)):
            p = ctx.Process(
                target=_worker_main,
                args=(wid, ranks, program, spec, init_value, plans,
                      edges, segments, cfg, error_q, trace_q),
                daemon=True)
            p.start()
            procs.append(p)

        deadline = time.monotonic() + timeout
        trace_payloads: List[Tuple[int, Dict[int, List[Event]]]] = []

        def watch(phase: str) -> None:
            """Poll for crashes/timeout; raise a clean error if any."""
            # Drain the trace queue continuously: a worker blocking on
            # a full queue pipe while the parent waits for its exit
            # would be a deadlock of our own making.
            if trace_q is not None:
                while not trace_q.empty():
                    trace_payloads.append(trace_q.get())
            if not error_q.empty():
                raise ParallelWorkerError(_drain_error(
                    error_q, "worker reported an error"))
            for p in procs:
                code = p.exitcode
                if code is not None and code not in (0, 3):
                    # Give the error queue a beat to surface the
                    # traceback the dying worker enqueued.
                    time.sleep(_POLL)
                    raise ParallelWorkerError(_drain_error(
                        error_q,
                        f"worker died with exit code {code} during "
                        f"{phase} (no traceback captured)"))
            if time.monotonic() > deadline:
                msg = (f"parallel run did not complete within "
                       f"{timeout:.0f}s during {phase} (hang or "
                       f"deadlock); protocol={protocol!r}")
                stuck = _blocked_edge_lines(plans, edges,
                                            views["meta"])
                if stuck:
                    msg += ("; blocked edges: "
                            + "; ".join(stuck))
                msg += _hb_cycle_hint(program, spec, protocol,
                                      overlap, mailbox_depth)
                raise ParallelTimeoutError(msg)

        while int(views["ctrl"][2:2 + workers].sum()) < workers:
            watch("startup")
            time.sleep(_POLL)
        views["ctrl"][0] = 1  # go
        while any(p.exitcode is None for p in procs):
            watch("execution")
            time.sleep(_POLL)
        watch("shutdown")  # final crash sweep

        # Copy results out of shared memory inside helpers so no numpy
        # view outlives this block (lingering views would prevent the
        # finally-clause from closing the mmaps).
        def collect_stats() -> Tuple[RunStats, int]:
            statsf = views["statsf"].reshape(nranks, 3)
            statsi = views["statsi"].reshape(nranks, 3)
            rank_clocks = {r: float(statsf[r, 0])
                           for r in range(nranks)}
            ekeys = sorted(edges)
            estats = views["edgestats"][:len(ekeys) * 2].reshape(
                len(ekeys), 2) if ekeys else None
            channel_messages = {}
            channel_elements = {}
            if estats is not None:
                for i, key in enumerate(ekeys):
                    channel_messages[key] = int(estats[i, 0])
                    channel_elements[key] = int(estats[i, 1])
            return RunStats(
                makespan=(max(rank_clocks.values())
                          if rank_clocks else 0.0),
                clocks=rank_clocks,
                total_messages=int(statsi[:, 0].sum()),
                total_elements=int(statsi[:, 2].sum()),
                compute_time={r: float(statsf[r, 1])
                              for r in range(nranks)},
                comm_time={r: float(statsf[r, 2])
                           for r in range(nranks)},
                channel_messages=channel_messages,
                channel_elements=channel_elements,
            ), int(statsi[:, 1].sum())

        def collect_field(arr: str, proto: DenseField) -> DenseField:
            return DenseField(
                origin=proto.origin,
                values=views[f"values:{arr}"].reshape(
                    proto.values.shape).copy(),
                written=views[f"written:{arr}"].reshape(
                    proto.values.shape).astype(bool))

        stats, recvs = collect_stats()
        if recvs != stats.total_messages:
            raise ParallelRuntimeError(
                f"unmatched messages: {stats.total_messages} sent, "
                f"{recvs} received")
        fields: Dict[str, DenseField] = {
            arr: collect_field(arr, proto)
            for arr, proto in proto_fields.items()
        }
        if trace is not None and trace_q is not None:
            while not trace_q.empty():
                trace_payloads.append(trace_q.get())
            for _wid, per_rank in sorted(trace_payloads):
                for rank in sorted(per_rank):
                    for kind, a_ns, b_ns, peer, tag, nelems in \
                            per_rank[rank]:
                        trace.record(
                            kind=kind, rank=rank, start=a_ns / 1e9,
                            end=b_ns / 1e9,
                            peer=None if peer < 0 else peer,
                            tag=None if tag < 0 else tag,
                            nelems=nelems, label="measured")
        return fields, stats
    finally:
        if "ctrl" in views:
            views["ctrl"][1] = 1  # abort any survivors before teardown
        for p in procs:
            if p.exitcode is None:
                p.join(timeout=2.0)
            if p.exitcode is None:
                p.terminate()
                p.join(timeout=2.0)
        # Drop every view before closing the mmaps, then release the
        # segments.  On an exception path a traceback can still pin a
        # view through frame references; the mmap then cannot be closed
        # here — neutralise the segment so its __del__ stays silent and
        # let the mapping die with the last view, but always unlink so
        # the name (and the backing pages) are reclaimed.
        views.clear()
        for seg in created.values():
            try:
                seg.close()
            except BufferError:
                seg._buf = None      # type: ignore[attr-defined]
                seg._mmap = None     # type: ignore[attr-defined]
                try:
                    os.close(seg._fd)    # type: ignore[attr-defined]
                    seg._fd = -1         # type: ignore[attr-defined]
                except OSError:
                    pass
            try:
                seg.unlink()
            except Exception:
                pass
