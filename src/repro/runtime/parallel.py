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

Per-rank timings are spans on one clock.  Each rank appends one row
``(kind, start_ns, end_ns, peer, tag, nelems)`` per receive, send,
compute and rendezvous wait, and one ``end`` row, all counted from the
go instant the parent writes into ``ctrl[0]`` — so the spans of two
workers compare directly and a receive never ends before its send
started.  After its scheduler loop a worker copies its ranks' rows into
their blocks of the one shared ``spans`` segment (sized from the rank
plans), and after join :func:`_decode_spans` turns that segment into
the :class:`RunStats`, the per-channel message check and, when one is
asked for, the :class:`EventTrace`.  The split is exact when ``workers
>= processors`` (the measurement configuration); with fewer workers the
ranks sharing a process also share its CPU time, so the per-rank split
becomes an attribution, not a measurement.
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
Span = Tuple[int, int, int, int, int, int]

#: Span kinds (column 0); 0 marks a row the rank never wrote.
_RECV, _SEND, _COMPUTE, _WAIT, _END = range(1, 6)
#: The kinds a measured :class:`EventTrace` carries, by name.
_TRACED = {_RECV: "recv", _SEND: "send", _COMPUTE: "compute"}

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
    spans: str                      # int64 (rows, 6): every rank's spans
    fields: Tuple[Tuple[str, str, str], ...]   # (array, values, written)


@dataclass(frozen=True)
class _RunConfig:
    dtype_str: str
    protocol: str                       # "eager" | "rendezvous" | "spec"
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


def span_blocks(plans: Dict[int, RankPlan]) -> np.ndarray:
    """Row offsets of every rank's block in the ``spans`` segment
    (``nranks + 1`` of them): a compute span per tile, one per receive,
    a send and at most one rendezvous wait per send, and the end row."""
    rows = [len(plans[r].tiles) + sum(map(len, plans[r].recvs))
            + 2 * sum(map(len, plans[r].sends)) + 1
            for r in range(len(plans))]
    return np.concatenate(([0], np.cumsum(rows, dtype=np.int64)))


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
class _RingPort:
    """Shared-memory transport of one rank — the ring port of
    :func:`~repro.runtime.rankstep.rank_walk` (its module docstring has
    the port table).  The walk says *what* happens next; the port owns
    *how*: the rings, what to take early or drain while blocked, and
    every clock.

    Every method that may block is a generator yielding exactly while
    a mailbox ring would block, letting the worker scheduler run its
    other ranks.  Wall time is measured only here, as one :data:`Span`
    per step appended to :attr:`spans`.
    """

    rank: int
    edges: Dict[EdgeKey, _Edge]
    spec: ClusterSpec
    protocol: str                       # "eager" | "rendezvous" | "spec"
    ctrl: np.ndarray                    # shared flags; [1] = abort
    progress: List[int]                 # the worker's progress counter
    t0_ns: int                          # the run's go instant
    crash: bool                         # test hook, see crash_point
    spans: List[Span] = field(default_factory=list)
    # The open tile of the overlapped schedule: its start and the
    # receives not yet taken (plan order).
    tile0_ns: int = 0
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

    def take(self, r: TileRecv, edge: _Edge, unpack: Unpack,
             w0: int) -> None:
        """Unpack the (already arrived) head message of ``edge``
        zero-copy — scatter straight out of the ring slot, then release
        it — and record its span from ``w0``, when the wait for it
        began."""
        unpack(edge.peek())
        edge.release()
        self.progress[0] += 1
        self.spans.append((_RECV, w0, self.now(), r.src_rank, r.tag,
                           r.nelems))

    # -- the steps of rank_walk ------------------------------------------------------

    def recv(self, tile: Tile, r: TileRecv, unpack: Unpack) -> Steps:
        """Wait for the halo and take it — on the overlapped schedule
        taking deferred halos of other edges meanwhile."""
        if self.due is not None and self.due.pop(id(r), None) is None:
            return                      # taken at tile start or by a drain
        edge = self.in_edge(r)
        w0 = self.now()
        while not edge.can_pop():
            self.check_abort()
            if self.due is None or not self.drain_ready(busy=edge):
                yield
        self.take(r, edge, unpack, w0)

    def compute(self, tile: Tile, points: int,
                run: Callable[[], None]) -> Tuple[()]:
        c0 = self.now()
        run()
        self.spans.append((_COMPUTE, c0, self.now(), -1, -1, 0))
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
        self.spans.append((_SEND, w0, self.now(), s.dst_rank, s.tag,
                           s.nelems))

    def complete(self, tile: Tile, s: TileSend) -> Steps:
        """Rendezvous completion of the rank's latest message on the
        edge — at the tile end on the overlapped schedule, so the
        interior compute overlapped the receiver's drain."""
        if self.spec.uses_rendezvous(self.protocol, s.nelems):
            w0 = self.now()
            yield from self.wait(self.out_edge(s).drained)
            self.spans.append((_WAIT, w0, self.now(), s.dst_rank, s.tag,
                               s.nelems))

    # -- the tile bracket of the overlapped schedule ---------------------------------

    def open_tile(self, tile: Tile, recvs: Sequence[TileRecv],
                  unpacks: Sequence[Unpack]) -> None:
        """Tile start: take every halo that already arrived; the rest
        stay :attr:`due` until the walk reaches the phase that reads
        them."""
        self.tile0_ns = self.now()
        self.crash_point()              # tile open, nothing published
        self.due = {id(r): (r, self.in_edge(r), unpack)
                    for r, unpack in zip(recvs, unpacks)}
        self.drain_ready()

    def drain_ready(self, busy: Optional[_Edge] = None) -> bool:
        """Take arrived-but-deferred halos (first remaining message per
        edge only — rings are FIFO; ``busy``'s head belongs to the
        receive waiting on it).  Also run while blocked on any ring, so
        the lazy receives can never introduce a wait cycle the blocking
        schedule does not have, and whether a run completes does not
        depend on which halos happened to arrive before a tile
        opened."""
        assert self.due is not None
        did = False
        blocked: Set[_Edge] = set() if busy is None else {busy}
        for key, (r, edge, unpack) in list(self.due.items()):
            if edge not in blocked and edge.can_pop():
                del self.due[key]
                self.take(r, edge, unpack, self.now())
                did = True
            else:
                blocked.add(edge)
        return did

    def close_tile(self, tile: Tile) -> None:
        """The tile span; :func:`_decode_spans` attributes it to
        compute minus the receives and sends recorded inside it."""
        self.spans.append((_COMPUTE, self.tile0_ns, self.now(), -1, -1, 0))


def _rank_generator(program: TiledProgram, plan: RankPlan,
                    port: _RingPort, data: DenseData,
                    overlap: bool) -> Steps:
    """One rank's node program as a cooperative generator: the walk
    over the ring port, its end row (the rank's clock), then the
    (untimed) write-back."""
    lds = data.rank(plan.pid)
    yield from rank_walk(program, plan, port, lds, overlap)
    end = port.now()
    port.spans.append((_END, end, end, -1, -1, 0))
    lds.write_back(plan.tiles)


def _decode_spans(spans: np.ndarray, blocks: np.ndarray, overlap: bool,
                  trace: Optional[EventTrace] = None) -> RunStats:
    """The measured :class:`RunStats` of a run's ``spans`` segment
    (rank ``r`` wrote rows ``blocks[r]:blocks[r + 1]`` in record
    order; unwritten rows have kind 0).

    Clocks are the ``end`` rows; comm is receives + sends + rendezvous
    waits; compute is the compute spans — on the overlapped schedule
    each is a whole tile span, and every receive and send of the rank
    lies inside one, so those are subtracted.  Channel counts come from
    the send rows and must equal the receive rows channel by channel.
    ``trace`` (when given) gets the receive, send and compute spans in
    per-rank record order, label ``"measured"``.
    """
    nranks = len(blocks) - 1
    owner = np.repeat(np.arange(nranks), np.diff(blocks))
    written = spans[:, 0] != 0
    rows, owner = spans[written], owner[written]
    kind, start, end, peer, tag, nelems = rows.T

    def per_rank(*kinds: int) -> np.ndarray:
        pick = np.isin(kind, kinds)
        return np.bincount(owner[pick], weights=(end - start)[pick],
                           minlength=nranks) / 1e9

    compute = per_rank(_COMPUTE)
    if overlap:
        compute -= per_rank(_RECV, _SEND)
    clocks = np.zeros(nranks)
    last = kind == _END
    clocks[owner[last]] = end[last] / 1e9

    def channels(pick: np.ndarray, src: np.ndarray, dst: np.ndarray
                 ) -> Tuple[Dict[EdgeKey, int], Dict[EdgeKey, int]]:
        keys = np.stack([src[pick], dst[pick], tag[pick]], axis=1)
        chans, inv, counts = np.unique(keys, axis=0, return_inverse=True,
                                       return_counts=True)
        elems = np.bincount(inv.ravel(), weights=nelems[pick],
                            minlength=len(chans))
        as_key = [(s, d, t) for s, d, t in chans.tolist()]
        return (dict(zip(as_key, counts.tolist())),
                dict(zip(as_key, elems.astype(np.int64).tolist())))

    messages, elements = channels(kind == _SEND, owner, peer)
    received, _ = channels(kind == _RECV, peer, owner)
    if received != messages:
        chan = min(k for k in messages.keys() | received.keys()
                   if messages.get(k) != received.get(k))
        raise ParallelRuntimeError(
            f"unmatched messages on channel (src, dst, tag) = {chan}: "
            f"{messages.get(chan, 0)} sent, {received.get(chan, 0)} "
            f"received")
    if trace is not None:
        traced = np.isin(kind, list(_TRACED))
        for k, r, a, b, p, t, n in zip(
                *(col[traced].tolist()
                  for col in (kind, owner, start, end, peer, tag, nelems))):
            trace.record(kind=_TRACED[k], rank=r, start=a / 1e9,
                         end=b / 1e9, peer=None if p < 0 else p,
                         tag=None if t < 0 else t, nelems=n,
                         label="measured")
    return RunStats(
        makespan=float(clocks.max(initial=0.0)),
        clocks=dict(enumerate(clocks.tolist())),
        total_messages=sum(messages.values()),
        total_elements=sum(elements.values()),
        compute_time=dict(enumerate(compute.tolist())),
        comm_time=dict(enumerate(per_rank(_RECV, _SEND, _WAIT).tolist())),
        channel_messages=messages,
        channel_elements=elements,
    )


def _worker_main(worker_id: int, ranks: Tuple[int, ...],
                 program: TiledProgram, spec: ClusterSpec,
                 init_value: InitFn, plans: Dict[int, RankPlan],
                 edge_specs: Dict[EdgeKey, EdgeSpec], blocks: np.ndarray,
                 segments: _Segments, cfg: _RunConfig,
                 error_q: Any) -> None:
    """Entry point of one worker process: run ``ranks`` cooperatively,
    then copy their spans into their ``blocks`` of the spans segment.

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
        spans_seg = _attach(segments.spans)
        segs += [ctrl_seg, meta_seg, data_seg, spans_seg]
        ctrl = np.frombuffer(ctrl_seg.buf, dtype=np.int64)
        meta = np.frombuffer(meta_seg.buf, dtype=np.int64)
        data = np.frombuffer(data_seg.buf, dtype=dtype)
        spans = np.frombuffer(spans_seg.buf, dtype=np.int64).reshape(-1, 6)
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
        # Ready/go barrier: measurement starts once everyone is up, on
        # the one clock whose origin the parent's go writes.
        ctrl[2 + worker_id] = 1
        while not ctrl[0]:
            if ctrl[1]:
                os._exit(3)
            time.sleep(_SLEEP_MIN)
        progress = [0]
        ports = {r: _RingPort(
            r, my_edges, spec, cfg.protocol, ctrl, progress, int(ctrl[0]),
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
            # the rank's block is its own: a rank that wrote more rows
            # than its plan allows fails the shape check here
            rows = ports[r].spans
            spans[blocks[r]:blocks[r + 1]][:len(rows)] = rows
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

    # Freeze the schedule (and with it every region count) and the halo
    # tables before forking, so children share the stages copy-on-write.
    if overlap:
        prewarm_overlap_plans(program)
    plans = build_rank_plans(program)
    program.stage("halo_tables")
    edges = build_edges(plans, mailbox_depth)
    blocks = span_blocks(plans)
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
            spans=new_seg("spans", int(blocks[-1]) * 6),
            fields=tuple(
                (arr,
                 new_seg(f"values:{arr}", int(np.prod(shp)), np_dtype),
                 new_seg(f"written:{arr}", int(np.prod(shp)), np.uint8))
                for arr, _origin, shp in field_layout))
        cfg = _RunConfig(
            dtype_str=np_dtype.str, protocol=protocol,
            crash_rank=_crash_rank, overlap=overlap,
            field_layout=tuple(field_layout),
            native=native)

        import multiprocessing as _mp
        methods = _mp.get_all_start_methods()
        method = start_method or (
            "fork" if "fork" in methods else "spawn")
        ctx = get_context(method)
        error_q = ctx.SimpleQueue()
        for wid, ranks in enumerate(_partition(nranks, workers)):
            p = ctx.Process(
                target=_worker_main,
                args=(wid, ranks, program, spec, init_value, plans,
                      edges, blocks, segments, cfg, error_q),
                daemon=True)
            p.start()
            procs.append(p)

        deadline = time.monotonic() + timeout

        def watch(phase: str) -> None:
            """Poll for crashes/timeout; raise a clean error if any."""
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
        # go: the instant every worker's clock counts from
        views["ctrl"][0] = time.perf_counter_ns()
        while any(p.exitcode is None for p in procs):
            watch("execution")
            time.sleep(_POLL)
        watch("shutdown")  # final crash sweep

        # Copy results out of shared memory inside helpers so no numpy
        # view outlives this block (lingering views would prevent the
        # finally-clause from closing the mmaps).
        def collect_field(arr: str, proto: DenseField) -> DenseField:
            return DenseField(
                origin=proto.origin,
                values=views[f"values:{arr}"].reshape(
                    proto.values.shape).copy(),
                written=views[f"written:{arr}"].reshape(
                    proto.values.shape).astype(bool))

        stats = _decode_spans(views["spans"].reshape(-1, 6), blocks,
                              overlap, trace)
        fields: Dict[str, DenseField] = {
            arr: collect_field(arr, proto)
            for arr, proto in proto_fields.items()
        }
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
