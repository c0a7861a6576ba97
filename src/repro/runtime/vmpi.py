"""Virtual MPI: blocking message passing on a discrete-event simulator.

Node programs are Python generators that yield :class:`Send`,
:class:`Recv` and :class:`Compute` requests; the :class:`VirtualMPI`
engine advances per-rank clocks and matches messages with MPI point-to-
point semantics (FIFO per ``(source, dest, tag)``, blocking receives).

Two send protocols are modelled:

* ``overlap=False`` (default, the paper's scheme): ``Send`` blocks the
  sender for the whole ``alpha + s/beta`` transfer — the behaviour of a
  blocking ``MPI_Send`` pushing through a kernel TCP stack on
  FastEthernet-era hardware.
* ``overlap=True`` (the future-work extension): the sender pays only
  the startup ``alpha`` and the transfer completes in the background.

Which messages wait for their receive (rendezvous) is the
``protocol`` a :class:`VirtualMPI` is built with, decided per message
by :meth:`ClusterSpec.uses_rendezvous` (default ``"spec"``: the
spec's ``rendezvous_threshold``).

The engine is deterministic: given the same programs it always produces
the same clocks, which makes simulated "measurements" reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.runtime.machine import ClusterSpec
from repro.runtime.trace import EventTrace


class DeadlockError(RuntimeError):
    """All live ranks are blocked on receives that can never match;
    ``ranks`` names them, in rank order."""

    def __init__(self, message: str, ranks: Tuple[int, ...] = ()):
        super().__init__(message)
        self.ranks = ranks


@dataclass(frozen=True)
class Send:
    """Yield to transmit ``nelems`` elements (+ optional real payload)."""

    dest: int
    tag: int
    nelems: int
    payload: Any = None


@dataclass(frozen=True)
class Recv:
    """Yield to block until a matching message arrives.

    The generator receives ``(payload, nelems)`` as the value of the
    ``yield`` expression.
    """

    source: int
    tag: int


@dataclass(frozen=True)
class Compute:
    """Yield to advance the local clock by ``seconds`` of CPU work."""

    seconds: float


@dataclass
class _Message:
    arrival: float
    nelems: int
    payload: Any
    seq: int = 0


@dataclass
class _PendingSend:
    """A rendezvous send waiting for its receive to be posted."""

    proc: _Proc
    nelems: int
    payload: Any
    ready: float      # sender clock at the yield
    seq: int


@dataclass
class _Proc:
    rank: int
    gen: Generator
    clock: float = 0.0
    blocked_on: Optional[Tuple[int, int]] = None  # (source, tag)
    send_parked: bool = False                      # rendezvous handshake
    done: bool = False
    sends: int = 0
    recvs: int = 0
    compute_time: float = 0.0
    comm_time: float = 0.0


class VirtualMPI:
    """Run a set of rank programs to completion under the cost model."""

    def __init__(self, spec: ClusterSpec,
                 programs: Dict[int, Callable[[RankApi], Generator]],
                 trace: Optional[EventTrace] = None,
                 protocol: str = "spec"):
        self.spec = spec
        self.trace = trace
        self.protocol = protocol
        self._procs: Dict[int, _Proc] = {}
        for rank, prog in programs.items():
            gen = prog(RankApi(rank))
            self._procs[rank] = _Proc(rank=rank, gen=gen)
        # Event heaps keyed by (source, dest, tag).  Every entry is a
        # ``(seq, item)`` pair under a single monotonic sequence
        # counter: the heap orders on ``seq`` alone (unique by
        # construction), so two simultaneous sends can never fall
        # through to comparing message/request payloads — a latent
        # ``TypeError`` (payload arrays) and ordering hazard.  Since
        # ``seq`` increases with issue order, heap order == FIFO order,
        # preserving MPI point-to-point semantics.
        self._queues: Dict[Tuple[int, int, int],
                           List[Tuple[int, _Message]]] = {}
        # Rendezvous sends parked until the receive is posted.
        self._pending: Dict[Tuple[int, int, int],
                            List[Tuple[int, _PendingSend]]] = {}
        self._seq = 0
        self.total_messages = 0
        self.total_elements = 0
        # Per-channel accounting, keyed (source, dest, tag) exactly
        # like the queues: the static cost certifier asserts equality
        # against these (COST01), so they must count every send.
        self.channel_messages: Dict[Tuple[int, int, int], int] = {}
        self.channel_elements: Dict[Tuple[int, int, int], int] = {}

    # -- main loop ------------------------------------------------------------------

    def run(self) -> RunStats:
        live = set(self._procs.keys())
        while live:
            progressed = False
            for rank in sorted(live):
                proc = self._procs[rank]
                if proc.done:
                    continue
                if self._step_until_blocked(proc):
                    progressed = True
                if proc.done:
                    live.discard(rank)
            if live and not progressed:
                blocked = {
                    r: (self._procs[r].blocked_on
                        if not self._procs[r].send_parked
                        else "rendezvous-send")
                    for r in sorted(live)
                }
                raise DeadlockError(
                    f"no rank can progress; blocked operations: {blocked}",
                    tuple(blocked))
        return self.stats()

    def _step_until_blocked(self, proc: _Proc) -> bool:
        """Advance one rank until it finishes or truly blocks.

        Returns True if any progress was made.
        """
        progressed = False
        send_value: Any = None
        if proc.send_parked:
            # Waiting for a receiver to complete the rendezvous; the
            # matcher in _try_deliver clears this flag.
            return False
        # If resuming from a blocked recv, try to deliver first.
        if proc.blocked_on is not None:
            delivered = self._try_deliver(proc)
            if delivered is None:
                return False
            send_value = delivered
            proc.blocked_on = None
            progressed = True
        while True:
            try:
                req = proc.gen.send(send_value)
            except StopIteration:
                proc.done = True
                return True
            send_value = None
            if isinstance(req, Compute):
                start = proc.clock
                proc.clock += req.seconds
                proc.compute_time += req.seconds
                if self.trace is not None and req.seconds > 0:
                    self.trace.record(kind="compute", rank=proc.rank,
                                      start=start, end=proc.clock)
                progressed = True
            elif isinstance(req, Send):
                parked = self._do_send(proc, req)
                progressed = True
                if parked:
                    return progressed
            elif isinstance(req, Recv):
                proc.blocked_on = (req.source, req.tag)
                delivered = self._try_deliver(proc)
                if delivered is None:
                    return progressed
                send_value = delivered
                proc.blocked_on = None
                progressed = True
            else:
                raise TypeError(f"rank {proc.rank} yielded {req!r}")

    # -- send / recv mechanics ------------------------------------------------------------

    def _do_send(self, proc: _Proc, req: Send) -> bool:
        """Issue a send; returns True if the sender parked (rendezvous)."""
        spec = self.spec
        self._seq += 1
        key = (proc.rank, req.dest, req.tag)
        self.channel_messages[key] = self.channel_messages.get(key, 0) + 1
        self.channel_elements[key] = (
            self.channel_elements.get(key, 0) + req.nelems)
        if spec.uses_rendezvous(self.protocol, req.nelems):
            # Synchronous protocol: the transfer cannot start before the
            # receive is posted; the matcher completes both sides.
            heapq.heappush(
                self._pending.setdefault(key, []),
                (self._seq, _PendingSend(
                    proc=proc, nelems=req.nelems, payload=req.payload,
                    ready=proc.clock, seq=self._seq)))
            proc.send_parked = True
            proc.sends += 1
            self.total_messages += 1
            self.total_elements += req.nelems
            return True
        t_xfer = spec.message_time(req.nelems)
        start = proc.clock
        if spec.overlap:
            proc.clock += spec.net_latency
            arrival = start + t_xfer
            proc.comm_time += spec.net_latency
        else:
            proc.clock += t_xfer
            arrival = proc.clock
            proc.comm_time += t_xfer
        heapq.heappush(
            self._queues.setdefault(key, []),
            (self._seq, _Message(arrival=arrival, nelems=req.nelems,
                                 payload=req.payload, seq=self._seq)))
        proc.sends += 1
        self.total_messages += 1
        self.total_elements += req.nelems
        if self.trace is not None:
            self.trace.record(
                kind="send", rank=proc.rank, start=start, end=proc.clock,
                peer=req.dest, tag=req.tag, nelems=req.nelems,
            )
        return False

    def _try_deliver(self, proc: _Proc) -> Optional[Tuple[Any, int]]:
        assert proc.blocked_on is not None
        source, tag = proc.blocked_on
        key = (source, proc.rank, tag)
        queue = self._queues.get(key)
        pending = self._pending.get(key)
        # Strict FIFO per (source, dest, tag): match whichever protocol
        # holds the oldest outstanding send (heap roots carry the
        # smallest sequence numbers).
        eager_seq = queue[0][0] if queue else None
        rdv_seq = pending[0][0] if pending else None
        if eager_seq is None and rdv_seq is None:
            return None
        if rdv_seq is not None and (eager_seq is None or rdv_seq < eager_seq):
            assert pending is not None
            _, ps = heapq.heappop(pending)
            start = proc.clock
            t_xfer = self.spec.message_time(ps.nelems)
            end = max(proc.clock, ps.ready) + t_xfer
            proc.clock = end
            proc.comm_time += end - start
            sender = ps.proc
            s_start = sender.clock
            sender.clock = end
            sender.comm_time += end - s_start
            sender.send_parked = False
            proc.recvs += 1
            if self.trace is not None:
                self.trace.record(
                    kind="send", rank=sender.rank, start=s_start, end=end,
                    peer=proc.rank, tag=tag, nelems=ps.nelems)
                self.trace.record(
                    kind="recv", rank=proc.rank, start=start, end=end,
                    peer=source, tag=tag, nelems=ps.nelems)
            return (ps.payload, ps.nelems)
        assert queue is not None
        _, msg = heapq.heappop(queue)
        start = proc.clock
        proc.clock = max(proc.clock, msg.arrival)
        wait = proc.clock - start
        proc.comm_time += wait
        proc.recvs += 1
        if self.trace is not None:
            self.trace.record(
                kind="recv", rank=proc.rank, start=start, end=proc.clock,
                peer=source, tag=tag, nelems=msg.nelems,
            )
        return (msg.payload, msg.nelems)

    # -- results ---------------------------------------------------------------------

    def stats(self) -> RunStats:
        clocks = {r: p.clock for r, p in self._procs.items()}
        return RunStats(
            makespan=max(clocks.values()) if clocks else 0.0,
            clocks=clocks,
            total_messages=self.total_messages,
            total_elements=self.total_elements,
            compute_time={r: p.compute_time for r, p in self._procs.items()},
            comm_time={r: p.comm_time for r, p in self._procs.items()},
            channel_messages=dict(self.channel_messages),
            channel_elements=dict(self.channel_elements),
        )


@dataclass(frozen=True)
class RankApi:
    """Handle passed to each node program (its 'MPI_Comm_rank')."""

    rank: int


@dataclass(frozen=True)
class RunStats:
    """Outcome of a simulated run."""

    makespan: float
    clocks: Dict[int, float]
    total_messages: int
    total_elements: int
    compute_time: Dict[int, float]
    comm_time: Dict[int, float]
    #: Messages / elements sent per ``(source, dest, tag)`` channel.
    #: Empty when the producing engine predates the counters (old
    #: pickles); both engines and the cost certifier fill them.
    channel_messages: Dict[Tuple[int, int, int], int] = \
        field(default_factory=dict)
    channel_elements: Dict[Tuple[int, int, int], int] = \
        field(default_factory=dict)

    def efficiency(self) -> float:
        """Mean fraction of the makespan spent computing."""
        if not self.clocks or self.makespan == 0:
            return 0.0
        total = sum(self.compute_time.values())
        return total / (len(self.clocks) * self.makespan)
