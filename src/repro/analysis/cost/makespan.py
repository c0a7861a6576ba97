"""COST03: critical-path makespan — the static replay with a clock.

:func:`~repro.analysis.hb.graph.replay` executes the happens-before
graph of the *blocking* schedule (the one
:meth:`DistributedRun.simulate` executes) under the simulator's
unbounded buffering; the hook below advances one clock per rank with
the simulator's exact per-event arithmetic — same Hockney model, same
protocol decisions, same floating-point operation order per rank — so
on any configuration the simulator can run, the analytic makespan is
bitwise equal to the simulated one.  That is the property the
exactness tests pin; the documented tolerance (``1e-12`` relative) only
covers future re-orderings of the per-rank accumulation.

Event weights:

* ``COMPUTE`` — ``compute_time(points) * f`` (per-rank speed factor);
* ``RECV`` — wait for the matched send (eager: arrival; rendezvous:
  ``max(clock, ready) + transfer``), then unpack at ``pack_time``;
* ``SEND`` — pack at ``pack_time``, then eager (blocking transfer or
  latency-only under ``spec.overlap``) or park for rendezvous;
* ``SENDWAIT`` — jump to the rendezvous completion computed at the
  matching receive.

A schedule the HB certifier would flag (HB02 cycle) makes the replay
stall; the result is then an infinite makespan plus a ``stuck`` flag —
``certify_cost`` turns that into a COST03 diagnostic instead of
raising, mirroring the simulator's :class:`DeadlockError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.analysis.hb.graph import (
    COMPUTE,
    RECV,
    SEND,
    Chan,
    HBGraph,
    build_hb_graph,
    replay,
)
from repro.runtime.machine import FAST_ETHERNET_CLUSTER, ClusterSpec

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram


@dataclass(frozen=True)
class SweepResult:
    """Per-rank clocks of the analytic critical-path sweep."""

    makespan: float
    clocks: Tuple[float, ...]
    compute_time: Tuple[float, ...]     # incl. pack, as the simulator
    comm_time: Tuple[float, ...]
    tile_compute_time: Tuple[float, ...]  # COMPUTE events only
    stuck: bool                         # sweep deadlocked (HB02 cycle)
    stuck_ranks: Tuple[int, ...]


def analytic_makespan(program: "TiledProgram",
                      spec: Optional[ClusterSpec] = None,
                      protocol: str = "eager",
                      mailbox_depth: int = 8,
                      mutation: Optional[str] = None,
                      graph: Optional[HBGraph] = None) -> SweepResult:
    """Longest-path sweep of the blocking-schedule HB graph."""
    if spec is None:
        spec = FAST_ETHERNET_CLUSTER
    if graph is None:
        graph = build_hb_graph(program, protocol=protocol,
                               overlap=False,
                               mailbox_depth=mailbox_depth, spec=spec)
    swap = mutation == "swapped_edge_weight"

    def w_compute(points: int) -> float:
        # Seeded bug: compute edges weighted with the network model.
        return (spec.message_time(points) if swap
                else spec.compute_time(points))

    def w_transfer(nelems: int) -> float:
        return (spec.compute_time(nelems) if swap
                else spec.message_time(nelems))

    nranks = graph.nranks
    events = graph.events
    speed = [spec.node_speed_factor(r) for r in range(nranks)]
    clock = [0.0] * nranks
    compute = [0.0] * nranks
    comm = [0.0] * nranks
    tile_compute = [0.0] * nranks
    # Per message, keyed by its (channel, FIFO position) — what a send,
    # its receive and its SENDWAIT share.
    arrival: Dict[Tuple[Chan, int], float] = {}     # eager: arrival time
    ready: Dict[Tuple[Chan, int], float] = {}       # rendezvous: park time
    completion: Dict[Tuple[Chan, int], float] = {}  # rendezvous: match end

    def tick(eid: int) -> None:
        """Advance the event's rank clock; ``replay`` calls this only
        after every event this one waits on."""
        ev = events[eid]
        rank = ev.rank
        f = speed[rank]
        if ev.kind == COMPUTE:
            w = w_compute(program.tiling.tile_point_count(ev.tile)) * f
            clock[rank] += w
            compute[rank] += w
            tile_compute[rank] += w
            return
        assert ev.chan is not None
        msg = (ev.chan, ev.chanpos)
        if ev.kind == SEND:
            pack = spec.pack_time(ev.nelems) * f
            clock[rank] += pack
            compute[rank] += pack
            if spec.uses_rendezvous(protocol, ev.nelems):
                ready[msg] = clock[rank]
            elif spec.overlap:
                start = clock[rank]
                clock[rank] += spec.net_latency
                arrival[msg] = start + w_transfer(ev.nelems)
                comm[rank] += spec.net_latency
            else:
                clock[rank] += w_transfer(ev.nelems)
                arrival[msg] = clock[rank]
                comm[rank] += w_transfer(ev.nelems)
        elif ev.kind == RECV:
            if msg in ready:
                end = max(clock[rank], ready[msg]) + w_transfer(ev.nelems)
                completion[msg] = end
            else:
                end = max(clock[rank], arrival[msg])
            comm[rank] += end - clock[rank]
            clock[rank] = end
            pack = spec.pack_time(ev.nelems) * f
            clock[rank] += pack
            compute[rank] += pack
        else:                               # SENDWAIT
            end = completion[msg]
            comm[rank] += end - clock[rank]
            clock[rank] = end

    res = replay(graph, bounded=False, visit=tick)
    return SweepResult(
        makespan=(float("inf") if not res.completed
                  else max(clock) if clock else 0.0),
        clocks=tuple(clock),
        compute_time=tuple(compute),
        comm_time=tuple(comm),
        tile_compute_time=tuple(tile_compute),
        stuck=not res.completed,
        stuck_ranks=tuple(sorted(res.blocked)),
    )
