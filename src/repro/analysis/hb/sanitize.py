"""Dynamic trace sanitizer: replay a measured run against the HB graph.

Layer 3 of the HB certifier (HB04): ``repro sanitize`` loads an
:class:`~repro.runtime.trace.EventTrace` measured by the parallel
runtime (``repro run --parallel --trace-out ...``) and replays it
against the statically certified happens-before graph of the same
program/protocol/overlap configuration.  Any event observed out of
certified order — a missing or surplus message, a send or receive on
the wrong channel or with the wrong payload size, a receive completing
before its matching send started, an overlap tile whose commit order
diverges from the plan — is reported as an ``HB04`` diagnostic.  This
gives the concurrent runtime a ThreadSanitizer-style oracle: the
static certificate says the schedule *as compiled* is safe, the
sanitizer says the run *as executed* stayed inside it.

What "in certified order" means per mode (matching how the workers
append events — per-rank record order is program order):

* blocking — the measured per-rank sequence must equal the HB graph's
  per-rank program order exactly (receives, compute, sends per tile;
  SENDWAIT events have no trace record: the runtime measures a
  rendezvous wait as its own span, counted as comm in the run's
  ``RunStats`` but left out of the trace);
* overlap — within each tile's event group the compute record comes
  last (the runtime emits one compute span per tile at tile end),
  sends appear in plan order (commits walk the plan FIFO), and
  receives are a permutation of the plan's receives that preserves
  per-channel FIFO order (rings deliver in order; the drain loop may
  interleave channels).

Cross-rank, the k-th receive on every channel must match the k-th
send's element count and must not complete before that send started.
Every worker counts its timestamps from the one go instant the parent
wrote, so this check is exact too: a message is committed after its
send started and taken after it was committed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import (
    ERROR,
    AnalysisReport,
    Diagnostic,
)
from repro.analysis.hb.graph import (
    COMPUTE,
    PASS_HB,
    RECV,
    SEND,
    SENDWAIT,
    HBEvent,
    build_hb_graph,
)
from repro.runtime.trace import EventTrace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.machine import ClusterSpec
    from repro.runtime.executor import TiledProgram

_MAX_DIAGS_PER_RANK = 4


def _hb04(message: str, *, rank: Optional[int] = None,
          suggestion: str = "") -> Diagnostic:
    subject: Tuple[Tuple[str, object], ...] = ()
    if rank is not None:
        subject = (("rank", rank),)
    return Diagnostic(
        code="HB04", severity=ERROR, pass_name=PASS_HB,
        message=message,
        equation="measured per-rank event order must be a linear "
                 "extension of the certified HB graph",
        subject=subject,
        suggestion=suggestion or (
            "re-measure with a matching --protocol/--overlap, or "
            "investigate the runtime if the flags already match"),
    )


def _fmt_static(ev: HBEvent) -> str:
    if ev.kind == COMPUTE:
        return f"compute(tile={ev.tile})"
    return (f"{ev.kind}(peer={ev.peer}, tag={ev.tag}, "
            f"nelems={ev.nelems})")


def _fmt_measured(ev: TraceEvent) -> str:
    if ev.kind == "compute":
        return "compute"
    return (f"{ev.kind}(peer={ev.peer}, tag={ev.tag}, "
            f"nelems={ev.nelems})")


def _match(measured: TraceEvent, expect: HBEvent) -> bool:
    if measured.kind != expect.kind:
        return False
    if expect.kind == COMPUTE:
        return True
    return (measured.peer == expect.peer
            and measured.tag == expect.tag
            and measured.nelems == expect.nelems)


def _check_rank_blocking(rank: int, measured: List[TraceEvent],
                         expected: List[HBEvent],
                         out: List[Diagnostic]) -> None:
    for i, (m, e) in enumerate(zip(measured, expected)):
        if not _match(m, e):
            out.append(_hb04(
                f"rank {rank} event {i} out of certified order: "
                f"measured {_fmt_measured(m)}, certified "
                f"{_fmt_static(e)}", rank=rank))
            if len(out) >= _MAX_DIAGS_PER_RANK:
                return


def _check_rank_overlap(rank: int, measured: List[TraceEvent],
                        expected: List[HBEvent],
                        out: List[Diagnostic]) -> None:
    """Per-tile group check: compute last, sends in plan order,
    receives per-channel FIFO."""
    # Group the static order by tile index (tix is monotone per rank).
    groups: List[List[HBEvent]] = []
    for ev in expected:
        if not groups or groups[-1][0].tix != ev.tix:
            groups.append([ev])
        else:
            groups[-1].append(ev)
    pos = 0
    for group in groups:
        chunk = measured[pos:pos + len(group)]
        pos += len(group)
        tile = group[0].tile
        if len(chunk) < len(group):
            return  # count mismatch already reported
        if chunk[-1].kind != "compute":
            out.append(_hb04(
                f"rank {rank} tile {tile}: expected the compute "
                f"record last in the tile group, found "
                f"{_fmt_measured(chunk[-1])}", rank=rank))
            return
        sends_m = [m for m in chunk if m.kind == "send"]
        sends_e = [e for e in group if e.kind == SEND]
        for k, (m, e) in enumerate(zip(sends_m, sends_e)):
            if not _match(m, e):
                out.append(_hb04(
                    f"rank {rank} tile {tile}: send {k} diverges "
                    f"from the plan commit order: measured "
                    f"{_fmt_measured(m)}, certified {_fmt_static(e)}",
                    rank=rank))
                return
        if len(sends_m) != len(sends_e):
            out.append(_hb04(
                f"rank {rank} tile {tile}: {len(sends_m)} send "
                f"record(s), certificate expects {len(sends_e)}",
                rank=rank))
            return
        # receives: any interleaving, but FIFO per channel
        recv_m: Dict[Tuple[int, int], List[TraceEvent]] = {}
        for m in chunk[:-1]:
            if m.kind == "recv":
                recv_m.setdefault(
                    (m.peer if m.peer is not None else -1,
                     m.tag if m.tag is not None else -1),
                    []).append(m)
        recv_e: Dict[Tuple[int, int], List[HBEvent]] = {}
        for e in group:
            if e.kind == RECV:
                assert e.peer is not None and e.tag is not None
                recv_e.setdefault((e.peer, e.tag), []).append(e)
        for key in sorted(set(recv_m) | set(recv_e)):
            ms = recv_m.get(key, [])
            es = recv_e.get(key, [])
            if len(ms) != len(es) or any(
                    m.nelems != e.nelems for m, e in zip(ms, es)):
                out.append(_hb04(
                    f"rank {rank} tile {tile}: receives on channel "
                    f"(src={key[0]}, tag={key[1]}) diverge from the "
                    f"certified per-channel FIFO order", rank=rank))
                return


def sanitize_trace(program: "TiledProgram", trace: EventTrace, *,
                   protocol: str = "spec", overlap: bool = False,
                   spec: Optional["ClusterSpec"] = None,
                   mailbox_depth: int = 8,
                   ) -> List[Diagnostic]:
    """Check a measured trace against the static HB graph; returns
    the HB04 findings (empty list = the run conformed)."""
    g = build_hb_graph(program, protocol=protocol, overlap=overlap,
                       mailbox_depth=mailbox_depth, spec=spec)
    diags: List[Diagnostic] = []
    per_rank: Dict[int, List[TraceEvent]] = {}
    for ev in trace.events:  # record order IS per-rank program order
        per_rank.setdefault(ev.rank, []).append(ev)
    for rank in sorted(per_rank):
        if rank >= g.nranks or rank < 0:
            diags.append(_hb04(
                f"trace contains events for rank {rank}, but the "
                f"program has only {g.nranks} ranks", rank=rank))
    for rank in range(g.nranks):
        measured = per_rank.get(rank, [])
        expected = [g.events[i] for i in g.rank_order[rank]
                    if g.events[i].kind != SENDWAIT]
        rank_diags: List[Diagnostic] = []
        if len(measured) != len(expected):
            rank_diags.append(_hb04(
                f"rank {rank} recorded {len(measured)} event(s), "
                f"the certificate expects {len(expected)}",
                rank=rank))
        if not g.overlap:
            _check_rank_blocking(rank, measured, expected, rank_diags)
        else:
            _check_rank_overlap(rank, measured, expected, rank_diags)
        diags.extend(rank_diags[:_MAX_DIAGS_PER_RANK])
    # Cross-rank: k-th recv on a channel never completes before the
    # k-th send started, and carries the same element count.
    chan_sends: Dict[Tuple[int, int, int], List[TraceEvent]] = {}
    chan_recvs: Dict[Tuple[int, int, int], List[TraceEvent]] = {}
    for ev in trace.events:
        if ev.peer is None or ev.tag is None:
            continue
        if ev.kind == "send":
            chan_sends.setdefault((ev.rank, ev.peer, ev.tag),
                                  []).append(ev)
        elif ev.kind == "recv":
            chan_recvs.setdefault((ev.peer, ev.rank, ev.tag),
                                  []).append(ev)
    for chan in sorted(set(chan_sends) | set(chan_recvs)):
        ss = chan_sends.get(chan, [])
        rs = chan_recvs.get(chan, [])
        if len(ss) != len(rs):
            diags.append(_hb04(
                f"channel {chan[0]}->{chan[1]} tag {chan[2]}: "
                f"{len(ss)} send(s) but {len(rs)} recv(s) measured"))
            continue
        for k, (s, r) in enumerate(zip(ss, rs)):
            if r.nelems != s.nelems:
                diags.append(_hb04(
                    f"channel {chan[0]}->{chan[1]} tag {chan[2]} "
                    f"message {k}: sent {s.nelems} element(s), "
                    f"received {r.nelems}"))
                break
            if r.end < s.start:
                diags.append(_hb04(
                    f"channel {chan[0]}->{chan[1]} tag {chan[2]} "
                    f"message {k}: receive completed at {r.end:.9f}s "
                    f"before its send started at {s.start:.9f}s — "
                    f"publication-before-consumption violated"))
                break
    return diags


def sanitize_report(program: "TiledProgram", trace: EventTrace, *,
                    protocol: str = "spec", overlap: bool = False,
                    spec: Optional["ClusterSpec"] = None,
                    mailbox_depth: int = 8,
                    subject: str = "") -> AnalysisReport:
    """CLI-facing wrapper: full :class:`AnalysisReport` with metadata."""
    report = AnalysisReport()
    if subject:
        report.meta["subject"] = subject
    report.meta["protocol"] = protocol
    report.meta["overlap"] = overlap
    report.meta["events"] = len(trace.events)
    report.mark_pass("sanitize")
    report.extend(sanitize_trace(
        program, trace, protocol=protocol, overlap=overlap,
        spec=spec, mailbox_depth=mailbox_depth))
    return report
