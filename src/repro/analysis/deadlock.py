"""Static deadlock checker: DL01-DL04 over the one static replay.

The vMPI engine (:mod:`repro.runtime.vmpi`) raises ``DeadlockError`` at
*runtime* when no rank can progress.  This pass proves the same
property at *compile time*: it takes the happens-before graph of the
blocking schedule (:func:`~repro.analysis.hb.graph.build_hb_graph` for
a compiled program, :func:`graph_from_ops` for hand-written op lists)
and runs :func:`~repro.analysis.hb.graph.replay` over it with the
simulator's unbounded buffering — MPI point-to-point semantics: FIFO
per ``(src, dest, tag)`` channel, blocking receives, and either eager
sends (no ``SENDWAIT`` events) or fully synchronous ones (a
``SENDWAIT`` after every send: the rendezvous protocol of
``ClusterSpec.rendezvous_threshold``; any program deadlock-free under
synchronous sends is deadlock-free under the eager protocol too).

Three families of findings:

* ``DL01``/``DL02`` — per-channel multiset mismatches (a receive with
  no send, a send with no receive), read off the graph's pairing;
* ``DL04`` — FIFO position size mismatches (the executor's runtime
  ``HaloSizeError`` made static);
* ``DL03`` — order-induced cyclic waits even when every multiset
  matches (the classic crossed recv/recv or sync send/send cycle).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    rendezvous_only,
)
from repro.analysis.hb.graph import (
    RECV,
    SEND,
    SENDWAIT,
    Chan,
    GraphBuilder,
    HBEvent,
    HBGraph,
    build_hb_graph,
    replay,
)

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram

PASS = "deadlock"
_EQ_CHANNEL = "each (src, dest, tag) FIFO channel must carry equal " \
    "send/recv multisets (SEND/RECEIVE, §3.2)"

Tile = Tuple[int, ...]


class RecvOp(NamedTuple):
    """A blocking receive of a hand-written rank program — the input
    vocabulary of :func:`check_deadlock` (raw ``vmpi.Recv`` works too)."""

    source: int                     # sender rank
    tag: int                        # message tag
    nelems: Optional[int] = None    # expected element count (None: unknown)
    tile: Optional[Tile] = None     # receiving tile, for the report
    step: Optional[int] = None      # chain position of `tile`


class SendOp(NamedTuple):
    """A send of a hand-written rank program (or raw ``vmpi.Send``)."""

    dest: int                       # receiver rank
    tag: int                        # message tag
    nelems: Optional[int] = None    # element count (None: unknown)
    tile: Optional[Tile] = None     # sending tile, for the report
    step: Optional[int] = None      # chain position of `tile`


def graph_from_ops(ops_by_rank: Dict[int, Sequence[object]],
                   synchronous: bool) -> HBGraph:
    """The blocking-schedule graph of hand-written per-rank op lists
    (``RecvOp``/``SendOp`` or raw ``vmpi.Send``/``vmpi.Recv``).  An
    unknown size is ``-1``, an absent tile ``()``, an absent step ``-1``.
    """
    from repro.runtime.vmpi import Recv as VRecv, Send as VSend
    rows: Dict[int, List[Tuple[str, int, Any]]] = {}
    for rank, seq in sorted(ops_by_rank.items()):
        row = rows[rank] = []
        for op in seq:
            if isinstance(op, (RecvOp, VRecv)):
                row.append((RECV, op.source, op))
            elif isinstance(op, (SendOp, VSend)):
                row.append((SEND, op.dest, op))
            else:
                raise TypeError(f"rank {rank}: unknown op {op!r}")
    b = GraphBuilder(1 + max(
        [*rows, *(peer for row in rows.values() for _, peer, _ in row)],
        default=-1))
    for rank, row in rows.items():
        for kind, peer, op in row:
            step = getattr(op, "step", None)
            nelems = getattr(op, "nelems", None)
            args = (getattr(op, "tile", None) or (),
                    -1 if step is None else step, peer, op.tag,
                    -1 if nelems is None else nelems)
            b.emit(rank, kind, *args)
            if kind == SEND and synchronous:
                b.emit(rank, SENDWAIT, *args)
    return b.finish("rendezvous" if synchronous else "eager", False,
                    0, {})


def _subject(e: HBEvent) -> Tuple[Tuple[str, object], ...]:
    items: List[Tuple[str, object]] = [
        ("rank", e.rank),
        ("source" if e.kind == RECV else "dest", e.peer),
        ("tag", e.tag)]
    if e.tile:
        items.append(("tile", e.tile))
    if e.tix >= 0:
        items.append(("step", e.tix))
    return tuple(items)


def _check_channels(g: HBGraph) -> List[Diagnostic]:
    """Multiset + FIFO-size agreement per channel (DL01/DL02/DL04)."""
    ev = g.events
    # msg_edges run channel by channel in FIFO order, so the first
    # mismatch kept per channel is the lowest position.
    missized: Dict[Optional[Chan], Tuple[HBEvent, HBEvent]] = {}
    for s, r in g.msg_edges:
        s_ev, r_ev = ev[s], ev[r]
        if s_ev.nelems != r_ev.nelems and min(s_ev.nelems,
                                               r_ev.nelems) >= 0:
            missized.setdefault(r_ev.chan, (s_ev, r_ev))
    extra: Dict[Optional[Chan], List[HBEvent]] = {}
    for eid in g.unmatched_recvs + g.unmatched_sends:
        extra.setdefault(ev[eid].chan, []).append(ev[eid])
    diags: List[Diagnostic] = []
    for chan in sorted(c for c in set(missized) | set(extra) if c):
        src, dst, tag = chan
        rest = extra.get(chan, [])      # all receives or all sends
        paired = rest[0].chanpos if rest else 0
        if rest and rest[0].kind == RECV:
            diags.append(Diagnostic(
                code="DL01", severity=ERROR, pass_name=PASS,
                message=f"rank {dst} posts {paired + len(rest)} "
                        f"receive(s) on channel "
                        f"(src={src}, tag={tag}) but only {paired} "
                        f"send(s) are ever issued; the extra receive "
                        f"blocks forever",
                equation=_EQ_CHANNEL,
                subject=_subject(rest[0]),
                suggestion="emit the missing SEND (check send_plan / "
                           "minsucc aggregation for this d^m)",
            ))
        elif rest:
            diags.append(Diagnostic(
                code="DL02", severity=WARNING, pass_name=PASS,
                message=f"rank {src} issues {paired + len(rest)} "
                        f"send(s) on channel "
                        f"(dest={dst}, tag={tag}) but only {paired} "
                        f"receive(s) are posted; the message is never "
                        f"consumed",
                equation=_EQ_CHANNEL,
                subject=_subject(rest[0]),
                suggestion="drop the send or post the matching RECEIVE",
            ))
        if chan in missized:
            s_ev, r_ev = missized[chan]
            diags.append(Diagnostic(
                code="DL04", severity=ERROR, pass_name=PASS,
                message=f"FIFO position {r_ev.chanpos} of channel "
                        f"(src={src}, "
                        f"dest={dst}, tag={tag}): send carries "
                        f"{s_ev.nelems} elements but the receive "
                        f"expects {r_ev.nelems}",
                equation="pack and unpack regions must agree: "
                         "|region(pred, d^S)| x |arrays| (SEND/RECEIVE)",
                subject=_subject(r_ev),
                suggestion="pack region and unpack region diverged; "
                           "check pack_lower_bounds / region_count",
            ))
    return diags


def _diagnose(g: HBGraph) -> List[Diagnostic]:
    """All deadlock findings of one blocking-schedule graph."""
    diags = _check_channels(g)
    res = replay(g, bounded=False)
    if res.completed:
        return diags
    if res.cycle:
        waits = []
        for r in res.cycle:
            e = g.events[res.blocked[r]]
            kind = "recv" if e.kind == RECV else "send"
            waits.append(f"rank {r} blocked on {kind}"
                         f"(peer={e.peer}, tag={e.tag})")
        diags.append(Diagnostic(
            code="DL03", severity=ERROR, pass_name=PASS,
            message="cyclic wait among ranks "
                    f"{' -> '.join(str(r) for r in res.cycle)} -> "
                    f"{res.cycle[0]}: " + "; ".join(waits),
            equation="the wait-for graph of blocked ranks must be "
                     "acyclic (vMPI blocking semantics)",
            subject=(("cycle", res.cycle),),
            suggestion="reorder the receives to match the senders' "
                       "issue order, or break the send/send cycle "
                       "with buffering",
        ))
    elif not any(d.code == "DL01" for d in diags):
        stuck = sorted(res.blocked)
        diags.append(Diagnostic(
            code="DL01", severity=ERROR, pass_name=PASS,
            message=f"ranks {stuck} cannot progress: blocked on "
                    "operations whose peers have already finished",
            equation=_EQ_CHANNEL,
            subject=_subject(g.events[res.blocked[stuck[0]]]),
            suggestion="check the send/recv pairing of the stuck "
                       "channels",
        ))
    return diags


def check_deadlock(ops_by_rank: Dict[int, Sequence[object]],
                   synchronous: bool = True) -> List[Diagnostic]:
    """All deadlock findings for a set of per-rank op sequences."""
    return _diagnose(graph_from_ops(ops_by_rank, synchronous))


def check_program_deadlock(program: "TiledProgram",
                           synchronous: Optional[bool] = None
                           ) -> List[Diagnostic]:
    """Deadlock findings for a compiled program's blocking schedule.

    With ``synchronous=None`` (default) both protocols are analyzed:
    findings under the *eager* protocol — the default
    ``ClusterSpec(rendezvous_threshold=None)`` — are reported at their
    natural severity (the runtime would raise ``DeadlockError``), while
    cyclic waits that appear only under fully *synchronous* sends are
    demoted to warnings: they manifest only when a rendezvous threshold
    forces the handshake (a real hazard — several of the paper's own
    tilings deadlock under ``rendezvous_threshold=0`` — but not under
    the default configuration).
    """
    def run(sync: bool) -> List[Diagnostic]:
        return _diagnose(build_hb_graph(
            program, protocol="rendezvous" if sync else "eager"))

    if synchronous is not None:
        return run(synchronous)
    diags = run(False)
    if not any(d.severity == ERROR for d in diags):
        diags += [rendezvous_only(d, "", "eager protocol completes")
                  for d in run(True) if d.code == "DL03"]
    return diags
