"""Abstract per-rank Send/Recv/compute programs, derived statically.

The verifier must reason about exactly the message sequence each rank's
generated node program will issue — without executing it.  This module
replays the program's frozen ``rank_plans`` stage (the lists every
engine walks, built from the overridable
:meth:`TiledProgram.receive_plan` / :meth:`send_plan`) into plain
ordered op lists, one per rank, annotated with the compile-time context
(tile, tile dependence ``d^S``, processor dependence ``d^m``) each op
came from.

The model is the single source of truth for the deadlock and race
passes, so a schedule bug surfaces identically in both.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.runtime.rankstep import build_rank_plans

Tile = Tuple[int, ...]
Pid = Tuple[int, ...]


class RecvOp(NamedTuple):
    """A blocking receive the node program will post.

    A ``NamedTuple`` rather than a dataclass: the model builds one op
    per scheduled message, so construction cost is on the verifier's
    critical path.  (The two op types can never compare equal: their
    arities differ.)
    """

    source: int                     # sender rank
    tag: int                        # message tag (index into D^m)
    nelems: Optional[int] = None    # expected element count (None: unknown)
    tile: Optional[Tile] = None     # receiving tile
    pred: Optional[Tile] = None     # predecessor tile the data comes from
    ds: Optional[Tile] = None       # tile dependence d^S carried
    step: Optional[int] = None      # chain position of `tile`


class SendOp(NamedTuple):
    """A send the node program will issue."""

    dest: int                       # receiver rank
    tag: int                        # message tag (index into D^m)
    nelems: Optional[int] = None    # element count (None: unknown)
    tile: Optional[Tile] = None     # sending tile
    dm: Optional[Pid] = None        # processor dependence d^m crossed
    step: Optional[int] = None      # chain position of `tile`


Op = object  # RecvOp | SendOp (py39-compatible alias for annotations)


class ScheduleModel:
    """Ordered abstract op lists per rank for one compiled program."""

    def __init__(self, program) -> None:
        d_m = program.comm.d_m
        self.ops: Dict[int, List[Op]] = {}
        for rank, plan in build_rank_plans(program).items():
            seq: List[Op] = []
            for step, tile in enumerate(plan.tiles):
                for r in plan.recvs[step]:
                    seq.append(RecvOp(
                        source=r.src_rank, tag=r.tag, nelems=r.nelems,
                        tile=tile, pred=r.pred, ds=r.ds, step=step))
                for s in plan.sends[step]:
                    seq.append(SendOp(
                        dest=s.dst_rank, tag=s.tag, nelems=s.nelems,
                        tile=tile, dm=d_m[s.tag], step=step))
            self.ops[rank] = seq

    @property
    def total_messages(self) -> int:
        return sum(1 for seq in self.ops.values()
                   for op in seq if isinstance(op, SendOp))
