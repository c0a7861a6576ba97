"""Execution traces of simulated runs (send/recv/compute intervals).

Useful for debugging generated programs and for rendering ASCII Gantt
charts of the tile pipeline — the wavefront structure the linear
schedule ``Pi = [1,...,1]`` induces is clearly visible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

#: Serialization schema version.  Bump whenever the on-disk shape of
#: :class:`TraceEvent`/:class:`EventTrace` changes incompatibly — the
#: sanitizer refuses traces whose version does not match rather than
#: silently misreading events from another build.  Version 2: measured
#: timestamps of every rank count from the run's one go instant (they
#: were per worker process before).
TRACE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceEvent:
    kind: str          # "send" | "recv" | "compute"
    rank: int
    start: float
    end: float
    peer: Optional[int] = None
    tag: Optional[int] = None
    nelems: int = 0
    label: str = ""


@dataclass
class EventTrace:
    """Accumulates simulator events in wall-clock order per rank."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, kind: str, rank: int, start: float, end: float,
               peer: Optional[int] = None, tag: Optional[int] = None,
               nelems: int = 0, label: str = "") -> None:
        self.events.append(TraceEvent(kind, rank, start, end,
                                      peer, tag, nelems, label))

    def by_rank(self) -> Dict[int, List[TraceEvent]]:
        out: Dict[int, List[TraceEvent]] = {}
        for ev in self.events:
            out.setdefault(ev.rank, []).append(ev)
        for lst in out.values():
            lst.sort(key=lambda e: (e.start, e.end))
        return out

    def message_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "send")

    # -- serialization (versioned) --------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "events": [asdict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EventTrace":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on a
        missing or incompatible schema version."""
        version = payload.get("version")
        if version is None:
            raise ValueError(
                "trace payload carries no schema version; refusing "
                "to guess its layout (re-record with this build)")
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema version {version} is incompatible "
                f"with this build (expected "
                f"{TRACE_SCHEMA_VERSION}); re-record the trace")
        trace = cls()
        for rec in payload.get("events", []):
            trace.events.append(TraceEvent(
                kind=str(rec["kind"]), rank=int(rec["rank"]),
                start=float(rec["start"]), end=float(rec["end"]),
                peer=(None if rec.get("peer") is None
                      else int(rec["peer"])),
                tag=(None if rec.get("tag") is None
                     else int(rec["tag"])),
                nelems=int(rec.get("nelems", 0)),
                label=str(rec.get("label", ""))))
        return trace

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path: str) -> "EventTrace":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} does not contain a trace object")
        return cls.from_dict(payload)


@dataclass(frozen=True)
class GanttRow:
    rank: int
    cells: str


def to_chrome_trace(trace: EventTrace,
                    time_unit_us: float = 1e6) -> list:
    """Convert to Chrome tracing format (``chrome://tracing`` /
    Perfetto): a list of complete events, one track per rank.

    Dump with ``json.dump({"traceEvents": to_chrome_trace(t)}, fh)``.
    """
    events = []
    for ev in trace.events:
        args = {"nelems": ev.nelems}
        if ev.peer is not None:
            args["peer"] = ev.peer
        if ev.tag is not None:
            args["tag"] = ev.tag
        events.append({
            "name": ev.label or ev.kind,
            "cat": ev.kind,
            "ph": "X",
            "ts": ev.start * time_unit_us,
            "dur": max(0.0, (ev.end - ev.start) * time_unit_us),
            "pid": 0,
            "tid": ev.rank,
            "args": args,
        })
    return events


def ascii_gantt(trace: EventTrace, width: int = 72) -> List[GanttRow]:
    """Render per-rank activity as rows of characters.

    ``#`` compute, ``>`` send, ``<`` recv/wait, ``.`` idle.  Intended
    for eyeballing pipeline fill/drain, not for measurement.
    """
    if not trace.events:
        return []
    t_end = max(e.end for e in trace.events)
    if t_end <= 0:
        return []
    scale = width / t_end
    rows: List[GanttRow] = []
    for rank, events in sorted(trace.by_rank().items()):
        cells = ["."] * width
        for ev in events:
            a = min(width - 1, int(ev.start * scale))
            b = min(width - 1, max(a, int(ev.end * scale) - 1))
            ch = {"compute": "#", "send": ">", "recv": "<"}.get(ev.kind, "?")
            for i in range(a, b + 1):
                if cells[i] == "." or ch == "#":
                    cells[i] = ch
        rows.append(GanttRow(rank=rank, cells="".join(cells)))
    return rows
