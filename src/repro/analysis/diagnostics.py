"""Structured diagnostics shared by every static-analysis pass.

A :class:`Diagnostic` is one verifiable finding: a stable machine code
(asserted by the golden tests), a severity, a human message, the paper
equation the violated invariant comes from, a structured ``subject``
locating the violation (tile, dependence, rank, cell, ...), and a
suggested fix.  Passes append diagnostics to an
:class:`AnalysisReport`, which renders either as human-readable text or
as JSON for tooling (the ``repro analyze`` CLI emits both).

Diagnostic codes are part of the public contract:

========  =======================================================
``LEG01``  illegal tiling — a row of ``H`` has negative inner
           product with a dependence (``H D >= 0``, §2.2)
``LEG02``  tile too small — a transformed dependence reaches
           further than one tile (``max_l d'_kl <= v_kk``, §3.2)
``RACE01`` cross-processor tile dependence not covered by the
           communication spec (no ``D^m``/``D^S`` entry or send)
``RACE02`` crossing iteration outside the pack region of its
           message (``j'_k >= cc_k`` fails, §3.2)
``RACE03`` schedule-order violation — a tile dependence is not
           strictly positive under ``Pi = [1,...,1]``
``RACE04`` two writers touch the same LDS cell unordered
           (unpack/unpack or unpack/compute overlap)
``DL01``   unmatched receive — a rank blocks forever on a
           ``(src, tag)`` channel nobody sends on (read off the
           eager blocking HB certificate's pairing, as are DL02
           and DL04)
``DL02``   unmatched send — a message no receive ever consumes
``DL04``   FIFO size mismatch — the k-th send on a channel
           carries a different element count than the k-th recv
           expects
``HALO01`` compute/read address escapes the allocated LDS
           rectangle (``map``/``loc``, Tables 1-2)
``HALO02`` halo unpack slot escapes the LDS rectangle
           (``map(j',t) - d^S_k v_kk / c_k``, RECEIVE)
``HALO03`` ``map``/``map⁻¹`` round trip fails on a lattice point
``HALO04`` halo aliasing broken — a received value is unpacked
           into a different cell than the consumer's read
           resolves to
``TV01``   emitted loop structure diverges from the symbolic
           pipeline — bounds, strides, phase offsets or guard
           constraints do not match FM/HNF (or the text failed
           to parse back at all)
``TV02``   an emitted array subscript can escape its allocated
           LDS/array box under exact interval evaluation
           (including halo ``off_k`` slack)
``TV03``   a burned-in constant (``V``, ``CC``, ``D^S``,
           ``D^m``, offsets, tags, pid mapping, schedule) does
           not equal the ``TiledProgram`` value
``TV04``   declared dependence matrix inconsistent with the
           dependences derived from the statement bodies
``TV05``   native kernel translation unit diverges from the
           symbolic statements — an independently parsed
           ``F_<array>`` expression tree, constant bit pattern,
           read-slot wiring or write target does not match the
           ``KExpr``/dependence structure the ``.so`` must encode
``OV02``   overlap commit level or publish phase wrong — a send
           would publish before its last contributing wavefront
           level's boundary has run
``OV03``   overlap phases skip or reorder key windows, miscount a
           window's points, or a lazy unpack defers past the
           halo's first reader
``HB01``   happens-before race — a halo write/read pair is not
           ordered by the vector clocks of the certified parallel
           schedule (``vc(read)[rank(write)] >= tick(write)``)
``HB02``   happens-before deadlock — the edge-wait graph of the
           parallel schedule has a cycle (or stuck ranks) under
           the analyzed protocol/overlap configuration
``HB03``   ring protocol violation — the SPSC mailbox model
           breaks publication-before-consumption, slot reuse, or
           wraparound safety in some interleaving
``HB04``   trace nonconformance — a measured event is out of the
           certified happens-before order (``repro sanitize``)
``COST01`` closed-form per-edge communication volume disagrees
           with the frozen plan replay (strides, ``cc`` or the
           ``D^m`` enumeration are miscounted)
``COST02`` informational — per-rank computation volumes and the
           distribution's load-imbalance ratio
``COST03`` makespan undefined — the timing-only simulation
           deadlocks under the analyzed protocol
``COST04`` tile shape exceeds the Dinh & Demmel communication
           lower bound by more than the configured factor
           (warning), or the bound's AM-GM self-check fails
           (error)
========  =======================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Severity levels, ordered from worst to mildest.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    code: str                       # stable machine code, e.g. "RACE01"
    severity: str                   # ERROR / WARNING / INFO
    pass_name: str                  # "legality" / "races" / "hb" / "bounds"
    message: str                    # human-readable, one line preferred
    equation: str = ""              # paper invariant, e.g. "H D >= 0 (§2.2)"
    subject: Tuple[Tuple[str, Any], ...] = ()   # ordered structured locus
    suggestion: str = ""            # actionable fix, may be empty

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def subject_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in self.subject}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "pass": self.pass_name,
            "message": self.message,
            "equation": self.equation,
            "subject": {k: _jsonable(v) for k, v in self.subject},
            "suggestion": self.suggestion,
        }

    def render(self) -> str:
        """One-diagnostic text rendering, compiler style."""
        parts = [f"{self.severity}[{self.code}] {self.pass_name}: "
                 f"{self.message}"]
        if self.subject:
            loc = ", ".join(f"{k}={v}" for k, v in self.subject)
            parts.append(f"    at {loc}")
        if self.equation:
            parts.append(f"    invariant: {self.equation}")
        if self.suggestion:
            parts.append(f"    fix: {self.suggestion}")
        return "\n".join(parts)


def _jsonable(value: Any) -> Any:
    """Coerce subjects (tuples of ints, numpy scalars) to JSON types."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):     # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class AnalysisReport:
    """Accumulated findings of a verifier run over one program."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    passes_run: List[str] = field(default_factory=list)

    # -- building -----------------------------------------------------------------

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def mark_pass(self, name: str) -> None:
        if name not in self.passes_run:
            self.passes_run.append(name)

    # -- queries ------------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error* diagnostics were found."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    # -- renderers ----------------------------------------------------------------

    def render_text(self) -> str:
        lines: List[str] = []
        subject = self.meta.get("subject")
        head = f"analysis of {subject}" if subject else "analysis"
        lines.append(head)
        if self.passes_run:
            lines.append(f"passes: {', '.join(self.passes_run)}")
        if not self.diagnostics:
            lines.append("clean: no diagnostics")
        for d in self.diagnostics:
            lines.append(d.render())
        ne, nw = len(self.errors), len(self.warnings)
        lines.append(f"{ne} error(s), {nw} warning(s), "
                     f"{len(self.diagnostics) - ne - nw} note(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": {k: _jsonable(v) for k, v in self.meta.items()},
            "passes": list(self.passes_run),
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "total": len(self.diagnostics),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
