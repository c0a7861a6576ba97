"""Happens-before concurrency certifier for the parallel runtime.

Three layers, surfaced as ``TiledProgram.hb_certificate()``, the
default ``hb`` pass of ``repro analyze`` and ``repro analyze --hb``:

* :mod:`~repro.analysis.hb.graph` — static schedule certification.
  Builds the happens-before graph of a program's parallel execution
  (per-rank program order from the tile chains, cross-rank edges from
  each ``CC_k`` send/recv pair under the eager / rendezvous / spec
  protocol and under the overlap plan's publish/drain points),
  checks that every channel's sends and receives pair up with equal
  sizes (``DL01``/``DL02``/``DL04``, eager blocking certificate only),
  proves via Fidge-Mattern vector clocks that every halo write/read
  pair is HB-ordered (``HB01``) and via the one static replay that
  the edge-wait graph is acyclic (``HB02``).
* :mod:`~repro.analysis.hb.ringmodel` — exhaustive model checking of
  the SPSC mailbox ring protocol over small bounded configurations
  with partial-order reduction (``HB03``), plus a known-bad mutation
  corpus the checker must reject.
* :mod:`~repro.analysis.hb.sanitize` — the dynamic trace sanitizer
  (``repro sanitize``): replays a measured :class:`EventTrace`
  against the static HB graph and reports any event observed out of
  certified order (``HB04``).

Every ``repro analyze`` reads the eager blocking certificate.
:func:`check_hb` is the pass driver ``analyze --hb`` runs instead:
certify the blocking and overlapped schedules under the protocols the
spec can select, probe the rendezvous protocol with findings demoted
to warnings (the dual-protocol policy), and fold in the ring protocol
model verdict.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.analysis.hb.graph import (
    PASS_HB,
    HBCertificate,
    HBEvent,
    HBGraph,
    build_hb_graph,
    certify_program,
    happens_before,
    vector_clocks,
)
from repro.analysis.hb.ringmodel import (
    MUTATIONS,
    ModelResult,
    RingConfig,
    check_ring_model,
    ring_diagnostics,
)
from repro.analysis.hb.sanitize import sanitize_report, sanitize_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.machine import ClusterSpec
    from repro.runtime.executor import TiledProgram

__all__ = [
    "MUTATIONS",
    "PASS_HB",
    "HBCertificate",
    "HBEvent",
    "HBGraph",
    "ModelResult",
    "RingConfig",
    "build_hb_graph",
    "certify_program",
    "check_hb",
    "check_ring_model",
    "happens_before",
    "ring_diagnostics",
    "sanitize_report",
    "sanitize_trace",
    "vector_clocks",
]


def check_hb(program: "TiledProgram", *,
             spec: Optional["ClusterSpec"] = None,
             mailbox_depth: int = 8) -> List[Diagnostic]:
    """All HB findings for one program (the ``analyze --hb`` pass).

    Certifies the blocking and overlapped schedules under the eager
    protocol (the runtime default) at natural severity; when ``spec``
    carries a rendezvous threshold the ``spec`` protocol is certified
    too (it may force handshakes).  If everything certifies, the fully
    synchronous rendezvous protocol is probed as well, with findings
    demoted to warnings — the dual-protocol policy: a rendezvous-only
    cycle is a real hazard but not one the default configuration can
    hit.  ``HB03`` ring-model findings are appended last (they concern
    the runtime's mailbox protocol, not this particular program).  The
    eager blocking certificate brings the DL01/DL02/DL04 channel
    findings, once.
    """
    diags: List[Diagnostic] = []
    combos = [("eager", False), ("eager", True)]
    if spec is not None and spec.rendezvous_threshold is not None:
        combos += [("spec", False), ("spec", True)]
    for protocol, overlap in combos:
        cert = program.hb_certificate(
            protocol=protocol, overlap=overlap,
            mailbox_depth=mailbox_depth, spec=spec)
        diags.extend(cert.diagnostics)
    if not any(d.severity == ERROR for d in diags):
        probe = program.hb_certificate(
            protocol="rendezvous", overlap=False,
            mailbox_depth=mailbox_depth, spec=spec)
        diags.extend(
            replace(d, severity=WARNING,
                    message=f"{d.message} — only under the synchronous "
                            f"rendezvous protocol (MPI_Ssend semantics, a "
                            f"small enough ClusterSpec."
                            f"rendezvous_threshold); the default "
                            f"eager/spec protocols complete",
                    suggestion="keep rendezvous_threshold above the "
                               "message sizes, enable overlap, or "
                               "reorder sends along the schedule")
            if d.severity == ERROR else d
            for d in probe.diagnostics)
    diags.extend(ring_diagnostics())
    return diags
