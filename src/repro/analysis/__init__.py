"""Compile-time verification of tiled programs (static analysis).

A pass-based verifier that proves, without executing anything, that a
compiled :class:`~repro.runtime.executor.TiledProgram` is well-formed:

* :mod:`repro.analysis.races` — every cross-processor tile dependence
  is covered by the communication spec, pack regions contain every
  crossing iteration, and no two writers touch an LDS cell unordered;
* :mod:`repro.analysis.deadlock` — the per-rank Send/Recv sequences
  complete under blocking MPI semantics (the runtime ``DeadlockError``
  made static);
* :mod:`repro.analysis.bounds` — every LDS address (compute, read,
  halo unpack) stays inside the allocated rectangle and the address
  maps round-trip;
* :mod:`repro.analysis.overlap` — the overlapped-execution plans are
  sound (OV01-OV03: each message is the blocking payload, published
  right after the boundary of its last contributing wavefront level,
  order/cuts split each level into boundary and interior, the phases
  walk every segment once, lazy unpacks never defer past the halo's
  first reader); opt-in via
  ``analyze_program(..., overlap=True)`` / ``repro analyze --overlap``;
* :mod:`repro.analysis.hb` — the happens-before concurrency certifier
  for the *parallel runtime*: vector-clock proofs that every halo
  write/read pair is HB-ordered (HB01) and the edge-wait graph acyclic
  (HB02) under each protocol and under the overlap schedule,
  exhaustive model checking of the SPSC mailbox ring (HB03), and a
  measured-trace sanitizer (HB04, ``repro sanitize``); opt-in via
  ``analyze_program(..., hb=True)`` / ``repro analyze --hb``;
* :mod:`repro.analysis.cost` — the static cost certifier: closed-form
  per-edge communication volumes cross-checked against the frozen
  plans (COST01), per-rank compute volumes and imbalance (COST02),
  the makespan and rank clocks of the timing-only simulation under the
  analyzed protocol (COST03) and Dinh & Demmel lower-bound
  certification of the tile shape (COST04); opt-in via
  ``analyze_program(..., cost=True)`` / ``repro analyze --cost``;
* :mod:`repro.analysis.verifier` — the driver: legality/tile-size
  prechecks plus the passes above, accumulated into one
  :class:`~repro.analysis.diagnostics.AnalysisReport`;
* :mod:`repro.analysis.transval` — translation validation: parses the
  *emitted* C+MPI/Python text back into a loop model and statically
  proves loop bounds, subscripts, burned-in constants and declared
  dependences consistent with the symbolic pipeline (TV01-TV05);
  opt-in via ``analyze_program(..., transval=True)`` /
  ``repro analyze --transval``.

Entry points: ``analyze(nest, h)`` from scratch, ``analyze_program``
over a compiled program, ``verify_program`` as a raising guard (used by
``TiledProgram(..., verify=True)`` and the ``repro analyze`` CLI).
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Diagnostic,
)
from repro.analysis.deadlock import (
    RecvOp,
    SendOp,
    check_deadlock,
    check_program_deadlock,
)
from repro.analysis.races import check_races
from repro.analysis.bounds import check_bounds
from repro.analysis.overlap import check_overlap
from repro.analysis.cost import (
    CostCertificate,
    certify_cost,
    communication_lower_bound,
)
from repro.analysis.hb import (
    HBCertificate,
    certify_program,
    check_hb,
    check_ring_model,
    sanitize_report,
    sanitize_trace,
)
from repro.analysis.verifier import (
    VerificationError,
    analyze,
    analyze_program,
    analyze_tiling,
    check_tiling,
    verify_program,
)
from repro.analysis.transval import (
    check_declared_dependences,
    check_transval,
    transval_report,
    validate_mpi_text,
)

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "Diagnostic",
    "AnalysisReport",
    "RecvOp",
    "SendOp",
    "check_deadlock",
    "check_program_deadlock",
    "check_races",
    "check_bounds",
    "check_overlap",
    "check_hb",
    "check_ring_model",
    "certify_program",
    "HBCertificate",
    "CostCertificate",
    "certify_cost",
    "communication_lower_bound",
    "sanitize_trace",
    "sanitize_report",
    "check_tiling",
    "analyze",
    "analyze_tiling",
    "analyze_program",
    "verify_program",
    "VerificationError",
    "check_declared_dependences",
    "check_transval",
    "transval_report",
    "validate_mpi_text",
]
