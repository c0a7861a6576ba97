"""Translation validation of emitted code against the symbolic pipeline.

The generators in :mod:`repro.codegen` burn the compilation result
(loop bounds, strides, halo offsets, communication constants) into
program text.  This package parses that text *back* into a small loop
model and statically proves it consistent with the
:class:`~repro.runtime.executor.TiledProgram` it was generated from:

* :mod:`~repro.analysis.transval.loopir` — expression IR, rounded-affine
  atoms, exact interval evaluation;
* :mod:`~repro.analysis.transval.model` — neutral parsed-program
  structures;
* :mod:`~repro.analysis.transval.creader` /
  :mod:`~repro.analysis.transval.pyreader` — readers for the two C
  texts and the pygen schedule module;
* :mod:`~repro.analysis.transval.passes` — the TV01-TV04 checks;
* :mod:`~repro.analysis.transval.kernels` — TV05, the native
  kernel translation unit against the symbolic ``KExpr`` trees;
* :mod:`~repro.analysis.transval.validate` — orchestration
  (:func:`check_transval` over one compiled program, the ``--transval``
  pass; :func:`transval_report` from ``(nest, h)``; the raising
  :func:`validate_mpi_text` guard).
"""

from __future__ import annotations

from repro.analysis.transval.kernels import (
    PASS_KERNELS,
    check_native_tu,
)
from repro.analysis.transval.passes import (
    PASS_CONSTANTS,
    PASS_DEPENDENCES,
    PASS_LOOPS,
    PASS_SUBSCRIPTS,
    TRANSVAL_PASSES,
    check_declared_dependences,
    check_mpi_text,
    check_pygen_source,
    check_sequential_text,
)
from repro.analysis.transval.validate import (
    REPORT_PASSES,
    check_transval,
    transval_report,
    validate_mpi_text,
)

__all__ = [
    "PASS_LOOPS", "PASS_SUBSCRIPTS", "PASS_CONSTANTS", "PASS_DEPENDENCES",
    "PASS_KERNELS",
    "TRANSVAL_PASSES", "check_mpi_text", "check_sequential_text",
    "check_pygen_source", "check_declared_dependences",
    "check_native_tu",
    "REPORT_PASSES", "check_transval",
    "transval_report", "validate_mpi_text",
]
