"""Orchestration: emit every artifact, run every TV pass, one report.

One compile per request: :func:`check_transval` renders the three
generated artifacts (C+MPI, sequential C, pygen schedule module) and
the native kernel unit from the one compiled program it is handed —
by :func:`transval_report`, which owns the ``(nest, h)`` compile, or
by ``analyze(..., transval=True)`` — and validates each against that
same object.  :func:`validate_mpi_text` is the raising
guard for one MPI text.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.transval.kernels import PASS_KERNELS, check_native_tu
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
from repro.loops.nest import LoopNest

__all__ = ["REPORT_PASSES", "check_transval", "transval_report",
           "validate_mpi_text"]

#: The passes :func:`check_transval` covers, in report order.
REPORT_PASSES = (PASS_DEPENDENCES, PASS_LOOPS, PASS_SUBSCRIPTS,
                 PASS_CONSTANTS, PASS_KERNELS)


def check_transval(program: Any) -> List[Diagnostic]:
    """TV04 on the declared dependences, then TV01-TV03 + TV05 over
    every text rendered from ``program``."""
    from repro import codegen

    nest, tiling = program.nest, program.tiling
    diags = check_declared_dependences(nest)
    diags += check_mpi_text(program, codegen.render_mpi_code(program))
    diags += check_sequential_text(
        program, codegen.render_sequential_tiled_code(nest, tiling))
    diags += check_pygen_source(
        program, codegen.render_python_node_programs(program))
    diags += check_native_tu(nest, tuple(program.arrays))
    return diags


def transval_report(nest: LoopNest, h: Any,
                    mapping_dim: Optional[int] = None,
                    subject: str = "") -> AnalysisReport:
    """Translation-validate freshly emitted code for ``(nest, h)``.

    Compiles ``(nest, h)`` once and runs :func:`check_transval` over
    that program.  When the tiling itself is illegal (LEG01/LEG02)
    the legality findings are reported beside TV04 and emission is
    skipped — there is no meaningful program to validate.
    """
    from repro.analysis.verifier import PASS_LEGALITY, check_tiling
    from repro.runtime.executor import TiledProgram

    report = AnalysisReport()
    if subject:
        report.meta["subject"] = subject
    report.meta["h"] = [[str(x) for x in row] for row in h.rows()]
    report.meta["dependences"] = [tuple(d) for d in nest.dependences]
    pre = check_tiling(h, nest.dependences)
    if pre:
        # Unbuildable geometry: report why and stop — the constructor
        # would raise, so there is nothing to render or parse.
        report.extend(check_declared_dependences(nest))
        report.mark_pass(PASS_DEPENDENCES)
        report.extend(pre)
        report.mark_pass(PASS_LEGALITY)
        return report
    program = TiledProgram(nest, h, mapping_dim=mapping_dim)
    report.meta["mapping_dim"] = program.dist.m
    report.extend(check_transval(program))
    for name in REPORT_PASSES:
        report.mark_pass(name)
    return report


def validate_mpi_text(program: Any, text: str,
                      subject: str = "") -> AnalysisReport:
    """Guard form: validate one MPI text or raise.

    Validates the emitted MPI text (plus the declared dependence
    matrix it was compiled from) and raises
    :class:`repro.analysis.verifier.VerificationError` when any TV pass
    finds an error-severity defect.
    """
    from repro.analysis.verifier import VerificationError

    report = AnalysisReport()
    if subject:
        report.meta["subject"] = subject
    report.extend(check_declared_dependences(program.nest))
    report.extend(check_mpi_text(program, text))
    for name in TRANSVAL_PASSES:
        report.mark_pass(name)
    if not report.ok:
        raise VerificationError(report)
    return report
