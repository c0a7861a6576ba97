"""The verifier driver: run every pass, collect one report.

Two entry points:

* :func:`analyze_tiling` — the *pre-construction* checks (legality
  ``H D >= 0`` and tile-size ``max_l d'_kl <= v_kk``) that must hold
  before a :class:`TiledProgram` can even be built.  Never constructs
  the program, never raises on findings.
* :func:`analyze` / :func:`analyze_program` — the full pipeline.
  ``analyze`` starts from ``(nest, h)``: if the pre-construction checks
  fail it returns that partial report (the remaining passes are
  meaningless on an unbuildable program); otherwise it compiles the
  program and delegates to ``analyze_program``, which runs the
  race, schedule (``hb``) and bounds passes over the compiled
  artifact.

:func:`verify_program` is the guard form used by
``TiledProgram(..., verify=True)``: it raises :class:`VerificationError`
(carrying the report) when any error-severity diagnostic is found.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.diagnostics import (
    ERROR,
    AnalysisReport,
    Diagnostic,
)
from repro.tiling.legality import legality_violations

PASS_LEGALITY = "legality"


class VerificationError(ValueError):
    """Raised by :func:`verify_program` when the verifier finds errors.

    The full :class:`AnalysisReport` is available as ``.report``.
    """

    def __init__(self, report: AnalysisReport):
        self.report = report
        ne = len(report.errors)
        first = report.errors[0] if report.errors else None
        head = f"static verification failed: {ne} error(s)"
        if first is not None:
            head += f"; first: [{first.code}] {first.message}"
        super().__init__(head)


def _cone_suggestion(deps: Sequence[Sequence[int]]) -> str:
    from repro.tiling.cone import tiling_cone_rays
    try:
        rays = tiling_cone_rays(deps)
    except ValueError:
        return "skew the loop or pick rows from the tiling cone"
    return ("pick rows of H from the tiling cone; its extreme rays are "
            + ", ".join(str(r) for r in rays))


def check_tiling(h, deps: Sequence[Sequence[int]]) -> list:
    """LEG01/LEG02 findings for a ``(H, dependences)`` pair."""
    deps = [tuple(int(x) for x in d) for d in deps]
    diags = []
    suggestion = None
    for row, dep, value in legality_violations(h, deps):
        if suggestion is None:
            suggestion = _cone_suggestion(deps)
        diags.append(Diagnostic(
            code="LEG01", severity=ERROR, pass_name=PASS_LEGALITY,
            message=f"row {row} of H has negative inner product {value} "
                    f"with dependence {dep}: tiles along this face cut "
                    f"the dependence both ways, so no tile execution "
                    f"order exists",
            equation="H D >= 0 (§2.2, Ramanujam & Sadayappan)",
            subject=(("row", row), ("dep", dep), ("value", str(value))),
            suggestion=suggestion,
        ))
    if diags:
        return diags        # TTIS geometry is meaningless on illegal H
    # Tile-size precheck: mirror CommunicationSpec's constructor guard
    # (max_l d'_kl <= v_kk) without building the distribution.
    from repro.tiling.ttis import TTIS
    try:
        ttis = TTIS(h)
    except ValueError as exc:
        return [Diagnostic(
            code="LEG02", severity=ERROR, pass_name=PASS_LEGALITY,
            message=f"tile geometry unusable: {exc}",
            equation="c_k | v_kk (LDS condensation, §3.1)",
            subject=(("h", tuple(map(tuple, h.rows()))),),
            suggestion="choose H with strides dividing the tile extents",
        )]
    d_prime = ttis.transformed_dependences(deps)
    for k in range(ttis.n):
        reach = max((dp[k] for dp in d_prime), default=0)
        if reach > ttis.v[k]:
            worst = max(range(len(deps)), key=lambda i: d_prime[i][k])
            diags.append(Diagnostic(
                code="LEG02", severity=ERROR, pass_name=PASS_LEGALITY,
                message=f"tile too small along dimension {k}: dependence "
                        f"{deps[worst]} transforms to d' = "
                        f"{d_prime[worst]} with reach {reach} > tile "
                        f"extent v_{k} = {ttis.v[k]}; it would skip over "
                        f"a whole tile, which the one-tile halo cannot "
                        f"express",
                equation="max_l d'_kl <= v_kk (§3.2 halo/CC machinery)",
                subject=(("dim", k), ("dep", deps[worst]),
                         ("d_prime", d_prime[worst]),
                         ("reach", reach), ("v_k", ttis.v[k])),
                suggestion=f"enlarge the tile along dimension {k} to at "
                           f"least {reach}",
            ))
    return diags


def analyze_tiling(h, deps: Sequence[Sequence[int]],
                   subject: str = "") -> AnalysisReport:
    """Pre-construction report: legality + tile-size only."""
    report = AnalysisReport()
    if subject:
        report.meta["subject"] = subject
    report.meta["h"] = [[str(x) for x in row] for row in h.rows()]
    report.meta["dependences"] = [tuple(d) for d in deps]
    report.extend(check_tiling(h, deps))
    report.mark_pass(PASS_LEGALITY)
    return report


def analyze_program(program, subject: str = "", *,
                    overlap: bool = False,
                    hb: bool = False,
                    cost: bool = False,
                    transval: bool = False) -> AnalysisReport:
    """Full post-construction report over a compiled ``TiledProgram``.

    The schedule pass (``hb``) is the happens-before certificate of the
    eager blocking schedule, the runtime default: channel agreement
    (DL01/DL02/DL04), race freedom (HB01) and completion (HB02).

    ``overlap=True`` additionally verifies the overlapped-execution
    plans (OV02-OV03: commit-level and publish legality, phase order,
    lazy-unpack safety).  Opt-in because
    it builds every tile's overlap plan, which the construction-time
    guard must not pay for.

    ``hb=True`` widens that pass to the full happens-before certifier
    (:func:`~repro.analysis.hb.check_hb`: the overlapped schedule, the
    ``spec`` protocol when it has a threshold, the rendezvous probe
    with its findings demoted to warnings, and the HB03 mailbox ring
    protocol model).  Opt-in for the same cost reason as ``overlap``.

    ``cost=True`` additionally runs the static cost certifier
    (COST01-COST04: closed-form per-edge communication volumes
    cross-checked against the frozen plans, per-rank compute volumes,
    the simulated makespan and rank clocks, and the Dinh & Demmel
    lower-bound verdict).  The full certificate lands in
    ``report.meta["cost"]``.

    ``transval=True`` additionally translation-validates the texts
    rendered from this same ``program`` (TV01-TV05), when every earlier
    pass is error-free — a failing program has no trustworthy text.
    """
    from repro.analysis.bounds import check_bounds
    from repro.analysis.hb import check_hb
    from repro.analysis.races import check_races
    from repro.runtime.rankstep import build_rank_plans, edge_tally

    report = analyze_tiling(program.tiling.h, program.nest.dependences,
                            subject=subject)
    report.meta.update(
        mapping_dim=program.dist.m,
        processors=program.num_processors,
        tiles=len(program.dist.tiles),
        tile_volume=program.tiling.ttis.tile_volume,
        d_s=[tuple(d) for d in program.comm.d_s],
        d_m=[tuple(d) for d in program.comm.d_m],
        cc=tuple(program.comm.cc),
        offsets=tuple(program.comm.offsets),
    )
    if not report.ok:       # unbuildable geometry; program is suspect
        return report
    report.meta["messages"] = sum(
        msgs for msgs, _elems, _cap in
        edge_tally(build_rank_plans(program)).values())
    report.extend(check_races(program))
    report.mark_pass("races")
    report.extend(check_hb(program) if hb
                  else program.hb_certificate("eager").diagnostics)
    report.mark_pass("hb")
    report.extend(check_bounds(program))
    report.mark_pass("bounds")
    if overlap:
        from repro.analysis.overlap import check_overlap
        report.extend(check_overlap(program))
        report.mark_pass("overlap")
    if cost:
        cert = program.cost_certificate()
        report.extend(cert.diagnostics)
        report.meta["cost"] = cert.to_dict()
        report.mark_pass("cost")
    if transval and report.ok:
        from repro.analysis.transval import REPORT_PASSES, check_transval
        report.extend(check_transval(program))
        for name in REPORT_PASSES:
            report.mark_pass(name)
    return report


def analyze(nest, h, mapping_dim: Optional[int] = None,
            subject: str = "", *, overlap: bool = False,
            hb: bool = False, cost: bool = False,
            transval: bool = False) -> AnalysisReport:
    """End-to-end: pre-checks, then compile and run every pass.

    When the pre-construction checks fail, the partial report is
    returned and no :class:`TiledProgram` is ever built — this is the
    verifier's whole point: the same defects the runtime would hit
    (``ValueError`` in construction, ``DeadlockError`` in execution,
    corrupted halos) become compile-time diagnostics.
    """
    pre = analyze_tiling(h, nest.dependences, subject=subject)
    if not pre.ok:
        return pre
    from repro.runtime.executor import TiledProgram
    program = TiledProgram(nest, h, mapping_dim)
    return analyze_program(program, subject=subject, overlap=overlap,
                           hb=hb, cost=cost, transval=transval)


def verify_program(program, subject: str = "") -> AnalysisReport:
    """Guard form: raise :class:`VerificationError` on any error.

    Runs the default passes, so the schedule is certified under the
    eager protocol only: the rendezvous probe of ``hb=True`` can only
    add warnings, which never raise here.
    """
    report = analyze_program(program, subject=subject)
    if not report.ok:
        raise VerificationError(report)
    return report
