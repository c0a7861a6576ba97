"""Command-line interface: ``python -m repro <command>``.

Mirrors how the paper's tool was used — feed it a loop nest and a
tiling, get code and cluster numbers back:

* ``info``      — compile and print the derived constants (V, strides,
  CC, offsets, D^S, D^m, processor mesh).
* ``codegen``   — emit the sequential tiled C translation unit, the
  C+MPI program, the executable Python schedule, or the native kernel
  translation unit.
* ``simulate``  — run the virtual cluster and print speedup/utilization.
* ``verify``    — execute with real data on the dense engine and check
  it bitwise against the sequential oracle.
* ``run``       — execute with real data: ``--engine parallel`` uses one
  OS process per processor with shared-memory halo exchange (measured
  wall-clock utilization, bitwise-checked against the dense engine).
* ``analyze``   — static verification: legality, race, schedule (the
  eager blocking HB certificate: DL01/DL02/DL04, HB01, HB02) and
  halo-bounds passes over the compiled program, without executing it
  (``--hb`` widens the schedule pass to the full certifier, HB01-HB03).
  Exits nonzero when any error-severity diagnostic is found.
* ``sanitize``  — replay a measured trace (``run --trace-out``)
  against the static happens-before graph; any event out of certified
  order is an HB04 error.
* ``figure``    — regenerate one of the paper's figures (5-10).
* ``compile``   — compile through the content-addressed artifact cache.
* ``tune``      — search the tiling cone for the tile shape the cost
  model, the simulator (and optionally a measured run) rank best.
* ``serve``     — long-running compile server over the artifact cache.

Apps are the paper's three benchmarks; sizes and tile factors come from
flags.  Examples::

    python -m repro info --app sor -s 100 200 -t 26 76 8 --shape nonrect
    python -m repro codegen --app adi -s 20 24 -t 4 6 6 --shape nr3 --kind mpi
    python -m repro simulate --app jacobi -s 50 100 100 -t 4 38 38 --shape rect
    python -m repro analyze --app sor -s 8 12 -t 2 3 4 --shape nonrect --json
    python -m repro figure fig6
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps import resolve_config


def _config(args):
    """``(app, H)`` named by the common flags; a bad one exits."""
    try:
        return resolve_config(args.app, args.sizes, args.shape, args.tile)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _compile(args):
    """``(app, program)``: the one compile of a CLI request."""
    from repro.runtime.executor import TiledProgram

    app, h = _config(args)
    return app, TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--app", required=True, choices=["sor", "jacobi", "adi"])
    p.add_argument("--sizes", "-s", type=int, nargs="+", required=True,
                   help="iteration-space sizes (sor: M N; jacobi: T I J; "
                        "adi: T N)")
    p.add_argument("--tile", "-t", type=int, nargs=3, required=True,
                   metavar=("X", "Y", "Z"), help="tile factors")
    p.add_argument("--shape", default="rect",
                   help="tiling shape (rect/nonrect or rect/nr1/nr2/nr3)")


def cmd_info(args) -> int:
    app, prog = _compile(args)
    ttis = prog.tiling.ttis
    if args.show_loop:
        from repro.loops.pretty import format_nest
        print(format_nest(app.nest))
        print()
    print(f"nest            : {app.nest.name}")
    print(f"dependences     : {app.nest.dependences}")
    print(f"tile volume     : {ttis.tile_volume}")
    print(f"V (TTIS box)    : {ttis.v}")
    print(f"strides c_k     : {ttis.c}")
    print(f"mapping dim m   : {prog.dist.m}")
    print(f"CC vector       : {prog.comm.cc}")
    print(f"LDS offsets     : {prog.comm.offsets}")
    print(f"D^S             : {prog.comm.d_s}")
    print(f"D^m             : {prog.comm.d_m}")
    print(f"processors      : {prog.num_processors} "
          f"(mesh of pids {prog.pids[0]} .. {prog.pids[-1]})")
    print(f"tiles           : {len(prog.dist.tiles)}")
    print(f"total points    : {prog.total_points()}")
    return 0


def cmd_codegen(args) -> int:
    from repro import codegen

    if args.kind == "sequential" and args.engine != "native":
        app, h = _config(args)      # needs the tiling only, no program
        print(codegen.generate_sequential_tiled_code(app.nest, h))
        return 0
    _app, prog = _compile(args)
    if args.engine == "native":
        # The native backend's generated artifact is the C translation
        # unit of the program's rank body (what gets compiled to the
        # cached .so) — print it regardless of --kind.
        from repro.native.emit import emit_translation_unit

        plan = emit_translation_unit(prog.nest, tuple(prog.arrays),
                                     prog.nest.name, prog.tiling)
        print(plan.source, end="")
    elif args.kind == "mpi":
        print(codegen.render_mpi_code(prog))
    else:
        print(codegen.render_python_node_programs(prog, engine=args.engine))
    return 0


def cmd_simulate(args) -> int:
    from repro.runtime.executor import DistributedRun
    from repro.runtime.machine import ClusterSpec
    from repro.runtime.metrics import format_metrics, metrics_from_stats

    _app, prog = _compile(args)
    spec = ClusterSpec(overlap=args.overlap)
    stats = DistributedRun(prog, spec).simulate()
    t_seq = spec.compute_time(prog.total_points())
    print(f"T_seq  = {t_seq:.6f}s")
    print(f"T_par  = {stats.makespan:.6f}s")
    print(f"speedup = {t_seq / stats.makespan:.3f} on "
          f"{prog.num_processors} processors")
    print(f"messages = {stats.total_messages}, elements = "
          f"{stats.total_elements}")
    print()
    print(format_metrics(metrics_from_stats(stats), top=args.ranks))
    return 0


def cmd_verify(args) -> int:
    """Execute with real data on the dense engine and compare against
    the sequential oracle, bitwise: any nonzero difference is a
    mismatch."""
    from repro.runtime.dataspace import dense_to_cells, max_abs_difference
    from repro.runtime.executor import DistributedRun
    from repro.runtime.interpreter import run_sequential
    from repro.runtime.machine import ClusterSpec

    app, prog = _compile(args)
    fields, stats = DistributedRun(prog, ClusterSpec()).execute_dense(
        app.init_value)
    arrays = dense_to_cells(fields)
    print("engine: dense")
    reference = run_sequential(app.nest, app.init_value)
    worst = 0.0
    for name in reference:
        diff = max_abs_difference(arrays[name], reference[name])
        cells = len(reference[name])
        print(f"array {name}: {cells} cells, max |diff| = {diff:.3e}")
        worst = max(worst, diff)
    print(f"messages exchanged: {stats.total_messages} "
          f"({stats.total_elements} elements)")
    if worst == 0.0:
        print("VERIFIED: distributed execution matches the sequential "
              "reference")
        return 0
    print("MISMATCH: distributed execution diverges from the reference")
    return 1


def cmd_run(args) -> int:
    """Execute on the chosen engine and print *measured* utilization.

    With ``--engine parallel`` this is the real thing: one OS process
    per processor, shared-memory halo exchange, wall-clock timings.
    Unless ``--no-check`` is given, the result is cross-checked bitwise
    (tol=0.0) against the dense engine; a mismatch exits nonzero.
    """
    from repro.analysis.verifier import VerificationError
    from repro.runtime.dataspace import arrays_match, dense_to_cells
    from repro.runtime.executor import DistributedRun
    from repro.runtime.machine import ClusterSpec
    from repro.runtime.metrics import format_metrics, metrics_from_stats
    from repro.runtime.rankstep import ParallelRuntimeError
    from repro.runtime.trace import EventTrace

    if args.overlap and args.engine != "parallel":
        raise SystemExit("--overlap requires --engine parallel")
    if args.trace_out and args.engine != "parallel":
        raise SystemExit("--trace-out requires --engine parallel")
    if args.certify and args.engine != "parallel":
        raise SystemExit("--certify requires --engine parallel")
    if args.native and args.engine not in ("parallel", "native"):
        raise SystemExit("--native requires --engine parallel "
                         "(or use --engine native)")
    app, prog = _compile(args)
    lib = None
    if args.engine == "native" or args.native:
        from repro.artifacts import ArtifactCache
        from repro.native.engine import build_native_library

        cache = (ArtifactCache(args.cache_dir)
                 if args.cache_dir else None)
        lib = build_native_library(prog, cache=cache)
        if lib.available:
            print(f"native  : {lib.status} "
                  + ("(cached .so, compiler skipped)"
                     if lib.status == "hit" else "(compiled)"))
            print(f"so      : {lib.so_path}")
        else:
            print(f"native  : fallback ({lib.fallback_reason}); "
                  f"running numpy kernels")
    trace = EventTrace() if args.trace_out else None
    # --overlap is the runtime *schedule* and travels as ``overlap=``
    # only; ``ClusterSpec.overlap`` is the simulator's NIC-offload cost
    # flag (it turns threshold rendezvous off and keys the certificate).
    run = DistributedRun(prog, ClusterSpec(), trace=trace)
    import time as _time
    t0 = _time.perf_counter()
    if args.engine == "parallel":
        try:
            fields, stats = run.execute_parallel(
                app.init_value, workers=args.workers,
                protocol=args.protocol, overlap=args.overlap,
                verify=args.certify, native=lib)
        except VerificationError as exc:
            print("run refused: the HB certificate rejects this "
                  "configuration", file=sys.stderr)
            print(exc.report.render_text(), file=sys.stderr)
            return 2
        except ParallelRuntimeError as exc:
            print(f"run aborted: {exc}", file=sys.stderr)
            return 2
        arrays = dense_to_cells(fields)
    else:
        fields, stats = run.execute_dense(app.init_value, native=lib)
        arrays = dense_to_cells(fields)
    wall = _time.perf_counter() - t0
    print(f"engine: {args.engine}"
          + (f" (workers={args.workers}, protocol={args.protocol}"
             + (", overlap" if args.overlap else "")
             + (", native" if lib is not None and lib.available
                else "") + ")"
             if args.engine == "parallel" else ""))
    print(f"wall-clock: {wall:.3f}s  processors: {prog.num_processors}")
    print(f"messages = {stats.total_messages}, elements = "
          f"{stats.total_elements}")
    print()
    print(format_metrics(metrics_from_stats(stats), top=args.ranks))
    if trace is not None:
        trace.save(args.trace_out)
        print(f"wrote {len(trace.events)} trace event(s) to "
              f"{args.trace_out}")
    if args.no_check:
        return 0
    ref_fields, ref_stats = DistributedRun(
        prog, ClusterSpec()).execute_dense(app.init_value)
    ok = arrays_match(arrays, dense_to_cells(ref_fields), tol=0.0)
    counts_ok = (stats.total_messages == ref_stats.total_messages
                 and stats.total_elements == ref_stats.total_elements)
    print()
    if ok and counts_ok:
        print("CHECK: bitwise identical to the dense engine "
              "(tol=0.0), event counts match")
        return 0
    if not ok:
        print("CHECK FAILED: results differ from the dense engine")
    if not counts_ok:
        print(f"CHECK FAILED: event counts differ "
              f"(messages {stats.total_messages} vs "
              f"{ref_stats.total_messages}, elements "
              f"{stats.total_elements} vs {ref_stats.total_elements})")
    return 1


def cmd_analyze(args) -> int:
    """Run the static verifier and render its report."""
    from repro.analysis import analyze

    app, h = _config(args)
    # --unskewed: the canonical way to watch the legality pass fire —
    # the paper's rectangular tilings are only legal after skewing.
    nest = app.original if args.unskewed else app.nest
    subject = (f"{args.app} sizes={args.sizes} tile={args.tile} "
               f"shape={args.shape}"
               + (" (unskewed nest)" if args.unskewed else ""))
    try:
        report = analyze(nest, h, mapping_dim=app.mapping_dim,
                         subject=subject, overlap=args.overlap,
                         hb=args.hb, cost=args.cost,
                         transval=args.transval)
    except ValueError as exc:
        # Defects outside the verifier's pass coverage (e.g. an empty
        # tile space) still surface as a failure, not a crash.
        print(f"analysis aborted: {exc}", file=sys.stderr)
        return 1
    print(report.to_json() if args.json else report.render_text())
    failed = bool(report.errors) or (args.fail_on_warn
                                     and bool(report.warnings))
    return 1 if failed else 0


def cmd_sanitize(args) -> int:
    """Replay a measured trace against the static HB graph (HB04)."""
    from repro.analysis.hb import sanitize_report
    from repro.runtime.trace import EventTrace

    try:
        trace = EventTrace.load(args.trace)
    except (OSError, ValueError) as exc:
        print(f"sanitize aborted: {exc}", file=sys.stderr)
        return 1
    _app, prog = _compile(args)
    subject = (f"{args.app} sizes={args.sizes} tile={args.tile} "
               f"shape={args.shape} trace={args.trace}")
    report = sanitize_report(prog, trace, protocol=args.protocol,
                             overlap=args.overlap, subject=subject)
    print(report.to_json() if args.json else report.render_text())
    return 1 if report.errors else 0


def cmd_figure(args) -> int:
    from repro.experiments import figures
    from repro.experiments.report import format_table

    fig_fn = getattr(figures, args.name, None)
    if fig_fn is None or not args.name.startswith("fig"):
        raise SystemExit("figure must be one of fig5..fig10")
    fig = fig_fn()
    print(format_table(fig))
    if args.csv:
        from repro.experiments.report import to_csv
        with open(args.csv, "w") as fh:
            fh.write(to_csv(fig))
        print(f"wrote {args.csv}")
    return 0


def cmd_compile(args) -> int:
    import time

    from repro.artifacts import ArtifactCache, content_key
    from repro.stages import report

    app, h = _config(args)
    cache = ArtifactCache(args.cache_dir)
    t0 = time.perf_counter()
    prog, status = cache.get_or_compile(app.nest, h, app.mapping_dim,
                                        verify=args.verify)
    elapsed = time.perf_counter() - t0
    key = content_key(app.nest, h, app.mapping_dim)
    print(f"key     : {key}")
    print(f"status  : {status}")
    print(f"elapsed : {elapsed*1e3:.1f} ms")
    print(f"tiles   : {len(prog.dist.tiles)}  "
          f"processors: {prog.num_processors}")
    print(f"artifact: {cache.path_for(key)}")
    print("stages  :")           # ms: the one fill, nested fills included
    for name, owner, state, ns in report(prog.tiling, prog):
        print(f"  {name:<18}{owner:<9}{state:<9}{ns/1e6:9.3f} ms")
    return 0


def cmd_tune(args) -> int:
    """Search the tiling cone for the best tile shape (``repro tune``).

    The ``--tile``/``--shape`` flags name the *baseline* tiling (the
    paper's hand-picked shape); the tuner explores legal alternatives
    from the cone and reports a winner that beats or matches it.  With
    ``--cache-dir`` the run is content-addressed: a warm re-tune is a
    byte-identical cache read with zero pipeline work, and the winning
    shape's compiled program lands in the same directory's artifact
    cache.
    """
    import json as _json

    from repro.runtime.machine import ClusterSpec
    from repro.tuning import TuneConfig, tune_or_load, tune_tile_shape

    app, baseline_h = _config(args)
    spec = ClusterSpec()
    config = TuneConfig(
        extents=tuple(args.extents),
        max_candidates=args.max_candidates,
        top_k=args.top_k,
        stop_ratio=args.stop_ratio,
        protocol=args.protocol,
        max_processors=args.max_processors,
        measure_top=args.measure,
        measure_workers=args.workers,
    )
    init = app.init_value if args.measure else None
    if args.cache_dir:
        report, status = tune_or_load(
            app.nest, app.mapping_dim, spec, config, args.cache_dir,
            baseline_h=baseline_h, init_value=init)
        print(f"source  : {status}", file=sys.stderr)
    else:
        result = tune_tile_shape(
            app.nest, app.mapping_dim, spec=spec, config=config,
            baseline_h=baseline_h, init_value=init)
        report = result.to_dict()
    if args.json:
        print(_json.dumps(report, sort_keys=True, indent=2))
        return 0
    counts = report["counts"]
    winner = report["winner"]
    baseline = report["baseline"]
    print(f"nest    : {report['nest']['name']} "
          f"(mapping dim {report['nest']['mapping_dim']})")
    print(f"space   : {counts['candidates']} candidate(s) kept of "
          f"{counts['generated']} generated "
          f"({counts['deduplicated']} deduplicated, "
          f"{counts['truncated']} truncated)")
    print(f"costed  : {counts['costed']}  rejected: {counts['rejected']}  "
          f"pruned after stop: {counts['pruned_after_stop']}")
    stop = report["early_stop"]
    if stop["fired"]:
        print(f"early stop: {stop['reason']}")
    print(f"simulated: {counts['simulator_evals']} frontier candidate(s)")
    print(f"winner  : {winner['label']}")
    print(f"          H rows: "
          + "; ".join("[" + ", ".join(
              str(n) if d == 1 else f"{n}/{d}" for n, d in row) + "]"
              for row in winner["h"]))
    print(f"          predicted {winner['predicted_makespan']:.6f}s, "
          f"simulated {winner['simulated_makespan']:.6f}s on "
          f"{winner['processors']} processors "
          f"(speedup {winner['speedup']:.3f})")
    if winner.get("measured_seconds") is not None:
        print(f"          measured {winner['measured_seconds']:.3f}s "
              f"wall-clock")
    if baseline is not None:
        b_sim = baseline["simulated_makespan"]
        if b_sim is not None:
            gain = b_sim / winner["simulated_makespan"]
            print(f"baseline: {baseline['label']} simulated {b_sim:.6f}s "
                  f"-> tuned shape is {gain:.2f}x")
        else:
            print(f"baseline: {baseline['label']} "
                  f"({baseline['status']}: {baseline['reason']})")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import run_server

    try:
        asyncio.run(run_server(args.cache_dir, args.host, args.port,
                               verify=args.verify))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tiled-iteration-space compiler for (simulated) "
                    "clusters — CLUSTER 2002 reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print compiled constants")
    _common_flags(p_info)
    p_info.add_argument("--show-loop", action="store_true",
                        help="also print the (skewed) nest as FOR loops")
    p_info.set_defaults(fn=cmd_info)

    p_cg = sub.add_parser("codegen", help="emit generated code")
    _common_flags(p_cg)
    p_cg.add_argument("--kind", choices=["sequential", "mpi", "python"],
                      default="mpi")
    p_cg.add_argument("--engine",
                      choices=["sparse", "dense", "dense-overlap",
                               "native"],
                      default="sparse",
                      help="for --kind python: also burn the dense "
                           "engine's wavefront slices into the "
                           "emitted schedule (dense-overlap adds the "
                           "per-level boundary slice sizes); native "
                           "prints the C tile-kernel translation unit "
                           "the native backend compiles to a shared "
                           "object")
    p_cg.set_defaults(fn=cmd_codegen)

    p_sim = sub.add_parser("simulate", help="run on the virtual cluster")
    _common_flags(p_sim)
    p_sim.add_argument("--overlap", action="store_true",
                       help="enable computation/communication overlap")
    p_sim.add_argument("--ranks", type=int, default=8,
                       help="utilization rows to print")
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser(
        "verify", help="run with real data and check against a "
                       "sequential reference")
    _common_flags(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_run = sub.add_parser(
        "run", help="execute with real data on a chosen engine and "
                    "print measured utilization")
    _common_flags(p_run)
    p_run.add_argument("--engine",
                       choices=["parallel", "dense", "native"],
                       default="parallel",
                       help="parallel = real OS processes + "
                            "shared-memory halo exchange; dense = the "
                            "single-process engine; native = the "
                            "dense engine with compiled shared-object "
                            "tile kernels (numpy fallback without a C "
                            "compiler)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="max worker processes for --engine "
                            "parallel (default: one per processor, "
                            "capped at the host CPU count)")
    p_run.add_argument("--protocol",
                       choices=["spec", "eager", "rendezvous"],
                       default="spec",
                       help="mailbox protocol: eager, rendezvous, or "
                            "per-message by the cluster spec's "
                            "threshold")
    p_run.add_argument("--overlap", action="store_true",
                       help="overlapped schedule for --engine "
                            "parallel: each tile runs its compile-time "
                            "phase table — boundary points first, one "
                            "zero-copy gather per message published "
                            "before the interior, lazy halo unpacking "
                            "(bitwise identical results)")
    p_run.add_argument("--native", action="store_true",
                       help="with --engine parallel: workers run the "
                            "compiled shared-object tile kernels over "
                            "the same LDS buffers and rings (bitwise "
                            "identical; numpy fallback without a C "
                            "compiler)")
    p_run.add_argument("--cache-dir", default=None,
                       help="content-addressed cache directory for the "
                            "native .so (default: $REPRO_CACHE_DIR or "
                            "a per-user temp dir)")
    p_run.add_argument("--no-check", "--no-crosscheck",
                       dest="no_check", action="store_true",
                       help="skip the bitwise cross-check against the "
                            "dense engine (the check re-runs the whole "
                            "problem single-process, roughly doubling "
                            "wall time on large configs; see "
                            "docs/RUNTIME.md)")
    p_run.add_argument("--ranks", type=int, default=8,
                       help="utilization rows to print")
    p_run.add_argument("--trace-out", default=None,
                       help="write the measured event trace "
                            "(versioned JSON) for 'repro sanitize'; "
                            "requires --engine parallel")
    p_run.add_argument("--certify", action="store_true",
                       help="certify the schedule happens-before "
                            "clean (HB01/HB02) before forking any "
                            "worker; requires --engine parallel")
    p_run.set_defaults(fn=cmd_run)

    p_ana = sub.add_parser(
        "analyze", help="static verification: race, deadlock and "
                        "halo-bounds passes (no execution)")
    _common_flags(p_ana)
    p_ana.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    p_ana.add_argument("--unskewed", action="store_true",
                       help="check the tiling against the original "
                            "(unskewed) nest instead of the skewed one")
    p_ana.add_argument("--transval", action="store_true",
                       help="also translation-validate freshly emitted "
                            "C+MPI/Python code and the native kernel "
                            "translation unit against the symbolic "
                            "pipeline (TV01-TV05 passes)")
    p_ana.add_argument("--overlap", action="store_true",
                       help="also verify the overlapped-execution "
                            "plans (OV02-OV03: commit-level and "
                            "publish legality, phase order, "
                            "lazy-unpack safety)")
    p_ana.add_argument("--hb", action="store_true",
                       help="widen the schedule pass from the eager "
                            "blocking certificate to the full "
                            "happens-before certifier (HB01 races and "
                            "HB02 wait cycles on the overlapped "
                            "schedule too, rendezvous-only cycles as "
                            "HB02 warnings, plus the HB03 mailbox-ring "
                            "model verdict)")
    p_ana.add_argument("--cost", action="store_true",
                       help="also run the static cost certifier "
                            "(COST01 per-edge volumes, COST02 rank "
                            "volumes/imbalance, COST03 simulated "
                            "makespan, COST04 lower-bound verdict); "
                            "the certificate lands in the JSON "
                            "report's meta.cost")
    p_ana.add_argument("--fail-on-warn", action="store_true",
                       help="exit nonzero on warning diagnostics too, "
                            "not only on errors")
    p_ana.set_defaults(fn=cmd_analyze)

    p_san = sub.add_parser(
        "sanitize", help="replay a measured trace against the static "
                         "happens-before graph (HB04)")
    _common_flags(p_san)
    p_san.add_argument("--trace", required=True,
                       help="trace file written by "
                            "'repro run --trace-out'")
    p_san.add_argument("--protocol",
                       choices=["spec", "eager", "rendezvous"],
                       default="spec",
                       help="protocol the trace was measured under")
    p_san.add_argument("--overlap", action="store_true",
                       help="the trace was measured with --overlap")
    p_san.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    p_san.set_defaults(fn=cmd_sanitize)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name", help="fig5 .. fig10")
    p_fig.add_argument("--csv", help="also write the series as CSV")
    p_fig.set_defaults(fn=cmd_figure)

    p_comp = sub.add_parser(
        "compile",
        help="compile through the content-addressed artifact cache")
    _common_flags(p_comp)
    p_comp.add_argument("--cache-dir", required=True,
                        help="artifact cache directory")
    p_comp.add_argument("--verify", action="store_true",
                        help="run the static verifier (legality, races, "
                             "eager deadlock, halo bounds) on cache "
                             "misses (hits reuse the stored, "
                             "already-verified program)")
    p_comp.set_defaults(fn=cmd_compile)

    p_tune = sub.add_parser(
        "tune",
        help="autotune the tile shape over the tiling cone "
             "(cost -> simulate -> measure pruning ladder)")
    _common_flags(p_tune)
    p_tune.add_argument("--extents", type=int, nargs="+",
                        default=[1, 2, 3, 4],
                        help="per-row scale multipliers swept per "
                             "direction basis")
    p_tune.add_argument("--max-candidates", type=int, default=48,
                        help="candidate cap after deduplication")
    p_tune.add_argument("--top-k", type=int, default=None,
                        help="frontier size to simulate (default: an "
                             "eighth of the costed candidates)")
    p_tune.add_argument("--stop-ratio", type=float, default=1.25,
                        help="stop costing once the best candidate is "
                             "within this factor of the Dinh & Demmel "
                             "communication lower bound")
    p_tune.add_argument("--protocol",
                        choices=["spec", "eager", "rendezvous"],
                        default="spec",
                        help="protocol analyzed by the cost certifier "
                             "and the simulator")
    p_tune.add_argument("--max-processors", type=int, default=None,
                        help="reject shapes needing more ranks "
                             "(default: max of the cluster size and "
                             "the baseline's rank count)")
    p_tune.add_argument("--measure", type=int, default=0, metavar="N",
                        help="run the N best finalists on the real "
                             "parallel backend as the oracle")
    p_tune.add_argument("--workers", type=int, default=None,
                        help="worker processes for --measure")
    p_tune.add_argument("--cache-dir", default=None,
                        help="content-address the tuning record (and "
                             "the winner's compiled artifact) under "
                             "this directory")
    p_tune.add_argument("--json", action="store_true",
                        help="emit the full tuning report as JSON")
    p_tune.set_defaults(fn=cmd_tune)

    p_srv = sub.add_parser(
        "serve",
        help="long-running compile server over the artifact cache")
    p_srv.add_argument("--cache-dir", required=True,
                       help="artifact cache directory")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 = pick a free port)")
    p_srv.add_argument("--verify", action="store_true",
                       help="run the static verifier (legality, races, "
                            "eager deadlock, halo bounds) on cache "
                            "misses")
    p_srv.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
