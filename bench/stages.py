"""Stage replay: one span per pipeline stage, taken from outside.

``TiledProgram._build`` and the layers around it are replayed stage by
stage through their public functions, each call wrapped in a span named
``<layer>.<stage>_s`` (the catalogue's stage metrics).  A stage's number
is therefore the cost of that public call on a fresh input, not a slice
of some larger call — stages that cache on the program (rank plans,
region counts) are replayed in the order the pipeline first reaches
them.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Sequence

from tracing import SpanLog
from workloads import APPS, Env, Request

from repro.analysis import check_hb, check_overlap, transval_report, \
    verify_program
from repro.artifacts import (
    ArtifactCache,
    content_key,
    read_artifact,
    restore_program,
    snapshot_program,
    write_artifact,
)
from repro.codegen.parallel import generate_mpi_code
from repro.codegen.pygen import generate_python_node_programs
from repro.codegen.sequential import generate_sequential_tiled_code
from repro.distribution.communication import CommunicationSpec
from repro.distribution.computation import ComputationDistribution
from repro.distribution.data import DistributedAddressing
from repro.linalg.hermite import column_hnf
from repro.native.compile import compile_shared_object, find_compiler
from repro.native.emit import emit_translation_unit
from repro.native.engine import build_native_library
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.parallel import build_rank_plans
from repro.tiling import TilingTransformation, check_legal_tiling


def replay(requests: Iterable[Request], groups: Sequence[str],
           log: SpanLog, env: Env) -> Dict[str, float]:
    """Replay the build stages and the optional ``groups`` for every
    request; returns the extra counts only the replay sees (emitted MPI
    bytes, COST04 ratios)."""
    mpi_bytes = 0
    ratios: List[float] = []
    for req in requests:
        rid = req.rid
        nest, h, mdim = req.build()
        root = env.fresh_dir("replay-")
        with log.span("tiling.legality_s", rid):
            check_legal_tiling(h, nest.dependences)
        with log.span("tiling.transform_s", rid):
            tiling = TilingTransformation(h, nest.domain)
        with log.span("polyhedra.fm_s", rid):
            tiling.tile_space_bounds()
        with log.span("linalg.hnf_s", rid):
            column_hnf(tiling.ttis.h_prime)
        with log.span("distribution.build_s", rid):
            dist = ComputationDistribution(tiling, mdim)
            comm = CommunicationSpec(tiling, nest.dependences, dist.m)
            DistributedAddressing(dist, comm)
        prog = TiledProgram(nest, h, mdim)
        with log.span("runtime.rank_plans_s", rid):
            build_rank_plans(prog)
        if "artifacts" in groups:
            path = os.path.join(root, "replay.tpa")
            with log.span("artifacts.key_s", rid):
                key = content_key(nest, h, mdim)
            with log.span("artifacts.snapshot_s", rid):
                payload = snapshot_program(prog, mdim, key=key)
            with log.span("artifacts.write_s", rid):
                write_artifact(path, payload)
            with log.span("artifacts.read_s", rid):
                payload = read_artifact(path, expected_key=key)
            with log.span("artifacts.restore_s", rid):
                restore_program(nest, h, payload)
        if "native" in groups:
            with log.span("native.emit_s", rid):
                plan = emit_translation_unit(
                    nest, tuple(prog.arrays), nest.name)
            with log.span("native.cc_s", rid):
                compile_shared_object(find_compiler(), plan.source,
                                      os.path.join(root, "replay.so"))
            cache = ArtifactCache(os.path.join(root, "native"))
            build_native_library(prog, cache=cache)
            with log.span("native.build_hit_s", rid):
                lib = build_native_library(prog, cache=cache)
            with log.span("native.runtime_init_s", rid):
                lib.runtime(prog, env.shifted(
                    APPS[req.app_name].init_value))
        if "analysis" in groups:
            with log.span("analysis.verify_s", rid):
                verify_program(prog)
            with log.span("analysis.overlap_s", rid):
                check_overlap(prog)
            with log.span("analysis.hb_s", rid):
                check_hb(prog)
            with log.span("analysis.transval_s", rid):
                transval_report(nest, h, mapping_dim=mdim)
        if "cost" in groups:
            with log.span("analysis.cost_s", rid):
                cert = prog.cost_certificate()
            if cert.bound.applicable:
                ratios.append(cert.bound.ratio)
        if "codegen" in groups:
            with log.span("codegen.mpi_s", rid):
                text = generate_mpi_code(nest, h, mapping_dim=mdim)
            mpi_bytes += len(text.encode())
            with log.span("codegen.seq_s", rid):
                generate_sequential_tiled_code(nest, h)
            with log.span("codegen.pygen_s", rid):
                generate_python_node_programs(nest, h, mapping_dim=mdim)
        if "simulate" in groups:
            run = DistributedRun(prog, ClusterSpec())
            with log.span("runtime.simulate_s", rid):
                run.simulate()
    extra: Dict[str, Any] = {}
    if "codegen" in groups:
        extra["codegen.mpi_bytes"] = mpi_bytes
    if ratios:
        extra["analysis.cost.bound_ratio"] = sum(ratios) / len(ratios)
    return extra
