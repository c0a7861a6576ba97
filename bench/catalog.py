"""The benchmark's catalogue: workloads, end-to-end and per-layer metrics.

Single source for ``BENCHMARK.json`` (``python3 bench/catalog.py`` prints
it; ``bench/run.py --selftest`` checks the committed file against it),
for what a worker must emit, and for the README glossary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from tracing import LAYERS

RUN_SECONDS = 8

#: name -> (why, the ISSUE's name for this workload's timed body).
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "sor_native": (
        "paper 4.1 SOR 150x300 nonrect 26x76x8, dense engine on compiled "
        "kernels: per-tile Python dispatch in runtime+native is >=90% of "
        "the body, compile <3%", "run_s"),
    "adi_numpy": (
        "ADI 48x128 nr3 8x32x32 on the numpy wavefront path, no native "
        "library: the compiler-less fallback on a two-array nest; native "
        "self-time must read 0", "run_s"),
    "jacobi_parallel": (
        "Jacobi 100x200x200 nonrect 5x20x20, 226 ranks on 2 worker "
        "processes, blocking sends: ring wait, pack/unpack, fork and shm "
        "set-up dominate, compute is minor", "run_s"),
    "jacobi_overlap": (
        "same program and workers with overlap=True, its own workload so a "
        "gain for one schedule that costs the other shows in a bounded "
        "metric", "run_overlap_s"),
    "compile_cold": (
        "7 cold get_or_compile + native-build misses into a fresh cache "
        "(SOR, Jacobi, ADI, rect and nonrect): polyhedra/linalg/tiling/"
        "distribution/artifacts writes, nothing executes", "compile_s"),
    "certify": (
        "time to verdict of the 7 good programs (analyze_program hb+cost+"
        "overlap, transval_report) and 2 known-bad nests (LEG01): analysis "
        "and codegen do all the work", "certify_s"),
    "compile_warm": (
        "280 shuffled warm get_or_compile hits over the 7 keys: artifact "
        "key, read and restore; work moved from restore into snapshot shows "
        "as compile_cold up", "280*warm_load_s"),
    "tune_ladder": (
        "five cold tile-shape searches (EXPERIMENTS.md rows, a larger ADI, "
        "one exhaustive SOR): tuning candidates + cost closed forms + the "
        "vMPI simulator, runtime used a third way", "tune_s"),
}

#: Every workload reports all three (the driver's contract); ``bound`` is
#: the relative worsening of the median that counts as a regression.
#: ``body_cal`` is the workload's timed body -- one ISSUE metric each, see
#: above -- in units of an interleaved calibration loop
#: (``workloads.Clock``); its seconds are printed under the ISSUE's name.
#: Its bound is twice the widest ten-run spread seen on this host
#: (quartile distance 2-10 % of the median; plain seconds: 3-19 %, see
#: ``SPREAD.json``); the driver refuses a bound the spread does not fit.
END_TO_END: List[Dict[str, Any]] = [
    {"name": "body_cal", "unit": "ratio", "better": "lower", "bound": 0.20},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
     "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# name, unit, better, exact, "moves <end-to-end> on <workload>"
_STAGES = [
    ("tiling.legality_s", "check_legal_tiling"),
    ("tiling.transform_s", "TilingTransformation"),
    ("polyhedra.fm_s", "tile_space_bounds (FM projection + loop_bounds)"),
    ("linalg.hnf_s", "column_hnf(H')"),
    ("distribution.build_s", "ComputationDistribution+CommunicationSpec+"
                             "DistributedAddressing"),
    ("runtime.rank_plans_s", "build_rank_plans"),
    ("artifacts.key_s", "content_key"),
    ("artifacts.snapshot_s", "snapshot_program"),
    ("artifacts.write_s", "write_artifact"),
    ("artifacts.read_s", "read_artifact"),
    ("artifacts.restore_s", "restore_program"),
    ("analysis.verify_s", "verify_program"),
    ("analysis.overlap_s", "check_overlap"),
    ("analysis.hb_s", "check_hb"),
    ("analysis.cost_s", "cost_certificate"),
    ("analysis.transval_s", "transval_report"),
    ("codegen.mpi_s", "generate_mpi_code"),
    ("codegen.seq_s", "generate_sequential_tiled_code"),
    ("codegen.pygen_s", "generate_python_node_programs"),
    ("native.emit_s", "emit_translation_unit"),
    ("native.cc_s", "compile_shared_object"),
    ("native.build_hit_s", "build_native_library on a warm key"),
    ("native.runtime_init_s", "lib.runtime(program, init)"),
    ("runtime.simulate_s", "DistributedRun.simulate"),
]
STAGE_NAMES = tuple(name for name, _ in _STAGES)

_BUILD_MOVES = "body_cal on compile_cold; setup_s on the run workloads"
_MOVES = {
    "tiling": _BUILD_MOVES, "polyhedra": _BUILD_MOVES,
    "linalg": _BUILD_MOVES, "distribution": _BUILD_MOVES,
    "artifacts": "read/restore/key: body_cal on compile_warm; "
                 "snapshot/write: body_cal on compile_cold",
    "analysis": "body_cal on certify; cost_s also body_cal on tune_ladder",
    "codegen": "body_cal on certify",
    "native": "body_cal on sor_native/jacobi_*; emit/cc: body_cal on "
              "compile_cold and setup_s on the native runs; 0 on adi_numpy",
    "runtime": "body_cal on sor_native, adi_numpy, jacobi_*; simulate_s: "
               "body_cal on tune_ladder",
    "tuning": "body_cal on tune_ladder",
    "apps": "body_cal on the run workloads (per-cell init_value fills)",
    "loops": "none expected (IR construction only)",
    "schedule": "none expected (not on any benchmarked path)",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _per_layer() -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []

    def add(name: str, unit: str, better: str = "lower",
            exact: bool = False, moves: str = "") -> None:
        out.append({"name": name, "unit": unit, "better": better,
                    "exact": exact, "layer": _layer(name),
                    "moves": moves or _MOVES.get(_layer(name), "")})

    for layer in LAYERS:
        add(f"{layer}.self_s", "s")
        add(f"{layer}.calls", "count")
    add("trace.overhead_ratio", "ratio",
        moves="none: traced / untraced body time of the same run")
    for name, what in _STAGES:
        add(name, "s", moves=f"{what}: {_MOVES[_layer(name)]}")
    par = "body_cal on jacobi_parallel and jacobi_overlap"
    add("runtime.par.makespan_s", "s", moves=par)
    add("runtime.par.compute_s", "s",
        moves=par + " (at most its share of the critical path)")
    add("runtime.par.comm_wait_s", "s", moves=par)
    add("runtime.par.overhead_s", "s", moves=par + " (fork, shm, collect)")
    add("runtime.par.w1_s", "s", moves="none: one-worker denominator")
    add("runtime.par.scaling_eff", "ratio", "higher", moves=par)
    add("ref.c_loop_s", "s",
        moves="none: hand-written untiled C loop, same problem")
    add("ref.c_ratio", "ratio",
        moves="none: body seconds / ref.c_loop_s on the run workloads")
    add("analysis.cost.bound_ratio", "ratio",
        moves="none: COST04 actual / Dinh-Demmel elements, mean over the "
              "workload's programs")
    exact = [
        ("tiling.tiles", "count", "lower"),
        ("distribution.processors", "count", "lower"),
        ("distribution.lds_cells", "count", "lower"),
        ("runtime.points", "count", "lower"),
        ("runtime.par.messages", "count", "lower"),
        ("runtime.par.elements", "count", "lower"),
        ("runtime.par.edges", "count", "lower"),
        ("analysis.diagnostics", "count", "lower"),
        ("codegen.mpi_bytes", "bytes", "lower"),
        ("native.source_bytes", "bytes", "lower"),
        ("native.so_bytes", "bytes", "lower"),
        ("artifacts.bytes", "bytes", "lower"),
        ("artifacts.hits", "count", "higher"),
        ("artifacts.misses", "count", "lower"),
        ("artifacts.hit_ratio", "ratio", "higher"),
        ("tuning.generated", "count", "lower"),
        ("tuning.costed", "count", "lower"),
        ("tuning.sim_evals", "count", "lower"),
        ("tuning.early_stops", "count", "higher"),
    ]
    for name, unit, better in exact:
        moves = {"distribution.lds_cells": "peak_rss_mib on runs",
                 "artifacts.bytes": "peak_rss_mib on compile_cold",
                 }.get(name, "")
        add(name, unit, better, exact=True, moves=moves)
    return out


PER_LAYER = _per_layer()
PER_LAYER_NAMES = tuple(m["name"] for m in PER_LAYER)


def benchmark_json() -> Dict[str, Any]:
    """The driver-facing ``BENCHMARK.json`` (exactly its six keys)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, (why, _) in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
