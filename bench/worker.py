"""One workload in one fresh process (spawned by ``run.py``).

Untraced (``--trace 0``): one set-up and one untimed first pass, then
passes of the timed body until ``--seconds`` are used (at least the
workload's ``min_samples``); every end-to-end number is a median over
those passes.  Traced (``--trace 1``): one untraced and one profiled pass
of the same body (their ratio is the tracing overhead), then the stage
replay; only per-layer numbers come out of it.  The result goes to
``<scratch>/result.json`` for the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# What each workload is there to stress; the traced run fails when its
# layer shares stop saying so (share = layer self time / traced body).
# Thresholds sit beside the shares measured when the benchmark was defined
# (sor_native 0.90; runtime 0.06 on compile_cold, 0.01 on compile_warm and
# 0.25 on certify, whose overlap and happens-before checks walk the rank
# plans that live in repro.runtime) with room for tracing noise.


def _nothing_executes(runtime_max: float) -> Tuple[str, Any]:
    return (f"nothing executes: apps == 0, runtime <= {runtime_max}",
            lambda sh, calls: calls["apps"] == 0
            and sh["runtime"] <= runtime_max)


SENSITIVITY = {
    "sor_native": ("runtime+native+apps >= 0.85 of the body",
                   lambda sh, calls: sh["runtime"] + sh["native"]
                   + sh["apps"] >= 0.85),
    "adi_numpy": ("native == 0 on the numpy path",
                  lambda sh, calls: calls["native"] == 0),
    "compile_cold": _nothing_executes(0.10),
    "certify": _nothing_executes(0.35),
    "compile_warm": _nothing_executes(0.10),
}


def _peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _pass(wl: Any, ops: Any) -> Tuple[float, float]:
    """One calibrated, verified pass: its seconds and calibration units."""
    from workloads import Clock
    gc.collect()
    clock = Clock(wl.procs)
    wl.timed(clock)
    wl.verify(ops)
    return clock.raw_s, clock.cal


def measure(wl: Any, env: Any, ops: Any, seconds: float,
            spawned_at_ns: int) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics and their detail."""
    wl.setup(env, ops)
    wl.warmup(ops)
    setup_s = (time.time_ns() - spawned_at_ns) / 1e9

    samples: List[Tuple[float, float]] = []
    begin = time.perf_counter_ns()
    while (len(samples) < wl.min_samples
           or (time.perf_counter_ns() - begin) / 1e9 < seconds):
        samples.append(_pass(wl, ops))

    raw = [r for r, _ in samples]
    cal = [c for _, c in samples]
    body_s = statistics.median(raw)
    return {
        "metrics": {
            "body_cal": {"value": statistics.median(cal), "unit": "ratio"},
            "peak_rss_mib": {"value": _peak_rss_mib(), "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
        "detail": {
            "n": len(samples), "body_s": body_s,
            "body_quartiles_s": statistics.quantiles(raw, n=4),
            "body_cal_quartiles": statistics.quantiles(cal, n=4),
            "samples_s": raw, "samples_cal": cal,
            "derived": wl.derived(body_s),
        },
        "exact": wl.counts(),
    }


def trace(wl: Any, env: Any, ops: Any) -> Dict[str, Any]:
    """The traced run: per-layer metrics, spans and the layer shares.
    A metric the workload does not exercise is left out, not zeroed."""
    import stages
    from catalog import PER_LAYER, STAGE_NAMES
    from tracing import LAYERS, LayerProfiler, SpanLog
    from workloads import Clock

    wl.setup(env, ops)
    wl.warmup(ops)
    untraced_s, _ = _pass(wl, ops)
    par = wl.par_stats()
    gc.collect()
    clock = Clock(0)
    with LayerProfiler(os.path.join(SRC_DIR, "repro")) as prof:
        wl.timed(clock)
    wl.verify(ops)
    counts = wl.counts()

    values: Dict[str, float] = {}
    self_s = prof.self_s()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = prof.calls[layer]
    values["trace.overhead_ratio"] = clock.raw_s / untraced_s

    log = SpanLog()
    requests, groups = wl.replay_plan()
    values.update(stages.replay(requests, groups, log, env))
    replayed = {span["name"] for span in log.spans}
    for name in STAGE_NAMES:
        if name in replayed:
            values[name] = log.total_s(name)
    values.update(counts)

    if par is not None:
        values["runtime.par.makespan_s"] = par.makespan
        values["runtime.par.compute_s"] = sum(par.compute_time.values())
        values["runtime.par.comm_wait_s"] = sum(par.comm_time.values())
        values["runtime.par.overhead_s"] = untraced_s - par.makespan
        gc.collect()
        w1 = wl.timed_one_worker()
        wl.verify(ops)
        values["runtime.par.w1_s"] = w1
        values["runtime.par.scaling_eff"] = w1 / (wl.workers * untraced_s)
    if wl.ref is not None:
        values["ref.c_loop_s"] = wl.ref.c_loop_s
        values["ref.c_ratio"] = untraced_s / wl.ref.c_loop_s

    total_s = prof.total_ns / 1e9
    share = {layer: self_s[layer] / total_s for layer in LAYERS}
    share["harness"] = prof.self_ns[None] / 1e9 / total_s
    rule = SENSITIVITY.get(wl.name)
    if rule is not None:
        ops.record(f"sensitivity {wl.name}", rule[1](share, prof.calls),
                   f"{rule[0]}; shares {share}")

    units = {m["name"]: m["unit"] for m in PER_LAYER}
    with open(os.path.join(OUT_DIR, f"trace-{wl.name}.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": env.seed,
                   "traced_body_s": total_s, "untraced_body_s": untraced_s,
                   "layer_self_s": self_s, "layer_calls": prof.calls,
                   "spans": log.spans}, fh, indent=1)
    return {
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
        "detail": {"layer_share": share, "untraced_body_s": untraced_s,
                   "traced_body_s": clock.raw_s},
        "exact": counts,
    }


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", required=True,
                    help="directory for caches, builds and result.json "
                         "(the parent removes it)")
    ap.add_argument("--spawned-at-ns", type=int, required=True,
                    help="parent's time.time_ns() just before the spawn")
    args = ap.parse_args(argv)

    sys.path[:0] = [BENCH_DIR, SRC_DIR]
    gc.disable()
    import workloads

    ops = workloads.Ops()
    result: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    try:
        wl = workloads.make(args.workload)
        env = workloads.Env(args.seed, args.scratch)
        if args.trace:
            result.update(trace(wl, env, ops))
        else:
            result.update(measure(wl, env, ops, args.seconds,
                                  args.spawned_at_ns))
    except Exception:   # boundary: the failure is the result
        ops.record("exception", False, traceback.format_exc())
    result["ops"] = {"attempted": ops.attempted, "failed": ops.failed,
                     "failures": ops.failures}
    with open(os.path.join(args.scratch, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
