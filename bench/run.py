#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark.

    python3 bench/run.py                      all workloads, untraced
    python3 bench/run.py --trace              all workloads, traced run
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest           C references vs apps.reference

Each workload runs in a fresh subprocess (cold imports, its own peak RSS,
a timeout that records a failure instead of hanging the set) with fresh
cache directories under ``bench/out`` that are removed afterwards.  Every
output is checked against an independent oracle; every metric is printed
by name with its unit.  With ``--workload`` the last line of standard
output is the driver's JSON object.  Nothing outside ``bench/`` is
modified; the program under test is reached through ``src/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import oracle  # noqa: E402

#: A worker that has not finished by then is killed and counted as one
#: failed operation (the driver's cap per run is 180 s).
WORKER_TIMEOUT_S = 165.0


def _shm_segments() -> set:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except OSError:
        return set()


def _shm_mapped() -> set:
    """Segments some live process still maps: another program's, in use."""
    mapped = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/maps") as fh:
                mapped.update(line.rsplit("/", 1)[-1].split()[0]
                              for line in fh if "/dev/shm/psm_" in line)
        except OSError:     # gone, or not ours to read
            continue
    return mapped


def run_workload(name: str, seed: int, seconds: float,
                 trace: int) -> Dict[str, Any]:
    """Spawn the worker for one workload and return its result dict."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT_DIR)
    out_path = os.path.join(scratch, "result.json")
    env = dict(os.environ, TMPDIR=scratch)   # cc and tempfile stay inside
    env.pop("REPRO_CACHE_DIR", None)
    before = _shm_segments()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch,
           "--spawned-at-ns", str(time.time_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    problem = ""
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        if rc != 0:
            problem = f"worker exited {rc}"
    except subprocess.TimeoutExpired:
        problem = f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"
    finally:
        # The worker leads its own session: take its forked ranks with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result: Dict[str, Any] = {"workload": name, "seed": seed,
                              "trace": trace, "metrics": {},
                              "ops": {"attempted": 0, "failed": 0,
                                      "failures": []}}
    try:
        with open(out_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        problem = problem or "worker wrote no result"
    ops = result["ops"]
    if problem:
        ops["attempted"] += 1
        ops["failed"] += 1
        ops["failures"].append(problem)
    # The worker's session is dead: a new segment nobody maps is its leak.
    # Reported, never unlinked -- the name does not say whose it is.
    leaked = _shm_segments() - before
    if leaked:
        leaked -= _shm_mapped()
    ops["attempted"] += 1
    if leaked:
        ops["failed"] += 1
        ops["failures"].append(
            f"leaked /dev/shm segments: {sorted(leaked)}")
    shutil.rmtree(scratch, ignore_errors=True)
    if trace and "layer_share" in result.get("detail", {}):
        _merge_layer_share(name, result["detail"]["layer_share"])
    return result


def _merge_layer_share(name: str, share: Dict[str, float]) -> None:
    path = os.path.join(OUT_DIR, "layer_share.json")
    try:
        with open(path) as fh:
            table = json.load(fh)
    except (OSError, ValueError):
        table = {}
    table[name] = share
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)


def host_facts() -> Dict[str, Any]:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cc": oracle.cc_version(),
            "platform": platform.platform()}


def report_lines(result: Dict[str, Any]) -> List[str]:
    """Every metric of one workload by name, with its unit."""
    name = result["workload"]
    ops = result["ops"]

    def line(metric: str, value: float, unit: str) -> str:
        return f"{name:<16} {metric:<28} {value:>14.6g} {unit}"

    lines = [line(metric, mv["value"], mv["unit"])
             for metric, mv in result["metrics"].items()]
    detail = result.get("detail", {})
    if "body_s" in detail:
        # Seconds: the body under the ISSUE's name for it, and its parts.
        alias = catalog.WORKLOADS[name][1]
        q = detail["body_quartiles_s"]
        lines.append(line(f"body_s = {alias}", detail["body_s"], "s")
                     + f"  (quartiles {q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
                       f" over n={detail['n']})")
        for part, value in detail["derived"].items():
            lines.append(line(part, value,
                              "ns" if part.startswith("ns_") else "s"))
    share = ops["failed"] / ops["attempted"] if ops["attempted"] else 1.0
    lines.append(line("failed_share", share, "ratio")
                 + f" ({ops['failed']} of {ops['attempted']} operations)")
    lines.extend(f"{name:<16} FAILED {msg}" for msg in ops["failures"])
    return lines


def selftest() -> int:
    """C references vs ``apps.<app>.reference`` at tolerance 0.0, and the
    committed ``BENCHMARK.json`` vs the catalogue."""
    sys.path.insert(0, SRC_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-selftest-", dir=OUT_DIR)
    try:
        errs = oracle.selftest(oracle.build(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bad = 0
    for app, err in errs.items():
        print(f"selftest ref/{app}.c vs apps.{app}.reference: "
              f"max_abs_err {err}")
        bad += err != 0.0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        same = json.load(fh) == catalog.benchmark_json()
    print(f"selftest BENCHMARK.json matches bench/catalog.py: {same}")
    return 1 if bad or not same else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(catalog.WORKLOADS),
                    help="run one workload and end with the driver's "
                         "JSON line (default: all of them)")
    ap.add_argument("--seed", type=int, default=0,
                    help="shuffles request order, offsets initial data")
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                    help="how long the timed passes of one run last")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="the traced, per-layer run")
    ap.add_argument("--json", metavar="OUT",
                    help="also write the full results to this file")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"bench: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    try:
        oracle.find_cc()
        if args.selftest:
            return selftest()
    except oracle.OracleError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        results.append(result)
        print("\n".join(report_lines(result)), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"host": host_facts(), "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "catalog": {"workloads": catalog.WORKLOADS,
                                   "end_to_end": catalog.END_TO_END,
                                   "per_layer": catalog.PER_LAYER},
                       "results": results}, fh, indent=1)
    failed = sum(r["ops"]["failed"] for r in results)
    if not args.workload:
        return 1 if failed else 0

    # Driver mode: the result line, whenever there is a result to give.
    # The driver wants every per-layer metric on every workload; the ones
    # a workload does not exercise (left out of the report above) read 0.
    result = results[0]
    got = result["metrics"]
    if args.trace:
        want = {m["name"]: {"value": 0.0, "unit": m["unit"]}
                for m in catalog.PER_LAYER}
        complete = "trace.overhead_ratio" in got
    else:
        want = {m["name"]: None for m in catalog.END_TO_END}
        complete = set(got) == set(want)
    if not complete:
        print("bench: the worker produced no complete result",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["ops"]["attempted"],
        "failed": failed,
        "metrics": {k: got.get(k, zero) for k, zero in want.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
