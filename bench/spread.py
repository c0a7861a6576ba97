#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: ten seeds per workload.

    python3 bench/spread.py [--seeds 1 2 .. 10] [--seconds S] [--out FILE]

The driver's own acceptance test: per (workload, metric) the distance
between the first and third quartile of the ten values
(``statistics.quantiles(values, n=4)``) as a share of their median must
stay within the metric's bound (``setup_s`` is reported, not held).  The
body's plain seconds are listed beside ``body_cal`` so that what the
calibration buys on this host can be read off the committed
``bench/SPREAD.json``.  Exits non-zero when a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import run  # noqa: E402


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "SPREAD.json"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in catalog.END_TO_END}
    values: Dict[str, Dict[str, List[float]]] = {
        name: {m: [] for m in (*bounds, "body_s", "wall_s")}
        for name in catalog.WORKLOADS}
    failed = 0
    for seed in args.seeds:
        for name in catalog.WORKLOADS:
            t0 = time.monotonic()
            result = run.run_workload(name, seed, args.seconds, 0)
            values[name]["wall_s"].append(time.monotonic() - t0)
            failed += result["ops"]["failed"]
            for metric in bounds:
                values[name][metric].append(
                    result["metrics"][metric]["value"])
            values[name]["body_s"].append(result["detail"]["body_s"])

    ok = failed == 0
    rows: List[Dict[str, Any]] = []
    print(f"{'workload':<16} {'metric':<13} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for name, per_metric in values.items():
        for metric in (*bounds, "body_s"):
            vals = per_metric[metric]
            row = {"workload": name, "metric": metric,
                   "median": statistics.median(vals),
                   "spread": spread(vals), "bound": bounds.get(metric)}
            held = metric in bounds and metric != "setup_s"
            row["ok"] = not held or row["spread"] <= row["bound"]
            ok &= row["ok"]
            rows.append(row)
            print(f"{name:<16} {metric:<13} {row['median']:>12.6g} "
                  f"{row['spread']:>8.2%} "
                  f"{row['bound'] if held else '-':>6}"
                  f"{'' if row['ok'] else '  BREACH'}")
    round_s = sum(statistics.median(v["wall_s"]) for v in values.values())
    print(f"one round of {len(values)} workloads: {round_s:.0f} s; "
          f"failed operations: {failed}")
    with open(args.out, "w") as fh:
        json.dump({"host": run.host_facts(), "seeds": args.seeds,
                   "seconds": args.seconds, "ok": ok,
                   "failed_operations": failed, "round_s": round_s,
                   "rows": rows, "values": values}, fh, indent=1)
    print(f"spread {'within bounds' if ok else 'BREACHED'}; "
          f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
