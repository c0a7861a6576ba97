#!/usr/bin/env python3
"""Self-agreement of the benchmark: two full untraced sets of one commit.

    python3 bench/agree.py [--seeds 0 1] [--seconds S] [--out FILE]

For every seed the full set runs twice, the second pass in reverse
workload order.  Printed per (workload, metric): both values, their
relative difference and the metric's bound; the body's plain seconds
(``body_s``) are listed beside ``body_cal`` for information.  Two sets of
the same commit must agree run by run within each end-to-end metric's own
bound, no operation may fail, and every exact count must be identical --
across passes and across seeds.  Exits non-zero on any breach; the report
goes to ``bench/AGREEMENT.json`` (committed with the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import run  # noqa: E402


def _value(result: Dict[str, Any], key: str) -> Optional[float]:
    if key == "body_s":
        return result.get("detail", {}).get("body_s")
    return result["metrics"].get(key, {}).get("value")


def compare(seed: int, seconds: float) -> Dict[str, Any]:
    names = list(catalog.WORKLOADS)
    first = {n: run.run_workload(n, seed, seconds, 0) for n in names}
    second = {n: run.run_workload(n, seed, seconds, 0)
              for n in reversed(names)}
    info = {"name": "body_s", "unit": "s", "bound": None}
    rows: List[Dict[str, Any]] = []
    for name in names:
        a, b = first[name], second[name]
        for metric in (*catalog.END_TO_END, info):
            key, bound = metric["name"], metric["bound"]
            row = {"workload": name, "metric": key, "unit": metric["unit"],
                   "bound": bound, "first": _value(a, key),
                   "second": _value(b, key), "rel_diff": None, "ok": False}
            if row["first"] is not None and row["second"] is not None:
                rel = (row["second"] - row["first"]) / row["first"]
                row.update(rel_diff=rel,
                           ok=bound is None or abs(rel) <= bound)
            rows.append(row)
        failed = a["ops"]["failed"] + b["ops"]["failed"]
        attempted = a["ops"]["attempted"] + b["ops"]["attempted"]
        rows.append({"workload": name, "metric": "failed_share",
                     "unit": "ratio", "bound": 0.0,
                     "first": a["ops"]["failed"],
                     "second": b["ops"]["failed"],
                     "rel_diff": failed / attempted if attempted else 1.0,
                     "ok": failed == 0 and attempted > 0,
                     "failures": a["ops"]["failures"] + b["ops"]["failures"]})
    exact = {n: {"first": first[n].get("exact"),
                 "second": second[n].get("exact")} for n in names}
    return {"seed": seed, "rows": rows, "exact": exact}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--out",
                    default=os.path.join(BENCH_DIR, "AGREEMENT.json"))
    args = ap.parse_args(argv)

    pairs = [compare(seed, args.seconds) for seed in args.seeds]
    ok = True
    print(f"{'seed':>4} {'workload':<16} {'metric':<13} {'first':>12} "
          f"{'second':>12} {'rel diff':>9} {'bound':>6}")
    for pair in pairs:
        for row in pair["rows"]:
            ok &= row["ok"]
            head = (f"{pair['seed']:>4} {row['workload']:<16} "
                    f"{row['metric']:<13} ")
            if row["rel_diff"] is None:
                print(head + "missing  BREACH")
                continue
            bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
            print(head + f"{row['first']:>12.6g} {row['second']:>12.6g} "
                  f"{row['rel_diff']:>+9.2%} {bound:>6}"
                  f"{'' if row['ok'] else '  BREACH'}")
    # Exact counts: one value per workload over all passes and seeds.
    exact_ok: Dict[str, bool] = {}
    for name in catalog.WORKLOADS:
        seen = [p["exact"][name][k] for p in pairs
                for k in ("first", "second")]
        exact_ok[name] = seen[0] is not None and all(
            s == seen[0] for s in seen)
        ok &= exact_ok[name]
        print(f"exact counts {name:<16} "
              f"{'identical' if exact_ok[name] else 'DIFFER  BREACH'} "
              f"over {len(seen)} runs")
    with open(args.out, "w") as fh:
        json.dump({"host": run.host_facts(), "seconds": args.seconds,
                   "ok": ok, "exact_identical": exact_ok, "pairs": pairs},
                  fh, indent=1)
    print(f"agreement {'holds' if ok else 'BREACHED'}; wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
