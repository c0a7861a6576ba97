#!/usr/bin/env python3
"""SOR on the simulated cluster: the paper's §4.1 experiment, end to end.

Reproduces one row of Figure 6: skew SOR, tile it rectangularly and
non-rectangularly with the same factors, simulate both on the
FastEthernet cluster model, and report the speedups plus a Gantt view
of the pipeline.

Run:  python examples/sor_cluster.py [M N z]
"""

import sys

from repro import ClusterSpec, compile_tiled
from repro.apps import sor
from repro.experiments.figures import sor_factors
from repro.runtime import EventTrace
from repro.runtime.trace import ascii_gantt
from repro.schedule import last_tile_time


def main(m: int = 100, n: int = 200, z: int = 8) -> None:
    spec = ClusterSpec()
    x, y = sor_factors(m, n)
    app = sor.app(m, n)
    print(f"SOR M={m} N={n}; factors x={x} y={y} z={z} "
          f"(4x4 processor mesh, chains along the 3rd dimension)")

    j_max = (m, m + n, 2 * m + n)
    results = {}
    for label, h in (("rectangular", sor.h_rectangular(x, y, z)),
                     ("non-rectangular", sor.h_nonrectangular(x, y, z))):
        prog = compile_tiled(app.nest, h, mapping_dim=app.mapping_dim)
        trace = EventTrace()
        from repro.runtime import DistributedRun
        stats = DistributedRun(prog, spec, trace=trace).simulate()
        t_seq = spec.compute_time(prog.total_points())
        results[label] = (prog, stats, t_seq, trace)
        print(f"\n--- {label} ---")
        print(f"last-point schedule step Pi.floor(H j_max) = "
              f"{last_tile_time(h, j_max)}")
        print(f"tiles: {len(prog.dist.tiles)}, messages: "
              f"{stats.total_messages}, elements: {stats.total_elements}")
        print(f"T_par = {stats.makespan:.4f}s   "
              f"speedup = {t_seq / stats.makespan:.2f} on "
              f"{prog.num_processors} processors")

    r = results["rectangular"]
    nr = results["non-rectangular"]
    gain = (r[1].makespan / nr[1].makespan - 1) * 100
    print(f"\nnon-rectangular tiling is {gain:.1f}% faster "
          f"(paper §4.4: 17.3% average improvement for SOR)")

    print("\npipeline of the first 8 ranks (non-rectangular), "
          "#=compute >=send <=wait:")
    for row in ascii_gantt(nr[3], width=76)[:8]:
        print(f"rank {row.rank:>2} |{row.cells}|")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    main(*args)
