#!/usr/bin/env python3
"""Quickstart: tile a stencil loop, generate the SPMD program, run it.

This walks the full pipeline of the paper on a small wavefront stencil:

1. define a perfectly nested loop with uniform dependencies;
2. pick a (non-rectangular) tiling from the dependence cone;
3. compile: computation/data distribution + communication sets;
4. execute on the simulated 16-node cluster with real data movement;
5. check the distributed result against a plain sequential run.

Run:  python examples/quickstart.py
"""

from repro import compile_tiled, execute, ClusterSpec
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.runtime.interpreter import run_sequential
from repro.tiling import parallelepiped_tiling, tiling_cone_rays


def main() -> None:
    # -- 1. the loop:  A[i,j] = f(A[i-1,j], A[i-1,j-1], A[i-1,j+1]) ----
    # The body is a symbolic expression over the read slots: the same
    # tree runs point by point, vectorized over wavefronts, and as C.
    left, mid, right = kexpr.reads(3)
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0)),
        [
            ArrayRef.of("A", (-1, -1)),
            ArrayRef.of("A", (-1, 0)),
            ArrayRef.of("A", (-1, 1)),
        ],
        0.25 * left + 0.5 * mid + 0.25 * right,
    )
    nest = LoopNest.rectangular(
        "wavefront", lower=[0, 0], upper=[23, 23],
        statements=[stmt],
        dependences=[(1, 1), (1, 0), (1, -1)],
    )

    # -- 2. tile shape from the dependence cone -------------------------
    rays = tiling_cone_rays(nest.dependences)
    print(f"tiling cone extreme rays: {rays}")
    # (1,1) and (1,-1) span the cone: a diamond tile is legal.
    h = parallelepiped_tiling([["1/8", "-1/8"], ["1/8", "1/8"]])

    # -- 3. compile ------------------------------------------------------
    prog = compile_tiled(nest, h)
    print(f"compiled: {prog.num_processors} processors, "
          f"{len(prog.dist.tiles)} tiles of volume "
          f"{prog.tiling.tile_volume()}")
    print(f"communication vector CC = {prog.comm.cc}")
    print(f"tile dependencies D^S   = {prog.comm.d_s}")

    # -- 4. run on the virtual cluster ------------------------------------
    def init(array, cell):
        return 1.0 if cell[0] < 0 or not (0 <= cell[1] <= 23) else 0.0

    arrays, stats = execute(prog, init, spec=ClusterSpec())
    print(f"simulated makespan: {stats.makespan * 1e3:.3f} ms, "
          f"{stats.total_messages} messages, "
          f"{stats.total_elements} elements moved")

    # -- 5. verify ---------------------------------------------------------
    reference = run_sequential(nest, init)
    assert arrays["A"] == reference["A"], "distributed result differs!"
    print("distributed result matches the sequential reference, "
          f"{len(arrays['A'])} cells checked")


if __name__ == "__main__":
    main()
