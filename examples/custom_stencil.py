#!/usr/bin/env python3
"""Bring your own stencil: auto-skew, cone analysis, shape comparison.

Shows the 'compiler as a library' workflow on a loop the paper never
saw: a 3D anisotropic stencil with a negative dependence.  The pipeline

    dependences -> auto-skew -> tiling cone -> candidate shapes ->
    simulate each -> pick the winner -> verify numerics

is exactly what a user would script with this package.

Run:  python examples/custom_stencil.py
"""

from repro import ClusterSpec, compile_tiled, execute, simulate
from repro.loops import (
    ArrayRef,
    LoopNest,
    Statement,
    find_skew_for_rectangular_tiling,
    kexpr,
    skew_nest,
)
from repro.runtime.interpreter import run_sequential
from repro.tiling import (
    cone_aligned_tiling,
    rectangular_tiling,
    tiling_cone_rays,
)


def main() -> None:
    # A[t,i,j] = f(A[t-1,i,j], A[t-1,i+1,j-1], A[t,i-1,j]); f is a
    # kexpr over one symbol per read — the one definition every engine
    # (interpreter, dense, parallel, native C) evaluates.
    reads = kexpr.reads(3)
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0, 0)),
        [
            ArrayRef.of("A", (-1, 0, 0)),
            ArrayRef.of("A", (-1, 1, -1)),
            ArrayRef.of("A", (0, -1, 0)),
        ],
        0.4 * reads[0] + 0.35 * reads[1] + 0.25 * reads[2] + 0.01,
    )
    nest = LoopNest.rectangular(
        "custom", [0, 0, 0], [11, 11, 11], [stmt],
        dependences=[(1, 0, 0), (1, -1, 1), (0, 1, 0)],
    )

    # -- negative dependence: find a skew automatically --------------------
    t = find_skew_for_rectangular_tiling(nest.dependences)
    print(f"auto-skew found:\n  T = {t!r}")
    skewed = skew_nest(nest, t)
    print(f"skewed dependences: {skewed.dependences}")

    # -- cone analysis -------------------------------------------------------
    rays = tiling_cone_rays(skewed.dependences)
    print(f"tiling cone rays of the skewed nest: {rays}")

    # -- candidate shapes ------------------------------------------------------
    spec = ClusterSpec()
    candidates = {"rect": rectangular_tiling([3, 3, 3])}
    # a cone-aligned alternative using three of the rays, same volume
    for combo_name, combo in (("cone", rays[:3]),):
        try:
            h = cone_aligned_tiling(combo, [3, 3, 3],
                                    deps=skewed.dependences)
            h.inverse().to_int_rows()  # require integer P
            candidates[combo_name] = h
        except ValueError as e:
            print(f"skipping {combo_name}: {e}")

    best = None
    for name, h in candidates.items():
        prog = compile_tiled(skewed, h)
        stats = simulate(prog, spec)
        t_seq = spec.compute_time(prog.total_points())
        s = t_seq / stats.makespan
        print(f"{name:<6} procs={prog.num_processors:<3} "
              f"T_par={stats.makespan * 1e3:8.3f} ms  speedup={s:.2f}")
        if best is None or s > best[1]:
            best = (name, s, h, prog)

    print(f"best shape: {best[0]}")

    # -- verify the winner numerically -------------------------------------------
    def init(_a, cell):
        return 0.1 * cell[0] - 0.05 * cell[1] + 0.02 * cell[2]

    arrays, _ = execute(best[3], init, spec=spec)
    ref = run_sequential(skewed, init)
    diff = max(abs(arrays["A"][k] - ref["A"][k]) for k in ref["A"])
    print(f"max |distributed - sequential| = {diff:.2e} over "
          f"{len(ref['A'])} cells")
    assert diff < 1e-12


if __name__ == "__main__":
    main()
