"""The sequential oracle: the semantic reference for every other mode.

``run_sequential`` executes a nest point-by-point in lexicographic
order — the original program — one dict entry per written cell.  The
data engines (:meth:`repro.runtime.executor.DistributedRun.execute_dense`
and the parallel and native runs that share its back-end) are tested
against it at tol 0.0; its independent twin for the tiled order is the
compiled §2.3 text (:func:`repro.codegen.run_sequential_tiled_code`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.loops import kexpr
from repro.loops.nest import LoopNest
from repro.polyhedra.integer_points import integer_points

Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]


def run_sequential(nest: LoopNest,
                   init_value: InitFn) -> Dict[str, Dict[Cell, float]]:
    """Execute the nest in original lexicographic order."""
    arrays: Dict[str, Dict[Cell, float]] = {
        a: {} for a in nest.written_arrays
    }
    for j in integer_points(nest.domain):
        for s in nest.statements:
            vals = []
            for r in s.reads:
                cell = r.index(j)
                store = arrays.get(r.array)
                if store is not None and cell in store:
                    vals.append(store[cell])
                else:
                    vals.append(init_value(r.array, cell))
            arrays[s.write.array][s.write.index(j)] = kexpr.evaluate(
                s.expr, vals)
    return arrays
