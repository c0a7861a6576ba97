"""Sequential interpreters: the semantic reference for every other mode.

``run_sequential`` executes a nest point-by-point in lexicographic
order — the original program.  ``run_tiled_sequential`` executes the
same nest in *tiled* order (tiles lexicographically, intra-tile points
in TTIS lattice order), which is the reordering the sequential tiled
code of §2.3 performs; producing identical results is precisely what
tiling legality guarantees.  The distributed executor is tested against
both.

``run_dense_sequential`` is the vectorized counterpart: the whole
domain is executed in batched wavefront levels over dense numpy
storage.  It materializes the domain's bounding box of points, so it is
meant for small/medium spaces (tests, cross-checks); paper-scale runs
go through the per-tile dense engine in
:meth:`repro.runtime.executor.DistributedRun.execute_dense`.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.linalg.ratmat import RatMat
from repro.loops import kexpr
from repro.loops.nest import LoopNest
from repro.loops.reference import ArrayRef
from repro.polyhedra.integer_points import integer_points
from repro.polyhedra.vertices import bounding_box
from repro.runtime.dense import (
    ReadPlan,
    build_statement_plans,
    evaluate_statement_batch,
    level_batches,
    result_fields,
    schedule_dependences,
    wavefront_vector,
)
from repro.tiling.transform import TilingTransformation, _int_constraints

Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]


def _execute_point(nest: LoopNest, arrays: Dict[str, Dict[Cell, float]],
                   init_value: InitFn, j: Tuple[int, ...]) -> None:
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


def run_sequential(nest: LoopNest,
                   init_value: InitFn) -> Dict[str, Dict[Cell, float]]:
    """Execute the nest in original lexicographic order."""
    arrays: Dict[str, Dict[Cell, float]] = {
        a: {} for a in nest.written_arrays
    }
    for j in integer_points(nest.domain):
        _execute_point(nest, arrays, init_value, j)
    return arrays


def run_tiled_sequential(nest: LoopNest, h: RatMat,
                         init_value: InitFn) -> Dict[str, Dict[Cell, float]]:
    """Execute in sequential *tiled* order (the 2n-deep loop of §2.3)."""
    tiling = TilingTransformation(h, nest.domain)
    arrays: Dict[str, Dict[Cell, float]] = {
        a: {} for a in nest.written_arrays
    }
    lat = tiling.ttis.lattice_points_np()
    order = np.lexsort(lat.T[::-1])
    for tile in tiling.enumerate_tiles():
        mask = tiling.tile_mask(tile)
        origin = tiling.tile_origin(tile)
        for i in order[mask[order]]:
            local = tiling.ttis.from_ttis(tuple(int(x) for x in lat[i]))
            j = tuple(a + b for a, b in zip(origin, local))
            _execute_point(nest, arrays, init_value, j)
    return arrays


def domain_mask(amat: np.ndarray, bvec: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``points`` inside ``A x <= b``."""
    return np.all(amat @ points.T <= bvec[:, None], axis=0)


def fix_out_of_domain(vals: np.ndarray, ref: ArrayRef, points: np.ndarray,
                      src_in_domain: np.ndarray,
                      init_value: InitFn) -> None:
    """Overwrite gathered values whose source iteration fell outside the
    domain with the boundary/initial value — the same scalar
    ``init_value(array, ref.index(j))`` call the sparse reference makes,
    so boundaries agree bitwise."""
    for i in np.nonzero(~src_in_domain)[0]:
        g = tuple(int(x) for x in points[i])
        vals[i] = init_value(ref.array, ref.index(g))


def run_dense_sequential(nest: LoopNest, init_value: InitFn,
                         dtype: type = np.float64,
                         ) -> Dict[str, Dict[Cell, float]]:
    """Execute the nest in batched wavefront order over dense storage.

    Semantically equivalent to :func:`run_sequential` — and bitwise
    equal, since both evaluate the same kernel exprs — but executes
    whole independence levels as single numpy operations instead of
    one dict lookup per point.
    """
    n = nest.depth
    amat, bvec = _int_constraints(nest.domain)    # integer A x <= b
    lo, hi = bounding_box(nest.domain)
    grids = np.meshgrid(
        *[np.arange(b, h + 1, dtype=np.int64) for b, h in zip(lo, hi)],
        indexing="ij",
    )
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[domain_mask(amat, bvec, pts)]
    plans = build_statement_plans(nest, init_value, dtype)
    s = wavefront_vector(
        schedule_dependences(nest), n,
        extents=[h - b + 1 for b, h in zip(lo, hi)],
    )
    batches = level_batches(pts, s)
    fields = result_fields(nest, dtype)
    limits = {
        a: np.asarray(f.values.shape, dtype=np.int64) - 1
        for a, f in fields.items()
    }

    def gather(rp: ReadPlan, g: np.ndarray) -> np.ndarray:
        assert rp.dep is not None
        field = fields[rp.ref.array]
        idx = rp.indexer.cells(g) - np.asarray(field.origin,
                                               dtype=np.int64)
        # Out-of-domain sources may index outside the field box; clip
        # first (those slots are overwritten just below).
        idx = np.clip(idx, 0, limits[rp.ref.array])
        vals = field.values[tuple(idx.T)]
        in_dom = domain_mask(amat, bvec, g - rp.dep)
        if not in_dom.all():
            fix_out_of_domain(vals, rp.ref, g, in_dom, init_value)
        return vals

    for batch in batches:
        g = pts[batch]
        for plan in plans:
            out = evaluate_statement_batch(plan, g, gather, dtype)
            field = fields[plan.stmt.write.array]
            idx = plan.write_indexer.cells(g) - np.asarray(
                field.origin, dtype=np.int64)
            loc = tuple(idx.T)
            field.values[loc] = out
            field.written[loc] = True
    return {a: f.to_cells() for a, f in fields.items()}
