"""Global data-space assembly.

The sequential oracle and ``repro.execute`` return the written arrays
as sparse dicts ``cell -> value`` (exact and shape-agnostic); the data
engines return a :class:`DenseField` per array, which
:func:`dense_to_cells` converts.  Downstream users usually want dense
numpy arrays over the written region; these helpers build them, and
also compare results across execution modes with a single call — the
verification idiom the tests and examples repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

Cell = Tuple[int, ...]
SparseArray = Mapping[Cell, float]


@dataclass
class DenseField:
    """A written array stored densely: values over a box plus a mask.

    ``values[c - origin]`` holds the value of cell ``c``; ``written``
    marks the cells actually produced by the run (the box is generally a
    superset of the written region — e.g. the rational image box of a
    skewed write access).  This is the dense engine's result format;
    :meth:`to_cells` converts to the sparse ``cell -> value`` dicts the
    cross-mode checks (`arrays_match`) consume.
    """

    origin: Tuple[int, ...]
    values: np.ndarray
    written: np.ndarray

    def to_cells(self) -> Dict[Cell, float]:
        idx = np.nonzero(self.written)
        cells = np.stack(idx, axis=1) + np.asarray(self.origin,
                                                   dtype=np.int64)
        vals = self.values[idx]
        return {
            tuple(int(x) for x in c): float(v)
            for c, v in zip(cells, vals)
        }


def dense_to_cells(
    fields: Mapping[str, DenseField],
) -> Dict[str, Dict[Cell, float]]:
    """Convert a dense run's result to sparse dicts per array."""
    return {name: f.to_cells() for name, f in fields.items()}


def written_region(cells: SparseArray) -> Tuple[Tuple[int, ...],
                                                Tuple[int, ...]]:
    """Inclusive (lo, hi) bounding box of the written cells."""
    if not cells:
        raise ValueError("no cells were written")
    it = iter(cells)
    first = next(it)
    lo = list(first)
    hi = list(first)
    for c in cells:
        for k, v in enumerate(c):
            if v < lo[k]:
                lo[k] = v
            if v > hi[k]:
                hi[k] = v
    return tuple(lo), tuple(hi)


def assemble_dense(cells: SparseArray,
                   fill: float = np.nan,
                   origin: Optional[Tuple[int, ...]] = None,
                   shape: Optional[Tuple[int, ...]] = None,
                   clip: bool = False) -> np.ndarray:
    """Dense array over the written region (or a caller-given window).

    Returns an array ``A`` with ``A[c - origin] == cells[c]``; unwritten
    positions hold ``fill``.  Cells outside a caller-supplied window
    raise :class:`ValueError` (silently truncating results hid real
    disagreements between execution modes); pass ``clip=True`` to
    deliberately restrict to the window instead.
    """
    if origin is None or shape is None:
        lo, hi = written_region(cells)
        origin = origin or lo
        shape = shape or tuple(h - o + 1 for o, h in zip(origin, hi))
    out = np.full(shape, fill, dtype=np.float64)
    dropped = 0
    for c, v in cells.items():
        idx = tuple(a - b for a, b in zip(c, origin))
        if all(0 <= i < s for i, s in zip(idx, shape)):
            out[idx] = v
        else:
            dropped += 1
    if dropped and not clip:
        raise ValueError(
            f"{dropped} cell(s) fall outside the window "
            f"origin={tuple(origin)} shape={tuple(shape)}; pass "
            "clip=True to truncate deliberately")
    return out


def max_abs_difference(a: SparseArray, b: SparseArray) -> float:
    """Largest |a - b| over the union of keys; a missing key, or a NaN
    on one side only, counts as infinite disagreement (a NaN on both
    sides of one cell agrees)."""
    keys_a, keys_b = set(a), set(b)
    if keys_a != keys_b:
        return float("inf")
    worst = 0.0
    for k in keys_a:
        x, y = a[k], b[k]
        if x != y:
            diff = abs(x - y)
            if math.isnan(diff):
                if math.isnan(x) and math.isnan(y):
                    continue
                return float("inf")
            worst = max(worst, diff)
    return worst


def arrays_match(a: Dict[str, SparseArray],
                 b: Dict[str, SparseArray],
                 tol: float = 1e-11) -> bool:
    """Cross-mode verification: same arrays, same cells, close values."""
    if set(a) != set(b):
        return False
    return all(max_abs_difference(a[name], b[name]) <= tol for name in a)
