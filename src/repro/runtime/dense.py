"""Dense vectorized execution core (shared by every data engine).

The sequential oracle (:func:`repro.runtime.interpreter.run_sequential`)
walks iteration points one dict lookup at a time; that is the semantic
reference, but it is orders of magnitude slower than the hardware
allows.  This module holds the machinery the data engines share:

* ``read_dependences`` — the dependence vector behind each read of a
  written array (``None`` for pure inputs);
* ``wavefront_vector`` / ``level_batches`` — a linear schedule ``s``
  with ``s . d >= 1`` for every dependence, and the partition of a point
  set into its wavefront levels: all points of one level are mutually
  independent, so a whole level executes as one batched numpy kernel;
* ``StatementPlan`` — per-statement gather / kernel plumbing: reads of
  written arrays carry their dependence ``d`` and its TTIS image ``d'``
  (the LDS offset of the source); pure-input reads hit a dense
  :class:`InputTable` precomputed from ``init_value``;
* the program's level tables, stage rows built from its roots alone —
  ``dense_s``, ``dense_batches``, the overlap plans
  (:func:`overlap_plan`, windows of :func:`overlap_key`) — with
  :func:`tile_segments`, the one filter of a full tile's levels down
  to a partial tile's, and :func:`region_index`, a pack region in
  payload order;
* :class:`DenseData` / :class:`RankLDS` — the dense data back-end of
  the rank step (:mod:`repro.runtime.rankstep`), through which the
  simulated dense engine, the parallel workers (both schedules) and
  the native runtime all address LDS memory.  Both ``map`` and
  ``loc⁻¹`` are affine in the tile index, so they are tabulated once
  (:class:`LdsTables`, :class:`GlobalTable`) and a tile only adds a
  constant.  An out-of-domain source has a halo cell of its own in the
  reader's LDS: each rank fills those cells once, with one
  ``init_value`` call per distinct cell, before the first tile that
  reads them, so every kernel loads the LDS unconditionally.

Bitwise agreement with the sequential oracle comes from evaluating the
*same* kernel expr elementwise (:func:`repro.loops.kexpr.evaluate`),
and boundary values come from the same (pure) ``init_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.loops import kexpr
from repro.loops.nest import LoopNest, Statement
from repro.loops.reference import ArrayRef
from repro.polyhedra.halfspace import Polyhedron
from repro.polyhedra.vertices import image_bounding_box
from repro.runtime.dataspace import DenseField
from repro.runtime.rankstep import (
    ParallelRuntimeError,
    build_rank_plans,
    pack_region,
)
from repro.stages import Stage, copied, on_demand

if TYPE_CHECKING:
    from repro.native.engine import NativeKernelLibrary, RankKernels
    from repro.runtime.executor import TiledProgram
    from repro.runtime.rankstep import RankPlan
    from repro.tiling.ttis import TTIS

Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]


# -- dependences -------------------------------------------------------------------


def read_dependences(nest: LoopNest) -> List[List[Optional[Tuple[int, ...]]]]:
    """Dependence vector per (statement, read) targeting a written array.

    ``None`` marks a pure-input read (the array is never written).  For
    a read ``A[F j + f_r]`` of an array written as ``A[F j + f_w]`` the
    vector is ``d = F^{-1} (f_w - f_r)`` — the source iteration is
    ``j - d``.
    """
    writes = {s.write.array: s.write for s in nest.statements}
    out: List[List[Optional[Tuple[int, ...]]]] = []
    for s in nest.statements:
        row: List[Optional[Tuple[int, ...]]] = []
        for r in s.reads:
            w = writes.get(r.array)
            if w is None:
                row.append(None)
            else:
                diff = tuple(a - b for a, b in zip(w.offset, r.offset))
                d = w.access_matrix().solve(diff)
                row.append(tuple(int(x) for x in d))
        out.append(row)
    return out


# -- wavefront scheduling -----------------------------------------------------------


def wavefront_vector(deps: Sequence[Sequence[int]], n: int,
                     extents: Optional[Sequence[int]] = None,
                     ) -> Tuple[int, ...]:
    """An integer schedule vector ``s`` with ``s . d >= 1`` for all deps.

    Points on one hyperplane ``s . j = const`` are mutually independent,
    so they form one vectorizable batch.  Preference order:

    * no dependences — ``s = 0`` (a single batch);
    * an axis ``e_k`` with ``d_k >= 1`` for every dependence — fewest
      levels and biggest batches; when ``extents`` is given the axis
      with the smallest extent wins;
    * ``s = (1, ..., 1)`` when every dependence is componentwise
      non-negative and nonzero — always true for TTIS-transformed
      dependences of a legal tiling (``H d >= 0``);
    * otherwise (lexicographically positive dependences, e.g. an
      unskewed stencil) weighted coordinates ``s_k = 1 + M * sum_{l>k}
      s_l`` with ``M = max |d_l|``.

    The chosen vector is validated against every dependence; a zero
    dependence vector (a same-iteration self-loop) is rejected — order
    within an iteration is the statement order, not a schedule concern.
    """
    ds = [tuple(int(x) for x in d) for d in deps]
    if not ds:
        return tuple(0 for _ in range(n))
    s: Tuple[int, ...]
    axes = [k for k in range(n) if all(d[k] >= 1 for d in ds)]
    if axes:
        if extents is not None:
            axis = min(axes, key=lambda k: int(extents[k]))
        else:
            axis = axes[0]
        s = tuple(int(k == axis) for k in range(n))
    elif all(all(x >= 0 for x in d) and any(x != 0 for x in d) for d in ds):
        s = tuple(1 for _ in range(n))
    else:
        big = max((abs(x) for d in ds for x in d), default=0)
        weights = [0] * n
        acc = 0
        for k in reversed(range(n)):
            weights[k] = 1 + big * acc
            acc += weights[k]
        s = tuple(weights)
    for d in ds:
        if sum(a * b for a, b in zip(s, d)) < 1:
            raise ValueError(
                f"no wavefront schedule: s={s} violates dependence {d}")
    return s


def level_batches(points: np.ndarray,
                  s: Sequence[int]) -> List[np.ndarray]:
    """Partition ``points`` (an ``(m, n)`` int array) into wavefront
    levels of ``s``, each an index array into ``points``.

    Levels come back in increasing ``s . j``; within a level, indices
    keep the original row order (stable sort), so drivers control the
    intra-level order by how they order ``points``.
    """
    if not any(s):
        return [np.arange(len(points), dtype=np.int64)]
    levels = points @ np.asarray(s, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    cuts = np.nonzero(np.diff(levels[order]))[0] + 1
    return [np.asarray(b) for b in np.split(order, cuts)]


# -- array addressing ---------------------------------------------------------------


def _int_matrix(ref: ArrayRef) -> Optional[np.ndarray]:
    """The access matrix as int64 rows, or ``None`` for identity."""
    if ref.matrix is None:
        return None
    return np.array(ref.matrix.to_int_rows(), dtype=np.int64)


@dataclass
class RefIndexer:
    """Vectorized ``cells = F @ points + f`` for one array reference."""

    offset: np.ndarray
    f_int: Optional[np.ndarray]

    @staticmethod
    def of(ref: ArrayRef) -> RefIndexer:
        return RefIndexer(
            offset=np.asarray(ref.offset, dtype=np.int64),
            f_int=_int_matrix(ref),
        )

    def cells(self, points: np.ndarray) -> np.ndarray:
        if self.f_int is None:
            return points + self.offset
        return points @ self.f_int.T + self.offset


@dataclass
class InputTable:
    """Dense table of a pure-input array over its accessed box.

    Filled once by scalar ``init_value`` calls (so the values are
    bitwise those the sequential oracle reads), then gathered per batch.
    """

    array: str
    origin: np.ndarray
    values: np.ndarray

    def gather(self, cells: np.ndarray) -> np.ndarray:
        idx = cells - self.origin
        return self.values[tuple(idx.T)]


def _access_box(ref: ArrayRef, domain: Polyhedron,
                ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(origin, shape)`` of the integer box covering every cell
    ``ref`` touches over ``domain`` (the image box is slightly widened
    to the rational bounding box, which is cheap for the
    low-dimensional arrays)."""
    lo_r, hi_r = image_bounding_box(domain, ref.access_matrix())
    lo = tuple(math.floor(a) + o for a, o in zip(lo_r, ref.offset))
    hi = tuple(math.ceil(a) + o for a, o in zip(hi_r, ref.offset))
    return lo, tuple(h - b + 1 for b, h in zip(lo, hi))


def build_input_table(ref: ArrayRef, domain: Polyhedron,
                      init_value: InitFn) -> InputTable:
    """Precompute every value ``init_value`` can return for ``ref``
    over ``domain``."""
    lo, shape = _access_box(ref, domain)
    values = np.empty(shape, dtype=np.float64)
    for idx in np.ndindex(*shape):
        cell = tuple(a + b for a, b in zip(idx, lo))
        values[idx] = init_value(ref.array, cell)
    return InputTable(array=ref.array,
                      origin=np.asarray(lo, dtype=np.int64),
                      values=values)


def field_for_write(ref: ArrayRef, domain: Polyhedron) -> DenseField:
    """A zeroed :class:`DenseField` covering every cell ``ref`` can
    write over ``domain``."""
    lo, shape = _access_box(ref, domain)
    return DenseField(
        origin=lo,
        values=np.zeros(shape, dtype=np.float64),
        written=np.zeros(shape, dtype=bool),
    )


def result_fields(nest: LoopNest) -> Dict[str, DenseField]:
    """A zeroed result field per written array of ``nest``."""
    return {s.write.array: field_for_write(s.write, nest.domain)
            for s in nest.statements}


# -- statement plans ---------------------------------------------------------------


@dataclass
class ReadPlan:
    """One read slot of a statement, ready for batched evaluation."""

    ref: ArrayRef
    indexer: RefIndexer
    dep: Optional[np.ndarray]          # int64 (n,), None for pure inputs
    table: Optional[InputTable]        # set exactly when dep is None
    dep_prime: Optional[np.ndarray]    # d' = H' d, None for pure inputs


@dataclass
class StatementPlan:
    stmt: Statement
    write_indexer: RefIndexer
    reads: List[ReadPlan]


def build_statement_plans(nest: LoopNest, init_value: InitFn,
                          ttis: "TTIS") -> List[StatementPlan]:
    """Compile the nest's statements for batched execution.

    Pure-input tables are shared between reads with the same access
    function (ADI reads its coefficient array from both statements).
    Every dependence also gets its TTIS image ``d'``.
    """
    deps = read_dependences(nest)
    tables: Dict[object, InputTable] = {}
    plans: List[StatementPlan] = []
    for si, s in enumerate(nest.statements):
        reads: List[ReadPlan] = []
        for ri, r in enumerate(s.reads):
            d = deps[si][ri]
            table: Optional[InputTable] = None
            if d is None:
                mkey = None if r.matrix is None else tuple(
                    tuple(row) for row in r.matrix.rows())
                key = (r.array, r.offset, mkey)
                table = tables.get(key)
                if table is None:
                    table = build_input_table(r, nest.domain, init_value)
                    tables[key] = table
            reads.append(ReadPlan(
                ref=r,
                indexer=RefIndexer.of(r),
                dep=None if d is None else np.asarray(d, dtype=np.int64),
                table=table,
                dep_prime=None if d is None
                else np.asarray(ttis.transformed_dependences([d])[0],
                                dtype=np.int64),
            ))
        plans.append(StatementPlan(
            stmt=s, write_indexer=RefIndexer.of(s.write), reads=reads))
    return plans


def schedule_dependences(nest: LoopNest) -> List[Tuple[int, ...]]:
    """Nonzero dependence vectors the wavefront must honour: the union
    of actual read dependences and the nest's declared matrix (zero
    vectors — same-iteration reads — are ordered by statement order,
    not by the schedule)."""
    seen: Dict[Tuple[int, ...], None] = {}
    for row in read_dependences(nest):
        for d in row:
            if d is not None and any(d):
                seen[d] = None
    for dd in nest.dependences:
        d = tuple(int(x) for x in dd)
        if any(d):
            seen[d] = None
    return list(seen)


# -- overlap splitting --------------------------------------------------------------


class OverlapPhase(NamedTuple):
    """One step of an overlapped tile: take ``recvs`` (receive-plan
    positions), execute the tile's ``points`` executed points whose
    :func:`overlap_key` lies in ``[klo, khi)``, publish ``sends``
    (send-plan positions)."""

    recvs: Tuple[int, ...]
    klo: int
    khi: int
    sends: Tuple[int, ...]
    points: int


@dataclass(frozen=True)
class TileOverlapPlan:
    """The overlapped schedule of one tile, frozen as integers.

    A tile's executed point ``j'`` has the key ``2 L(j') + !B(j')``
    (:func:`overlap_key`): ``L = dense_s . j'`` its absolute wavefront
    level and ``B`` the union of the tile's send boxes, so inside each
    level the points feeding some outgoing ``CC`` pack region
    (*boundary*, key ``2L``) run before the rest (*interior*, key ``2L
    + 1``).  Per level that is a reorder of the dense engine's batch —
    legal because the points of a wavefront level are mutually
    independent (``s . d' >= 1``) and bitwise-neutral because the
    kernels are elementwise.

    ``recv_level[i]`` is the level before which the ``i``-th incoming
    message is taken: the first level with a point that can read its
    halo (the tile's first level when none can), lowered to the
    minimum over every later message of the same FIFO edge (a deferred
    message defers everything behind it).  ``commit_level[k]`` is the
    last level with a point of the ``k``-th send's region.  ``phases``
    places those receives, the key windows and the publishes (plan
    order, each once its and every earlier send's commit level
    boundary has run): the key range is cut only where a receive or a
    publish has to happen.
    """

    recv_level: Tuple[int, ...]         # plan order (receive_plan order)
    commit_level: Tuple[int, ...]       # plan order (send_plan order)
    phases: Tuple[OverlapPhase, ...]


def overlap_key(program: "TiledProgram", tile: Tuple[int, ...],
                sends: Sequence[Sequence[int]],
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(sel, key)``: the executed lattice points of ``tile`` (as
    :func:`tile_segments` orders them) and the overlap key ``2 (dense_s
    . j') + !B(j')`` of each, ``B`` the union of the send boxes ``j'_k
    >= comm.pack_lower_bounds(d)`` of the directions ``sends`` — the
    predicate the native rank body evaluates per point."""
    sel, seg = tile_segments(program, tile)
    inside = np.zeros(len(sel), dtype=bool)
    for d in sends:
        inside |= pack_region(program, d)[sel]
    level = np.repeat(program.stage("full_segments")[2], np.diff(seg))
    return sel, 2 * level + ~inside


def boundary_sizes(program: "TiledProgram", plan: RankPlan,
                   t: int) -> Tuple[int, ...]:
    """How many points of each non-empty wavefront level of chain tile
    ``t`` of ``plan`` are boundary points (an even :func:`overlap_key`):
    the sizes pygen's ``dense-overlap`` tables record."""
    _sel, key = overlap_key(program, plan.tiles[t],
                            [s.direction for s in plan.sends[t]])
    levels, level = np.unique(key >> 1, return_inverse=True)
    return tuple(np.bincount(level[key % 2 == 0],
                             minlength=len(levels)).tolist())


def key_offsets(key: np.ndarray) -> np.ndarray:
    """``seg[k]``: how many of ``key`` lie below ``k``, for ``k`` up
    to ``2 L + 2`` with ``L`` the last level (``[0]`` for no key)."""
    end = (int(key.max()) | 1) + 1 if len(key) else 0
    seg = np.zeros(end + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=end), out=seg[1:])
    return seg


def overlap_phases(seg: np.ndarray, recv_level: Sequence[int],
                   commit_level: Sequence[int]
                   ) -> Tuple[OverlapPhase, ...]:
    """The phase table of one tile whose executed points' keys have
    the offsets ``seg`` (:func:`key_offsets`), from its receive and
    commit levels (each within the tile's levels).  A receive of level
    ``L`` sits at key ``2L`` (before the level's boundary), a publish
    of commit level ``L`` at ``2L + 1`` (between boundary and interior,
    never ahead of an earlier send); the key range ``[2 first, 2 last +
    2)`` of the tile is split at exactly those keys."""
    below = seg.tolist()
    if not below[-1]:                   # an empty tile: all at once
        return (OverlapPhase(tuple(range(len(recv_level))), 0, 0,
                             tuple(range(len(commit_level))), 0),)
    # the first key with a point, rounded down to its level's boundary
    start = (int(np.searchsorted(seg, 0, side="right")) - 1) & ~1
    takes: Dict[int, List[int]] = {}
    for i, lv in enumerate(recv_level):
        takes.setdefault(2 * lv, []).append(i)
    pubs: Dict[int, List[int]] = {}
    gate = start
    for k, lv in enumerate(commit_level):
        gate = max(gate, 2 * lv + 1)
        pubs.setdefault(gate, []).append(k)
    stops = sorted({start, len(below) - 1, *takes, *pubs})
    return tuple(OverlapPhase(tuple(takes.get(a, ())), a, b,
                              tuple(pubs.get(b, ())), below[b] - below[a])
                 for a, b in zip(stops, stops[1:]))


def reader_mask(program: "TiledProgram", ds: Sequence[int]) -> np.ndarray:
    """Lattice points that can read the halo of ``d^S``: those within
    the dependence reach of *every* boundary the message crossed
    (``j'_k < max_l d'_kl`` for each ``k`` with ``d^S_k > 0``)."""
    lat = program.tiling.ttis.lattice_points_np()
    max_dp = program.comm.max_dp
    mask = np.ones(len(lat), dtype=bool)
    for k, dk in enumerate(ds):
        if dk > 0:
            mask &= lat[:, k] < max(int(max_dp[k]), 0)
    return mask


def _build_overlap_plan(program: "TiledProgram", tile: Tuple[int, ...],
                        sends: Sequence[Tuple[int, ...]],
                        recvs: Sequence[Tuple[int, ...]]) -> TileOverlapPlan:
    """Derive one tile's :class:`TileOverlapPlan` from its executed
    points' keys.

    ``sends`` are the outgoing directions and ``recvs`` the incoming
    tile dependences ``d^S``, in plan order.  A point can read the
    halo of ``d^S`` only if it is in :func:`reader_mask`, so the
    earliest level containing such a point bounds how long the unpack
    may be deferred.
    """
    sel, key = overlap_key(program, tile, sends)
    level = key >> 1
    first = int(level[0]) if len(level) else 0
    commit = []
    for d in sends:
        lv = level[pack_region(program, d)[sel]]
        commit.append(int(lv[-1]) if len(lv) else first)
    recv_level: List[int] = []
    for ds in recvs:
        lv = level[reader_mask(program, ds)[sel]]
        recv_level.append(int(lv[0]) if len(lv) else first)
    # messages of one d^m share one (source, tag) ring
    comm = program.comm
    floor: Dict[Any, int] = {}
    for i in reversed(range(len(recv_level))):
        edge = comm.project(recvs[i])
        recv_level[i] = floor[edge] = min(recv_level[i],
                                          floor.get(edge, recv_level[i]))
    return TileOverlapPlan(
        recv_level=tuple(recv_level),
        commit_level=tuple(commit),
        phases=overlap_phases(key_offsets(key), recv_level, commit))


# -- the program's level tables -----------------------------------------------------


def ttis_wavefront(nest: LoopNest, ttis: "TTIS") -> Tuple[int, ...]:
    """The TTIS wavefront vector the dense engine batches with.

    Built from the union of actual read dependences and the nest's
    declared matrix, pushed through the TTIS transformation — a pure
    compile-time quantity (the emitters burn it into generated
    sources)."""
    dprimes = ttis.transformed_dependences(schedule_dependences(nest))
    return wavefront_vector(
        [d for d in dprimes if any(d)], ttis.n, extents=ttis.v)


def _build_dense_s(program: "TiledProgram") -> Tuple[int, ...]:
    return ttis_wavefront(program.nest, program.tiling.ttis)


def _build_dense_batches(program: "TiledProgram") -> List[np.ndarray]:
    """A full tile's wavefront levels under ``dense_s``: index arrays
    into ``ttis.lattice_points_np()``, in increasing level."""
    return level_batches(program.tiling.ttis.lattice_points_np(),
                         program.stage("dense_s"))


def _build_full_segments(
        program: "TiledProgram") -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """A full tile's levels concatenated (``sel``), their offsets
    (``seg``) and each level's ``dense_s . j'`` (``level``)."""
    batches = program.stage("dense_batches")
    seg = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in batches], out=seg[1:])
    sel = np.ascontiguousarray(np.concatenate(batches), dtype=np.int64)
    level = program.tiling.ttis.lattice_points_np()[sel[seg[:-1]]] @ \
        np.asarray(program.stage("dense_s"), dtype=np.int64)
    return sel, seg, level


def tile_segments(program: "TiledProgram", tile: Tuple[int, ...]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """``tile``'s wavefront levels concatenated (``sel``) with their
    prefix offsets (``seg``).  This is the one partial-tile level
    filter: a partial tile's levels are the full tile's filtered
    through its mask (level order and the order within a level kept; a
    level may come out empty)."""
    sel, seg, _level = program.stage("full_segments")
    tiling = program.tiling
    if tiling.classify_tile(tile) == "full":
        return sel, seg
    # positions (in ``sel``) of the kept points; a level's new offset is
    # the number of them before its old one
    kept = np.flatnonzero(tiling.tile_mask(tile)[sel])
    return sel[kept], np.searchsorted(kept, seg)


def tile_levels(program: "TiledProgram",
                tile: Tuple[int, ...]) -> List[np.ndarray]:
    """The non-empty wavefront levels of ``tile`` (index arrays into
    ``ttis.lattice_points_np()``, in increasing level)."""
    sel, seg = tile_segments(program, tile)
    cuts = seg.tolist()
    return [sel[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def interior_region(program: "TiledProgram",
                    direction: Sequence[int]) -> np.ndarray:
    """Lattice indices of an interior tile's ``CC`` pack region toward
    ``direction``, in the payload order (kept per direction): the
    lattice's own order, which is lexicographic by construction."""
    key = tuple(direction)
    index: Dict[Tuple[int, ...], np.ndarray] = program.stage("region_index")
    idx = index.get(key)
    if idx is None:
        idx = index[key] = np.flatnonzero(pack_region(program, key))
    return idx


def region_index(program: "TiledProgram", tile: Tuple[int, ...],
                 direction: Sequence[int]) -> np.ndarray:
    """Lattice indices of ``tile``'s ``CC`` pack region toward
    ``direction``, in the frozen payload order: the interior region,
    cut by a partial tile's mask."""
    idx = interior_region(program, direction)
    tiling = program.tiling
    if tiling.classify_tile(tile) == "full":
        return idx
    return idx[tiling.tile_mask(tile)[idx]]


def overlap_plan(program: "TiledProgram", plan: RankPlan,
                 t: int) -> TileOverlapPlan:
    """The overlapped schedule of chain tile ``t`` of ``plan`` (see
    :class:`TileOverlapPlan`), for exactly the messages the frozen plan
    schedules there.

    A compile-time artifact: full tiles with the same message signature
    share one plan (their keys are position-independent); partial tiles
    get their own, keyed by tile.
    """
    tile = plan.tiles[t]
    sends = tuple(s.direction for s in plan.sends[t])
    recvs = tuple(r.ds for r in plan.recvs[t])
    full = program.tiling.classify_tile(tile) == "full"
    key = ("full" if full else tile, sends, recvs)
    plans: Dict[object, TileOverlapPlan] = program.stage("overlap_plans")
    oplan = plans.get(key)
    if oplan is None:
        oplan = plans[key] = _build_overlap_plan(program, tile, sends,
                                                 recvs)
    return oplan


def prewarm_overlap_plans(program: "TiledProgram") -> None:
    """Build every tile's overlap plan (idempotent).  Called before
    forking workers so children share the plans copy-on-write."""
    for plan in build_rank_plans(program).values():
        for t in range(len(plan.tiles)):
            overlap_plan(program, plan, t)


#: The stage-table rows of the level tables (registered, in table order,
#: by :mod:`repro.runtime.executor`).
DENSE_S = Stage("dense_s", "program", _build_dense_s, persisted=True)
DENSE_BATCHES = Stage("dense_batches", "program", _build_dense_batches,
                      persisted=True)
OVERLAP_PLANS = Stage("overlap_plans", "program", on_demand, persisted=True,
                      encode=copied, decode=copied, version=3)
FULL_SEGMENTS = Stage("full_segments", "program", _build_full_segments)
REGION_INDEX = Stage("region_index", "program", on_demand)


# -- the dense data back-end of the rank step ---------------------------------------


@dataclass(frozen=True, eq=False)
class LdsTables:
    """The LDS address algebra of one LDS geometry — its element
    ``strides`` and halo ``offsets`` — computed once per program
    (:func:`lds_tables`).

    :meth:`to_flat` is the single definition of the condensed ``map``,
    evaluated once per geometry into ``base`` (:func:`_build_tables`)
    and from then on only added to: lattice point ``i`` shifted by the
    TTIS offset ``off`` lives, in chain tile ``t``, at ``base[off][i] +
    t * shift_unit``.  ``base[off]`` is :meth:`to_flat` of ``lat -
    off`` at ``t = 0`` for ``off`` in ``{0} | {d'}`` (``wbase``, key
    ``0``: the cells a tile writes, packs and writes back; key ``d'``:
    the sources of a read).  The shift is exact because
    ``TTIS.__init__`` enforces ``c_k | v_k``.  ``halo_unit @ d^S`` is
    the paper's RECEIVE displacement ``d^S_k v_k / c_k``.  Ranks whose
    chains differ in length share one when their strides agree.
    """

    m: int
    vm: int                            # v_m
    c: np.ndarray
    strides: np.ndarray
    offsets: np.ndarray
    halo_unit: np.ndarray              # rows * strides
    shift_unit: int                    # rows[m] * strides[m]
    base: Dict[Tuple[int, ...], np.ndarray]

    @property
    def wbase(self) -> np.ndarray:
        return self.base[(0,) * len(self.strides)]

    def to_flat(self, jp: np.ndarray, t: int) -> np.ndarray:
        """Flat LDS cells of TTIS points ``jp`` (rows) in chain tile
        ``t`` — the single definition of the condensed ``map``.  Floor
        division is intentional (see :meth:`LocalDataSpace.map`)."""
        shifted = jp.copy()
        shifted[:, self.m] += t * self.vm
        return (shifted // self.c + self.offsets) @ self.strides


def lds_tables(ttis: "TTIS", m: int, strides: np.ndarray,
               offsets: np.ndarray,
               table_offsets: Sequence[Tuple[int, ...]]) -> LdsTables:
    """The :class:`LdsTables` of one geometry, ``base`` keyed by
    ``table_offsets`` (the zero offset first)."""
    halo_unit = np.asarray(ttis.rows_per_dim, dtype=np.int64) * strides
    tables = LdsTables(m=m, vm=int(ttis.v[m]),
                       c=np.asarray(ttis.c, dtype=np.int64),
                       strides=strides, offsets=offsets,
                       halo_unit=halo_unit,
                       shift_unit=int(halo_unit[m]), base={})
    tables.base.update(_build_tables(tables, np.ascontiguousarray(
        ttis.lattice_points_np(), dtype=np.int64), table_offsets))
    return tables


def _build_tables(tables: LdsTables, lat: np.ndarray,
                  table_offsets: Sequence[Tuple[int, ...]],
                  ) -> Dict[Tuple[int, ...], np.ndarray]:
    """``base[off]`` of ``tables``: the one evaluation of the condensed
    ``map`` per geometry and offset."""
    return {off: np.ascontiguousarray(tables.to_flat(
        lat - np.asarray(off, dtype=np.int64), 0))
        for off in table_offsets}


@dataclass(frozen=True)
class GlobalTable:
    """``loc⁻¹`` composed with ``f_w`` for one written array, as flat
    field addresses: iteration ``j`` writes cell ``gtile @ j + gconst``
    of the raveled field, so lattice point ``i`` of the tile at
    ``origin`` is cell ``gbase[i] + gtile @ origin``."""

    array: str
    values: np.ndarray                 # flat view of the field's values
    written: np.ndarray                # flat view of its written mask
    gbase: np.ndarray                  # tis @ gtile + gconst
    gtile: np.ndarray                  # fstr @ F  (so gshift = gtile.origin)
    gconst: int                        # (f - field.origin) . fstr

    def gshift(self, origin: np.ndarray) -> int:
        return int(self.gtile @ origin)


class TileContext(NamedTuple):
    """What one (rank, tile) needs beyond the tables on the numpy path:
    its flat shift, its executed lattice points (``sel``, in execution
    order, with the segment offsets ``seg`` — one segment per wavefront
    level, or on an overlapped tile one per :func:`overlap_key` value,
    the points sorted by key) and, per (statement, read), the lattice-indexed values of a
    pure-input read (``None`` for a dependence read: it loads the LDS,
    halo included).  Built once per tile.  The native kernels need none
    of it."""

    shift: int
    sel: np.ndarray
    seg: np.ndarray
    pure: Tuple[Tuple[Optional[np.ndarray], ...], ...]


class HaloFillError(ParallelRuntimeError):
    """An out-of-domain source addresses a cell outside the rank's LDS
    box (the halo sizing of ``CommunicationSpec`` was violated)."""


class BoundaryRead(NamedTuple):
    """One dependence read as the boundary fill sees it: the source of
    lattice point ``i`` of the tile at ``origin`` is out of the domain
    iff ``A tis_i > (b - A origin) + A d`` in some row of ``rows`` (the
    rows with ``(A d)_r < 0``; no other row can fail)."""

    array: str
    indexer: RefIndexer
    dep_prime: Tuple[int, ...]
    a_dep: np.ndarray
    rows: np.ndarray


def _flat_view(a: np.ndarray) -> np.ndarray:
    if not a.flags["C_CONTIGUOUS"]:
        raise ValueError("result fields must be C-contiguous")
    return a.reshape(-1)


def _c_strides(shape: Sequence[int]) -> np.ndarray:
    """Element strides of a C-ordered array of ``shape``."""
    strides = np.ones(len(shape), dtype=np.int64)
    for k in reversed(range(len(shape) - 1)):
        strides[k] = strides[k + 1] * shape[k + 1]
    return strides


# -- the halo tables: every address a run's halo traffic needs ----------------------


class MessageCells(NamedTuple):
    """The LDS cells of one message in payload order: ``addr + base +
    t * shift_unit`` in chain tile ``t``, ``addr`` starting at 0.  Full
    tiles share one per (LDS tables, side, direction); a partial tile's
    is its own, a slice of its build pass's array in the narrowest
    integer type that holds that array."""

    addr: np.ndarray
    base: int


class HaloFill(NamedTuple):
    """The boundary fill of one rank and array: the distinct
    out-of-domain source cells its chain reads, in the order of the
    first chain tile that reads each (``addr[cuts[t]:cuts[t + 1]]`` are
    chain tile ``t``'s), each with its LDS cell ``addr`` and the array
    cell ``cells`` whose ``init_value`` it holds."""

    array: str
    addr: np.ndarray
    cells: np.ndarray
    cuts: np.ndarray


class RankHalo(NamedTuple):
    """One rank's row of the ``halo_tables`` stage: its LDS ``tables``
    and cell count, its boundary fills, and the cells of every message,
    ``packs[t][k]`` for ``plan.sends[t][k]`` and ``unpacks[t][i]`` for
    ``plan.recvs[t][i]`` (the halo cells the receive lands in)."""

    tables: LdsTables
    size: int
    fills: Tuple[HaloFill, ...]
    packs: List[List[MessageCells]]
    unpacks: List[List[MessageCells]]


def region_flat(program: "TiledProgram", tables: LdsTables,
                tile: Tuple[int, ...], direction: Sequence[int],
                t: int) -> np.ndarray:
    """Cells of ``tile``'s ``CC`` pack region toward ``direction`` as
    chain tile ``t`` of an LDS with ``tables``, in the frozen payload
    order: the definition every :class:`MessageCells` of the halo
    tables equals (``tests/runtime/test_address_tables.py``)."""
    return (tables.wbase[region_index(program, tile, direction)]
            + t * tables.shift_unit)


#: The narrow integer types a frozen table may use, with their ranges.
_NARROW = [(np.int16, -(1 << 15), (1 << 15) - 1),
           (np.int32, -(1 << 31), (1 << 31) - 1)]


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest of int16, int32 and its own type that
    holds every entry (a table kept for the program's life)."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    for dtype, least, most in _NARROW:
        if least <= lo and hi <= most:
            return a.astype(dtype)
    return a


def _dependence_reads(program: "TiledProgram",
                      ) -> List[Tuple[ArrayRef, Tuple[int, ...],
                                      Tuple[int, ...]]]:
    """``(ref, d, d')`` of every read of a written array."""
    nest, ttis = program.nest, program.tiling.ttis
    deps = read_dependences(nest)
    return [(r, d, tuple(int(x) for x in
                         ttis.transformed_dependences([d])[0]))
            for si, s in enumerate(nest.statements)
            for r, d in zip(s.reads, deps[si]) if d is not None]


def _build_halo_tables(program: "TiledProgram") -> Dict[int, RankHalo]:
    """The ``halo_tables`` stage: one :class:`RankHalo` per rank of
    the program's ``rank_plans``.  Only the ``init_value`` values of the
    fill are left to a run."""
    plans = build_rank_plans(program)
    ttis, m = program.tiling.ttis, program.dist.m
    reads = _dependence_reads(program)
    table_offsets = list(dict.fromkeys(
        [(0,) * program.n, *(dp for _r, _d, dp in reads)]))
    tables: Dict[Tuple[Tuple[int, ...], ...], LdsTables] = {}
    rank_tables: Dict[int, LdsTables] = {}
    sizes: Dict[int, int] = {}
    for rank, plan in plans.items():
        geom = program.addressing.lds_for(plan.pid)
        strides = _c_strides(geom.shape)
        key = (tuple(strides.tolist()), tuple(geom.offsets))
        tb = tables.get(key)
        if tb is None:
            tb = tables[key] = lds_tables(
                ttis, m, strides, np.asarray(geom.offsets, dtype=np.int64),
                table_offsets)
        rank_tables[rank] = tb
        sizes[rank] = int(geom.cells)
    fills = _halo_fills(program, plans, rank_tables, sizes, reads)
    packs, unpacks = _message_cells(program, plans, rank_tables)
    return {rank: RankHalo(rank_tables[rank], sizes[rank], fills[rank],
                           packs[rank], unpacks[rank]) for rank in plans}


#: Lattice points (messages x region, or tiles x tile volume) one
#: vectorised pass of the halo-table build covers: enough to amortise
#: the pass, few enough that its temporaries stay small (a forked worker
#: inherits what the heap kept).
BUILD_CHUNK_POINTS = 1 << 17


def _message_cells(program: "TiledProgram", plans: Dict[int, RankPlan],
                   rank_tables: Dict[int, LdsTables],
                   ) -> Tuple[Dict[int, Any], Dict[int, Any]]:
    """Per rank, the :class:`MessageCells` of every send (``packs``) and
    receive (``unpacks``) of its plan, by chain index and plan order:
    the cells :func:`region_flat` gives at ``t = 0``, on the receive
    side shifted back by ``halo_unit @ d^S``.  Built per (tables, side,
    direction): the interior region's cells once, shared by the full
    tiles, and every partial tile's as those cells cut by its mask
    (:func:`region_index` for a batch of tiles at once)."""
    tiling = program.tiling
    full: Dict[Tuple[int, ...], bool] = {}
    # per rank, chain index and plan position, filled below
    packs = {rank: [[None] * len(ss) for ss in plan.sends]
             for rank, plan in plans.items()}
    unpacks = {rank: [[None] * len(rr) for rr in plan.recvs]
               for rank, plan in plans.items()}
    # (tables, halo side, direction) -> [(slots, position, tile)]
    groups: Dict[Tuple[int, bool, Tuple[int, ...]],
                 List[Tuple[List[Any], int, Tuple[int, ...]]]] = {}
    for rank, plan in plans.items():
        tb = id(rank_tables[rank])
        for t, tile in enumerate(plan.tiles):
            for k, s in enumerate(plan.sends[t]):
                groups.setdefault((tb, False, s.direction), []).append(
                    (packs[rank][t], k, tile))
            for i, r in enumerate(plan.recvs[t]):
                groups.setdefault((tb, True, r.ds), []).append(
                    (unpacks[rank][t], i, r.pred))
    tables = {id(tb): tb for tb in rank_tables.values()}
    for (key, halo, direction), msgs in groups.items():
        tb = tables[key]
        idx = interior_region(program, direction)
        flat = tb.wbase[idx]
        if halo:
            flat = flat - int(tb.halo_unit @ np.asarray(direction,
                                                        dtype=np.int64))
        base = int(flat.min()) if len(flat) else 0
        # shared by every full tile; intp, the fastest index
        shared = MessageCells(flat - base, base)
        partial = []
        for slots, pos, tile in msgs:
            if tile not in full:
                full[tile] = tiling.classify_tile(tile) == "full"
            if full[tile]:
                slots[pos] = shared
            else:
                partial.append((slots, pos, tile))
        step = max(1, BUILD_CHUNK_POINTS // max(1, len(idx)))
        for at in range(0, len(partial), step):
            part = partial[at:at + step]
            keep = np.stack([tiling.tile_mask(tile)[idx]
                             for _s, _p, tile in part])
            counts = keep.sum(axis=1)
            cuts = np.concatenate([[0], np.cumsum(counts)])
            kept = np.broadcast_to(flat, keep.shape)[keep]
            bases = np.zeros(len(part), dtype=np.int64)
            some = counts > 0
            if some.any():
                bases[some] = np.minimum.reduceat(kept, cuts[:-1][some])
            rel = _narrow(kept - np.repeat(bases, counts))
            for (slots, pos, _tile), a, b, base in zip(
                    part, cuts[:-1].tolist(), cuts[1:].tolist(),
                    bases.tolist()):
                slots[pos] = MessageCells(rel[a:b], base)
    return packs, unpacks


def _halo_fills(program: "TiledProgram", plans: Dict[int, RankPlan],
                rank_tables: Dict[int, LdsTables], sizes: Dict[int, int],
                reads: Sequence[Tuple[ArrayRef, Tuple[int, ...],
                                      Tuple[int, ...]]],
                ) -> Dict[int, Tuple[HaloFill, ...]]:
    """Every rank's :class:`HaloFill` rows, built over the chain tiles of
    whole groups of ranks at once.

    Executed point ``i`` of the tile at ``origin`` reads outside the
    domain through row ``r`` exactly when ``thr_r < A_tis[r, i] <= b_r
    - (A origin)_r`` with ``thr = b + A d - A origin``: a window of row
    ``r``'s sorted ``A_tis``, two ``searchsorted`` per (read, row) over
    every tile of the group (a partial tile's window is then cut to its
    executed points by its ``tile_mask``).  Such a source has a halo
    cell of its own (docs/RUNTIME.md, *Dense LDS layout*), so each
    distinct cell of a rank is kept once, with the earliest chain tile
    that reads it; a cell outside the rank's LDS box is the named
    :class:`HaloFillError` (a numpy scatter would wrap a negative one).
    """
    tiling = program.tiling
    amat, bvec = tiling._amat, tiling._bvec
    out: Dict[int, Tuple[HaloFill, ...]] = {rank: () for rank in plans}
    breads: List[BoundaryRead] = []
    seen: Set[Tuple[str, Tuple[int, ...]]] = set()
    for ref, d, dp in reads:
        a_dep = amat @ np.asarray(d, dtype=np.int64)
        rows = np.flatnonzero(a_dep < 0)
        if (ref.array, d) in seen or not len(rows):
            continue
        seen.add((ref.array, d))
        breads.append(BoundaryRead(ref.array, RefIndexer.of(ref), dp,
                                   a_dep, rows))
    if not breads:
        return out
    a_tis = tiling.stage("tis_constraints")[0]
    a_order = np.argsort(a_tis, axis=1, kind="stable")
    a_sorted = np.take_along_axis(a_tis, a_order, axis=1)
    tis = tiling.ttis.tis_points_np()
    names = list(dict.fromkeys(br.array for br in breads))
    # per array: its reads, their ``F tis + f`` and ``F``
    groups = []
    for name in names:
        slots = [n for n, br in enumerate(breads) if br.array == name]
        groups.append((name, slots, np.stack([
            breads[n].indexer.cells(tis) for n in slots]), [
            breads[n].indexer for n in slots]))
    of_array = np.array([names.index(br.array) for br in breads])

    def fills(ranks: List[int]) -> None:
        """The rows of ``ranks``: their chain tiles, rank-major in chain
        order, are ``g = 0, 1, ...``."""
        tiles = [tile for r in ranks for tile in plans[r].tiles]
        lens = np.array([len(plans[r].tiles) for r in ranks])
        first = np.cumsum(lens) - lens
        owner = np.repeat(np.arange(len(ranks)), lens)
        chain_t = np.arange(len(tiles)) - first[owner]
        origins = np.array(tiles, dtype=np.int64) @ tiling._p_int.T
        upper = bvec - origins @ amat.T                   # (tiles, rows)
        # one record (g, i, q) per (tile, point, read, failing row)
        recs: List[Tuple[np.ndarray, np.ndarray, int]] = []
        for q, br in enumerate(breads):
            for r in br.rows.tolist():
                lo = np.searchsorted(a_sorted[r],
                                     upper[:, r] + br.a_dep[r], "right")
                cnt = np.searchsorted(a_sorted[r], upper[:, r],
                                      "right") - lo
                k = int(cnt.sum())
                if k:
                    recs.append((np.repeat(np.arange(len(tiles)), cnt),
                                 a_order[r][np.arange(k) + np.repeat(
                                     lo - np.cumsum(cnt) + cnt, cnt)], q))
        if not recs:
            return
        g = np.concatenate([rec[0] for rec in recs])
        by_tile = np.argsort(g, kind="stable")
        g = g[by_tile]
        i = np.concatenate([rec[1] for rec in recs])[by_tile]
        q = np.concatenate([np.full(len(rec[0]), rec[2])
                            for rec in recs])[by_tile]
        del recs, by_tile
        # a partial tile keeps its executed points only
        at = np.searchsorted(g, np.arange(len(tiles) + 1)).tolist()
        run = np.ones(len(g), dtype=bool)
        for n, tile in enumerate(tiles):
            a, b = at[n], at[n + 1]
            if a < b and tiling.classify_tile(tile) != "full":
                run[a:b] = tiling.tile_mask(tile)[i[a:b]]
        g, i, q = g[run], i[run], q[run]
        # the LDS cell of each source
        tabs = list({id(rank_tables[r]): rank_tables[r]
                     for r in ranks}.values())
        slot = {id(tb): n for n, tb in enumerate(tabs)}
        tab = np.array([slot[id(rank_tables[r])] for r in ranks])[owner[g]]
        addr = np.stack([np.stack([tb.base[br.dep_prime] for br in breads])
                         for tb in tabs])[tab, q, i] + chain_t[g] * \
            np.array([tb.shift_unit for tb in tabs])[tab]
        size = np.array([sizes[r] for r in ranks])
        bad = (addr < 0) | (addr >= size[owner[g]])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            mine = ((owner[g] == owner[g[j]])
                    & (of_array[q] == of_array[q[j]]))
            raise HaloFillError(
                f"rank {plans[ranks[owner[g[j]]]].pid}: an out-of-domain "
                f"source of {breads[q[j]].array!r} addresses cell "
                f"{int(addr[mine].min())}..{int(addr[mine].max())} of an "
                f"LDS of {int(size[owner[g[j]]])}")
        # per (rank, array), the earliest tile's read of every distinct
        # cell, in tile order (cells ascending within a tile); ``g`` is
        # rank-major, so one int64 key per order does
        span = int(size.max())
        rows: Dict[int, List[HaloFill]] = {rank: [] for rank in ranks}
        for a, (name, slots, ftis, indexers) in enumerate(groups):
            pick = np.flatnonzero(of_array[q] == a)
            if not len(pick):
                continue
            _cells, first_read = np.unique(
                owner[g[pick]] * span + addr[pick], return_index=True)
            pick = pick[first_read]
            pick = pick[np.argsort(g[pick] * span + addr[pick])]
            # F (tis_i + origin) + f: a lattice and a tile term
            qa, ga = np.searchsorted(slots, q[pick]), g[pick]
            cells = ftis[qa, i[pick]] + np.stack([
                ix.cells(origins) - ix.offset for ix in indexers])[qa, ga]
            cells, addr_a = _narrow(cells), _narrow(addr[pick])
            # chain tile t of rank slot s: addr_a[cut[first[s] + t]:...]
            cut = np.searchsorted(ga, np.arange(len(tiles) + 1))
            for s, rank in enumerate(ranks):
                a0, a1 = int(cut[first[s]]), int(cut[first[s] + lens[s]])
                if a0 < a1:
                    rows[rank].append(HaloFill(
                        name, addr_a[a0:a1], cells[a0:a1],
                        cut[first[s]:first[s] + lens[s] + 1] - a0))
        out.update((rank, tuple(rows[rank])) for rank in ranks)

    chunk: List[int] = []
    points = 0
    for rank in sorted(plans):
        chunk.append(rank)
        points += len(plans[rank].tiles) * len(tis)
        if points >= BUILD_CHUNK_POINTS:
            fills(chunk)
            chunk, points = [], 0
    if chunk:
        fills(chunk)
    return out


#: The halo tables of every rank: built on first use (``execute_dense``
#: and ``run_parallel`` ask before the walk), never persisted.
HALO_TABLES = Stage("halo_tables", "program", _build_halo_tables)


class DenseData:
    """What every rank of one dense run shares: lattice tables,
    statement plans (input tables, ``d`` and ``d'`` per read), the
    result ``fields`` (allocated here unless the caller supplies
    storage — the parallel workers pass shared memory), one
    :class:`GlobalTable` per written array and, for a usable ``native``
    library, the native runtime over the same plans and tables.  The
    LDS address tables and every halo address come from the program's
    ``halo_tables`` stage (:class:`RankHalo`), not from the run.
    """

    def __init__(self, prog: "TiledProgram", init_value: InitFn,
                 native: Optional["NativeKernelLibrary"] = None,
                 fields: Optional[Dict[str, DenseField]] = None):
        ttis = prog.tiling.ttis
        self.prog = prog
        self.init_value = init_value
        self.arrays: Tuple[str, ...] = tuple(prog.arrays)
        self.lat = np.ascontiguousarray(ttis.lattice_points_np(),
                                        dtype=np.int64)
        self.tis = np.ascontiguousarray(ttis.tis_points_np(),
                                        dtype=np.int64)
        self.nlat = len(self.lat)
        self.plans = build_statement_plans(prog.nest, init_value, ttis)
        self.fields = (fields if fields is not None
                       else result_fields(prog.nest))

        n = prog.n
        self.gtables: List[GlobalTable] = []
        for plan in self.plans:
            field = self.fields[plan.stmt.write.array]
            fstr = _c_strides(field.values.shape)
            wi = plan.write_indexer
            f_int = (np.eye(n, dtype=np.int64) if wi.f_int is None
                     else wi.f_int)
            gtile = fstr @ f_int
            gconst = int((wi.offset - np.asarray(
                field.origin, dtype=np.int64)) @ fstr)
            self.gtables.append(GlobalTable(
                array=plan.stmt.write.array,
                values=_flat_view(field.values),
                written=_flat_view(field.written),
                gbase=self.tis @ gtile + gconst,
                gtile=gtile, gconst=gconst))

        self.native_rt = (native.runtime_for(self)
                          if native is not None else None)

    def rank(self, pid: Tuple[int, ...]) -> "RankLDS":
        return RankLDS(self, pid)

    # -- per-tile index sets --------------------------------------------------------

    def tile_origin(self, tile: Tuple[int, ...]) -> np.ndarray:
        return np.asarray(self.prog.tiling.tile_origin(tile),
                          dtype=np.int64)

    # -- per-tile pure inputs -------------------------------------------------------

    def tile_pure(self, tile: Tuple[int, ...], sel: np.ndarray,
                  ) -> Tuple[Tuple[Optional[np.ndarray], ...], ...]:
        """Per (statement, read) of ``tile``, whose executed lattice
        points are ``sel``: a pure-input read's values gathered from
        its :class:`InputTable` (one lattice-indexed array per table),
        ``None`` for a dependence read."""
        gsel: Optional[np.ndarray] = None
        pures: Dict[int, np.ndarray] = {}
        out: List[Tuple[Optional[np.ndarray], ...]] = []
        for plan in self.plans:
            row: List[Optional[np.ndarray]] = []
            for rp in plan.reads:
                if rp.table is None:
                    row.append(None)
                    continue
                # Gather only at executed points: a partial tile's
                # clipped lattice points can map outside the table.
                vals = pures.get(id(rp.table))
                if vals is None:
                    if gsel is None:
                        gsel = self.tis[sel] + self.tile_origin(tile)
                    vals = np.zeros(self.nlat, dtype=np.float64)
                    vals[sel] = rp.table.gather(rp.indexer.cells(gsel))
                    pures[id(rp.table)] = vals
                row.append(vals)
            out.append(tuple(row))
        return tuple(out)


def _cells_of(buf: np.ndarray, msg: MessageCells, shift: int,
              ) -> Tuple[np.ndarray, np.ndarray]:
    """``(view, index)`` with ``view[index]`` the cells of ``msg`` in
    ``buf`` at chain shift ``shift``: a view from its first cell, so
    the frozen addresses index it as they are (a wrong, negative base
    wraps as a numpy index would)."""
    off = msg.base + shift
    if off >= 0:
        return buf[off:], msg.addr
    return buf, msg.addr + np.int64(off)


class RankLDS:
    """One rank's dense Local Data Space (paper §3.1, Figure 3).

    A flat numpy buffer per written array, addressed by the paper's
    condensed ``map``: TTIS point ``j'`` of chain tile ``t`` lives at
    ``((j' + t v_m e_m) // c + off) . strides`` —
    :meth:`LdsTables.to_flat`, evaluated once per LDS geometry and from
    then on only added to (the native kernels evaluate the same ``map``
    in their loops).  Everything that touches that memory is a method
    here: the boundary fill, halo unpack, ``CC``-region pack, compute
    and write-back (numpy wavefront batches or the native
    :class:`~repro.native.engine.RankKernels`).

    Built once per program (the rank's :class:`RankHalo`): the tables,
    the fill's cells and cuts, every message's cells.  Done per run:
    the fill's ``init_value`` calls (one ``fromiter`` per array at the
    first tile), one fill scatter per tile and array, one gather or
    scatter per message and array, compute and write-back.
    """

    def __init__(self, data: DenseData, pid: Tuple[int, ...]):
        self.data = data
        self.pid = pid
        prog = data.prog
        self.halo: RankHalo = prog.stage("halo_tables")[prog.rank_of[pid]]
        self.tables = tables = self.halo.tables
        self.strides = tables.strides
        self.offsets = tables.offsets
        self.size = self.halo.size
        tiling = prog.tiling
        chain = prog.dist.tiles_of(pid)
        # the origin ``P j^S`` of every chain tile, by chain index
        self.origins = np.array([tiling.tile_origin(tile) for tile in chain],
                                dtype=np.int64).reshape(len(chain), -1)
        self.local: Dict[str, np.ndarray] = {
            a: np.zeros(self.size, dtype=np.float64) for a in data.arrays}
        # Source table of every (statement, read); None for pure inputs.
        self.rbase: List[List[Optional[np.ndarray]]] = [
            [None if rp.dep_prime is None
             else tables.base[tuple(rp.dep_prime.tolist())]
             for rp in plan.reads] for plan in data.plans]
        self.kernels: Optional["RankKernels"] = (
            data.native_rt.for_rank(self)
            if data.native_rt is not None else None)
        # Per array with a fill: (buffer, cells, values, cuts); the
        # values are asked for at the first tile, dropped after the last.
        self._fill: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        List[int]]]] = None

    # -- RECEIVE / SEND -------------------------------------------------------------

    def unpack(self, t: int, i: int, payload: np.ndarray) -> None:
        """Scatter the ``i``-th receive of chain tile ``t`` into its
        halo cells: the sender's cells shifted back by ``d^S_k v_k /
        c_k``."""
        msg = self.halo.unpacks[t][i]
        shift = t * self.tables.shift_unit
        cnt = len(msg.addr)
        for ai, arr in enumerate(self.data.arrays):
            view, idx = _cells_of(self.local[arr], msg, shift)
            view[idx] = payload[ai * cnt:(ai + 1) * cnt]

    def pack(self, t: int, k: int,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Serialize the ``k``-th send of chain tile ``t`` — its ``CC``
        region's values, array-major, one lex-order gather per array —
        into ``out`` when given (the ring port passes the message's
        mailbox slot)."""
        msg = self.halo.packs[t][k]
        shift = t * self.tables.shift_unit
        cnt = len(msg.addr)
        if out is None:
            out = np.empty(cnt * len(self.data.arrays), dtype=np.float64)
        for ai, arr in enumerate(self.data.arrays):
            view, idx = _cells_of(self.local[arr], msg, shift)
            out[ai * cnt:(ai + 1) * cnt] = view[idx]
        return out

    # -- COMPUTE --------------------------------------------------------------------

    def _fill_halo(self, t: int) -> None:
        """Fill the halo cells of the out-of-domain sources chain tile
        ``t`` is the first to read: the rank's values come from one
        ``init_value`` call per cell at its first tile."""
        fill = self._fill
        if fill is None:
            init = self.data.init_value
            fill = self._fill = [
                (self.local[f.array], f.addr, np.fromiter(
                    map(init, repeat(f.array), zip(*f.cells.T.tolist())),
                    dtype=np.float64, count=len(f.addr)), f.cuts.tolist())
                for f in self.halo.fills]
        for buf, addr, vals, cuts in fill:
            a, b = cuts[t], cuts[t + 1]
            if a < b:
                buf[addr[a:b]] = vals[a:b]
        if t + 1 == len(self.origins):
            self._fill = []

    def tile_context(self, tile: Tuple[int, ...], t: int,
                     sends: Optional[Tuple[Tuple[int, ...], ...]] = None,
                     ) -> Any:
        """The per-tile context of the compute calls, built once per
        tile after filling its halo.  Given the directions of its
        ``sends``, the context of an overlapped tile: on the native
        kernels its chain index and send boxes, else a
        :class:`TileContext` whose points are sorted by
        :func:`overlap_key` (stably: level order and the order within a
        level kept) and whose segments are the keys.  Without, a
        :class:`TileContext` whose segments are the tile's wavefront
        levels."""
        d = self.data
        self._fill_halo(t)
        if self.kernels is not None and sends is not None:
            return self.kernels.tile(t, sends)
        if sends is None:
            sel, seg = tile_segments(d.prog, tile)
        else:
            sel, key = overlap_key(d.prog, tile, sends)
            sel, seg = sel[np.argsort(key, kind="stable")], key_offsets(key)
        return TileContext(shift=t * self.tables.shift_unit, sel=sel,
                           seg=seg, pure=d.tile_pure(tile, sel))

    def compute_batch(self, ctx: TileContext, batch: np.ndarray) -> None:
        """One wavefront (sub-)batch of mutually independent lattice
        points through the numpy kernels."""
        d = self.data
        local, shift = self.local, ctx.shift
        wflat = self.tables.wbase[batch] + shift
        for plan, pures, rbases in zip(d.plans, ctx.pure, self.rbase):
            vals = [pure[batch] if rbase is None
                    else local[rp.ref.array][rbase[batch] + shift]
                    for rp, pure, rbase in zip(plan.reads, pures, rbases)]
            local[plan.stmt.write.array][wflat] = kexpr.evaluate(
                plan.stmt.expr, vals)

    def compute_phase(self, ctx: Any, phase: OverlapPhase) -> None:
        """The points of one phase of an overlapped tile's plan, keys
        ``[lo, hi)`` of its context: nothing when it has none, else one
        native call, or one numpy batch per wavefront level — keys
        ``2L`` and ``2L + 1`` are one level, so a batch spans both
        unless the phase starts or ends between them."""
        lo, hi = phase.klo, phase.khi
        if not phase.points:
            return
        if self.kernels is not None:
            self.kernels.run_phase(ctx, lo, hi)
        else:
            self._run_batches(ctx, ctx.seg[
                [lo, *range(lo + 2 - (lo & 1), hi, 2), hi]].tolist())

    def compute_tile(self, tile: Tuple[int, ...], t: int) -> None:
        """Every point of ``tile``: one native call, or one numpy batch
        per wavefront level, in order."""
        if self.kernels is not None:
            self._fill_halo(t)
            self.kernels.run_tile(tile, t)
        else:
            ctx = self.tile_context(tile, t)
            self._run_batches(ctx, ctx.seg.tolist())

    def _run_batches(self, ctx: TileContext, offsets: List[int]) -> None:
        """One numpy batch per non-empty ``sel[a:b]`` of consecutive
        ``offsets``."""
        for a, b in zip(offsets, offsets[1:]):
            if a < b:
                self.compute_batch(ctx, ctx.sel[a:b])

    # -- WRITE-BACK -----------------------------------------------------------------

    def write_back(self, tiles: Sequence[Tuple[int, ...]]) -> None:
        """Place the computed points of ``tiles`` into the global
        fields (Table 2's ``loc⁻¹`` composed with ``f_w``): one
        ``repro_write_back`` call per tile on the native kernels, or per
        array one flat gather and one flat scatter."""
        d = self.data
        prog = d.prog
        if self.kernels is not None:
            for tile in tiles:
                self.kernels.write_back(tile, prog.dist.chain_index(tile))
            return
        tb = self.tables
        for tile in tiles:
            mask = (None if prog.tiling.classify_tile(tile) == "full"
                    else prog.tiling.tile_mask(tile))
            if mask is not None and not mask.any():
                continue
            shift = prog.dist.chain_index(tile) * tb.shift_unit
            origin = d.tile_origin(tile)
            idx = None if mask is None else np.flatnonzero(mask)
            flat = tb.wbase + shift if idx is None else tb.wbase[idx] + shift
            for g in d.gtables:
                cells = (g.gbase if idx is None
                         else g.gbase[idx]) + g.gshift(origin)
                g.values[cells] = self.local[g.array][flat]
                g.written[cells] = True
