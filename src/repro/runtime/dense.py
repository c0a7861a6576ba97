"""Dense vectorized execution core (shared by every dense driver).

The sparse interpreters and the executor's ``execute`` walk iteration
points one dict lookup at a time; that is the semantic reference, but it
is orders of magnitude slower than the hardware allows.  This module
holds the machinery the dense drivers share:

* ``read_dependences`` — the dependence vector behind each read of a
  written array (``None`` for pure inputs);
* ``wavefront_vector`` / ``level_batches`` — a linear schedule ``s``
  with ``s . d >= 1`` for every dependence, and the partition of a point
  set into its wavefront levels: all points of one level are mutually
  independent, so a whole level executes as one batched numpy kernel;
* ``StatementPlan`` / ``evaluate_statement_batch`` — per-statement
  gather / kernel plumbing.  Reads of written arrays go through a
  driver-supplied gather (global dense field for the sequential driver,
  LDS buffer for the distributed one); pure-input reads hit a dense
  :class:`InputTable` precomputed from ``init_value``;
* the program's level tables, stage rows built from its roots alone —
  ``dense_s``, ``dense_batches``, ``lex_order``, the overlap plans
  (:func:`overlap_plan`) — with :func:`tile_segments`, the one filter
  of a full tile's levels down to a partial tile's, and
  :func:`region_index`, a pack region in payload order;
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

Bitwise agreement with the sparse reference comes from evaluating the
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
from repro.runtime.rankstep import build_rank_plans, pack_region, region_mask
from repro.stages import Stage, copied, on_demand

if TYPE_CHECKING:
    from repro.native.engine import NativeKernelLibrary, RankKernels
    from repro.runtime.executor import TiledProgram
    from repro.runtime.rankstep import RankPlan, TileRecv
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
    bitwise those the sparse reference reads), then gathered per batch.
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
                      init_value: InitFn,
                      dtype: type = np.float64) -> InputTable:
    """Precompute every value ``init_value`` can return for ``ref``
    over ``domain``."""
    lo, shape = _access_box(ref, domain)
    values = np.empty(shape, dtype=dtype)
    for idx in np.ndindex(*shape):
        cell = tuple(a + b for a, b in zip(idx, lo))
        values[idx] = init_value(ref.array, cell)
    return InputTable(array=ref.array,
                      origin=np.asarray(lo, dtype=np.int64),
                      values=values)


def field_for_write(ref: ArrayRef, domain: Polyhedron,
                    dtype: type = np.float64) -> DenseField:
    """A zeroed :class:`DenseField` covering every cell ``ref`` can
    write over ``domain``."""
    lo, shape = _access_box(ref, domain)
    return DenseField(
        origin=lo,
        values=np.zeros(shape, dtype=dtype),
        written=np.zeros(shape, dtype=bool),
    )


def result_fields(nest: LoopNest,
                  dtype: type = np.float64) -> Dict[str, DenseField]:
    """A zeroed result field per written array of ``nest``."""
    return {s.write.array: field_for_write(s.write, nest.domain, dtype)
            for s in nest.statements}


# -- statement plans ---------------------------------------------------------------


@dataclass
class ReadPlan:
    """One read slot of a statement, ready for batched evaluation."""

    ref: ArrayRef
    indexer: RefIndexer
    dep: Optional[np.ndarray]          # int64 (n,), None for pure inputs
    table: Optional[InputTable]        # set exactly when dep is None
    dep_prime: Optional[np.ndarray] = None  # d' = H' d (tiled drivers)


@dataclass
class StatementPlan:
    stmt: Statement
    write_indexer: RefIndexer
    reads: List[ReadPlan]


def build_statement_plans(nest: LoopNest, init_value: InitFn,
                          dtype: type = np.float64,
                          ttis: Optional["TTIS"] = None,
                          ) -> List[StatementPlan]:
    """Compile the nest's statements for batched execution.

    Pure-input tables are shared between reads with the same access
    function (ADI reads its coefficient array from both statements).
    With ``ttis`` every dependence also gets its TTIS image ``d'``.
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
                    table = build_input_table(r, nest.domain, init_value,
                                              dtype)
                    tables[key] = table
            reads.append(ReadPlan(
                ref=r,
                indexer=RefIndexer.of(r),
                dep=None if d is None else np.asarray(d, dtype=np.int64),
                table=table,
                dep_prime=None if d is None or ttis is None
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


GatherFn = Callable[[ReadPlan, np.ndarray], np.ndarray]


# -- overlap splitting --------------------------------------------------------------


@dataclass(frozen=True)
class EdgePackPlan:
    """Compile-time pack schedule of one outgoing message of the
    overlapped walk.

    The payload *is* the blocking one — array-major blocks of ``count``
    elements, each block in lexicographic lattice order of the pack
    region — because it is gathered by the blocking
    :meth:`RankLDS.pack` itself, once, at ``commit_level``: the last
    wavefront level that writes a region point, after that level's
    boundary segment and before its interior.
    """

    direction: Tuple[int, ...]          # full d with 0 at mapping dim
    count: int                          # region points per array block
    commit_level: int                   # last level feeding the region


class OverlapPhase(NamedTuple):
    """One step of an overlapped tile: take ``recvs`` (receive-plan
    positions), execute segments ``[lo, hi)`` of the plan's ``cuts``,
    publish ``sends`` (send-plan positions)."""

    recvs: Tuple[int, ...]
    lo: int
    hi: int
    sends: Tuple[int, ...]


@dataclass(frozen=True)
class TileOverlapPlan:
    """The overlapped schedule of one tile, frozen as a phase table.

    ``order`` is the tile's executed lattice points, wavefront-level
    major, and inside each level the points of some outgoing ``CC``
    pack region (*boundary*) before the rest (*interior*); ``cuts``
    are the ``2 nlevels + 1`` offsets of those segments (segment
    ``2L``: boundary of level ``L``, ``2L + 1``: its interior).  Per
    level that is a stable reorder of the dense engine's batch — legal
    because the points of a wavefront level are mutually independent
    (``s . d' >= 1``) and bitwise-neutral because the kernels are
    elementwise.

    ``recv_level[i]`` is the level before which the ``i``-th incoming
    message is taken: the first level with a point that can read its
    halo, lowered to the minimum over every later message of the same
    FIFO edge (a deferred message defers everything behind it).
    ``phases`` places those receives, the segments and the publishes
    (plan order, each once its and every earlier send's
    ``commit_level`` boundary has run): the segment list is cut only
    where a receive or a publish has to happen between two segments.
    """

    order: np.ndarray                   # int64, C-contiguous
    cuts: np.ndarray                    # int64, len 2 * nlevels + 1
    packs: Tuple[EdgePackPlan, ...]     # plan order (send_plan order)
    recv_level: Tuple[int, ...]         # plan order (receive_plan order)
    phases: Tuple[OverlapPhase, ...]

    @property
    def nlevels(self) -> int:
        return len(self.cuts) // 2


def overlap_phases(nlev: int, recv_level: Sequence[int],
                   commit_level: Sequence[int]
                   ) -> Tuple[OverlapPhase, ...]:
    """The phase table of one tile with ``nlev`` levels, its receive
    levels and its sends' commit levels (all in ``[0, nlev)``).  A
    receive of level ``L`` sits at cut ``2L`` (before the level's
    boundary), a publish of commit level ``L`` at cut ``2L + 1``
    (between boundary and interior, never ahead of an earlier send);
    the segment list ``[0, 2 nlev)`` is split at exactly those cuts."""
    if not nlev:                        # an empty tile: all at once
        return (OverlapPhase(tuple(range(len(recv_level))), 0, 0,
                             tuple(range(len(commit_level)))),)
    takes: Dict[int, List[int]] = {}
    for i, lv in enumerate(recv_level):
        takes.setdefault(2 * lv, []).append(i)
    pubs: Dict[int, List[int]] = {}
    gate = 0
    for k, lv in enumerate(commit_level):
        gate = max(gate, 2 * lv + 1)
        pubs.setdefault(gate, []).append(k)
    stops = sorted({0, 2 * nlev, *takes, *pubs})
    return tuple(OverlapPhase(tuple(takes.get(a, ())), a, b,
                              tuple(pubs.get(b, ())))
                 for a, b in zip(stops, stops[1:]))


def build_overlap_split(
    lat: np.ndarray,
    batches: Sequence[np.ndarray],
    send_regions: Sequence[Tuple[Tuple[int, ...], np.ndarray]],
    recv_dirs: Sequence[Tuple[int, ...]],
    recv_edges: Sequence[Any],
    max_dp: Sequence[int],
) -> TileOverlapPlan:
    """Derive one tile's :class:`TileOverlapPlan`.

    ``send_regions`` pairs each outgoing direction with its pack-region
    mask over ``lat`` (already clipped to the tile); ``recv_dirs`` are
    the incoming tile dependences ``d^S`` in receive-plan order and
    ``recv_edges`` names the FIFO edge each arrives on.  A point can
    read the halo of ``d^S`` only if it sits within the dependence
    reach of *every* boundary the message crossed (``j'_k < max_l
    d'_kl`` for each ``k`` with ``d^S_k > 0``), so the earliest level
    containing such a point bounds how long the unpack may be deferred.
    """
    nlat = len(lat)
    nlev = len(batches)
    level_of = np.full(nlat, -1, dtype=np.int64)
    for li, b in enumerate(batches):
        level_of[b] = li
    bmask = np.zeros(nlat, dtype=bool)
    packs: List[EdgePackPlan] = []
    for direction, region in send_regions:
        bmask |= region
        lv = level_of[region]
        packs.append(EdgePackPlan(
            direction=tuple(int(x) for x in direction),
            count=int(len(lv)),
            commit_level=int(lv.max()) if len(lv) else -1,
        ))
    # boundary before interior inside each level, level order kept: one
    # stable sort by segment number.
    executed = (np.concatenate(batches) if nlev
                else np.zeros(0, dtype=np.int64))
    segno = 2 * level_of[executed] + ~bmask[executed]
    order = np.ascontiguousarray(
        executed[np.argsort(segno, kind="stable")], dtype=np.int64)
    cuts = np.zeros(2 * nlev + 1, dtype=np.int64)
    np.cumsum(np.bincount(segno, minlength=2 * nlev), out=cuts[1:])
    recv_level: List[int] = []
    for ds in recv_dirs:
        readers = level_of >= 0
        for k, dk in enumerate(ds):
            if dk > 0:
                readers &= lat[:, k] < max(int(max_dp[k]), 0)
        lv = level_of[readers]
        recv_level.append(int(lv.min()) if len(lv) else 0)
    floor: Dict[Any, int] = {}
    for i in reversed(range(len(recv_level))):
        recv_level[i] = floor[recv_edges[i]] = min(
            recv_level[i], floor.get(recv_edges[i], recv_level[i]))
    return TileOverlapPlan(
        order=order,
        cuts=cuts,
        packs=tuple(packs),
        recv_level=tuple(recv_level),
        phases=overlap_phases(nlev, recv_level,
                              [p.commit_level for p in packs]),
    )


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


def _build_lex_order(program: "TiledProgram") -> np.ndarray:
    """Lexicographic execution order of the TTIS lattice points — the
    frozen intra-region payload order every engine packs with."""
    return np.lexsort(program.tiling.ttis.lattice_points_np().T[::-1])


def _build_full_segments(
        program: "TiledProgram") -> Tuple[np.ndarray, np.ndarray]:
    batches = program.stage("dense_batches")
    seg = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in batches], out=seg[1:])
    return np.ascontiguousarray(np.concatenate(batches),
                                dtype=np.int64), seg


def tile_segments(program: "TiledProgram", tile: Tuple[int, ...]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """``tile``'s wavefront levels concatenated (``sel``) with their
    prefix offsets (``seg``).  This is the one partial-tile level
    filter: a partial tile's levels are the full tile's filtered
    through its mask (level order and the order within a level kept; a
    level may come out empty)."""
    sel, seg = program.stage("full_segments")
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


def region_index(program: "TiledProgram", tile: Tuple[int, ...],
                 direction: Sequence[int]) -> np.ndarray:
    """Lattice indices of ``tile``'s ``CC`` pack region toward
    ``direction``, in the frozen payload order (an interior tile's are
    kept per direction)."""
    key = tuple(direction)
    index: Dict[Tuple[int, ...], np.ndarray] = program.stage("region_index")
    idx = index.get(key)
    if idx is None:
        order = program.stage("lex_order")
        idx = index[key] = order[pack_region(program, key)[order]]
    tiling = program.tiling
    if tiling.classify_tile(tile) == "full":
        return idx
    return idx[tiling.tile_mask(tile)[idx]]


def overlap_plan(program: "TiledProgram", plan: RankPlan,
                 t: int) -> TileOverlapPlan:
    """Boundary/interior split of chain tile ``t`` of ``plan`` (see
    :class:`TileOverlapPlan`), for exactly the messages the frozen plan
    schedules there.

    A compile-time artifact: full tiles with the same message signature
    share one plan (the lattice, batches and regions are
    position-independent for interior tiles); partial tiles get their
    own, keyed by tile.
    """
    tile = plan.tiles[t]
    sends = tuple(s.direction for s in plan.sends[t])
    recvs = tuple(r.ds for r in plan.recvs[t])
    full = program.tiling.classify_tile(tile) == "full"
    key = ("full" if full else tile, sends, recvs)
    plans: Dict[object, TileOverlapPlan] = program.stage("overlap_plans")
    oplan = plans.get(key)
    if oplan is None:
        comm = program.comm
        oplan = plans[key] = build_overlap_split(
            program.tiling.ttis.lattice_points_np(),
            tile_levels(program, tile),
            [(d, region_mask(program, tile, d)) for d in sends],
            recvs,
            # messages of one d^m share one (source, tag) ring
            [comm.project(ds) for ds in recvs],
            comm.max_dp,
        )
    return oplan


def prewarm_overlap_plans(program: "TiledProgram") -> None:
    """Build every tile's overlap plan (idempotent).  Called before
    forking workers so children share the plans copy-on-write."""
    for plan in build_rank_plans(program).values():
        for t in range(len(plan.tiles)):
            overlap_plan(program, plan, t)


#: The stage-table rows of the level tables (registered, in table order,
#: by :mod:`repro.runtime.executor`).
LEX_ORDER = Stage("lex_order", "program", _build_lex_order, persisted=True)
DENSE_S = Stage("dense_s", "program", _build_dense_s, persisted=True)
DENSE_BATCHES = Stage("dense_batches", "program", _build_dense_batches,
                      persisted=True)
OVERLAP_PLANS = Stage("overlap_plans", "program", on_demand, persisted=True,
                      encode=copied, decode=copied, version=2)
FULL_SEGMENTS = Stage("full_segments", "program", _build_full_segments)
REGION_INDEX = Stage("region_index", "program", on_demand)


def evaluate_statement_batch(plan: StatementPlan, points: np.ndarray,
                             gather: GatherFn,
                             dtype: type = np.float64) -> np.ndarray:
    """Gather every read of ``plan`` over the batch of independent
    ``points`` and evaluate the statement's kernel expr on it.

    ``gather(read_plan, points)`` resolves reads of *written* arrays
    (driver-specific storage); pure-input reads come from the plan's
    table.
    """
    vals: List[np.ndarray] = []
    for rp in plan.reads:
        if rp.table is not None:
            vals.append(rp.table.gather(rp.indexer.cells(points)))
        else:
            vals.append(gather(rp, points))
    return np.asarray(kexpr.evaluate(plan.stmt.expr, vals), dtype=dtype)


# -- the dense data back-end of the rank step ---------------------------------------


@dataclass(frozen=True)
class LdsTables:
    """The LDS address algebra of one LDS geometry, computed once.

    ``map`` is affine in the chain index: lattice point ``i`` shifted by
    the TTIS offset ``off`` lives, in chain tile ``t``, at
    ``base[off][i] + t * shift_unit``.  ``base[off]`` is
    :meth:`RankLDS.to_flat` of ``lat - off`` at ``t = 0`` for ``off`` in
    ``{0} | {d'}`` (key ``0``: the cells a tile writes, packs and writes
    back; key ``d'``: the sources of a read).  The shift is exact
    because ``TTIS.__init__`` enforces ``c_k | v_k``.  ``halo_unit @
    d^S`` is the paper's RECEIVE displacement ``d^S_k v_k / c_k``.
    """

    base: Dict[Tuple[int, ...], np.ndarray]
    wbase: np.ndarray                  # base[(0, ..., 0)]
    shift_unit: int                    # rows[m] * strides[m]
    halo_unit: np.ndarray              # rows * strides


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
    its flat shift, its executed lattice points (``sel``,
    wavefront-level-major, with the segment offsets ``seg`` — one
    segment per level, or the boundary/interior pairs of an overlap
    plan) and, per (statement, read), the lattice-indexed values of a
    pure-input read (``None`` for a dependence read: it loads the LDS,
    halo included).  Built once per tile.  The native kernels need none
    of it."""

    shift: int
    sel: np.ndarray
    seg: np.ndarray
    pure: Tuple[Tuple[Optional[np.ndarray], ...], ...]


class HaloFillError(RuntimeError):
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


class DenseData:
    """What every rank of one dense run shares: lattice tables,
    statement plans (input tables, ``d`` and ``d'`` per read), the
    result ``fields`` (allocated here unless the caller supplies
    storage — the parallel workers pass shared memory), the address
    tables (one :class:`LdsTables` per LDS geometry, one
    :class:`GlobalTable` per written array), the sorted rows of ``A
    tis`` and one :class:`BoundaryRead` per dependence that can leave
    the domain (what the ranks' boundary fills read) and, for a usable
    ``native`` library, the native runtime over the same plans and
    tables.
    """

    def __init__(self, prog: "TiledProgram", init_value: InitFn,
                 dtype: Any = np.float64,
                 native: Optional["NativeKernelLibrary"] = None,
                 fields: Optional[Dict[str, DenseField]] = None):
        tiling = prog.tiling
        ttis = tiling.ttis
        self.prog = prog
        self.init_value = init_value
        self.dtype = dtype
        self.arrays: Tuple[str, ...] = tuple(prog.arrays)
        self.m: int = prog.dist.m
        self.lat = np.ascontiguousarray(ttis.lattice_points_np(),
                                        dtype=np.int64)
        self.tis = np.ascontiguousarray(ttis.tis_points_np(),
                                        dtype=np.int64)
        self.nlat = len(self.lat)
        self.v = np.asarray(ttis.v, dtype=np.int64)
        self.c = np.asarray(ttis.c, dtype=np.int64)
        self.rows = self.v // self.c
        self.plans = build_statement_plans(prog.nest, init_value, dtype,
                                           ttis)
        self.fields = (fields if fields is not None
                       else result_fields(prog.nest, dtype))

        # LDS side: every offset a table is built for.
        n = prog.n
        self.table_offsets: List[Tuple[int, ...]] = list(dict.fromkeys(
            [(0,) * n, *(tuple(rp.dep_prime.tolist())
                         for plan in self.plans for rp in plan.reads
                         if rp.dep_prime is not None)]))
        self.lds_tables: Dict[Tuple[Any, ...], LdsTables] = {}

        # Global side.
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

        # Boundary side: the rows of ``A tis`` sorted once, so the
        # executed points whose source breaks a row are one window of
        # it per tile (see :meth:`RankLDS._boundary_fill`).
        amat, bvec = tiling._amat, tiling._bvec
        self.amat, self.bvec = amat, bvec
        a_tis = amat @ self.tis.T
        self.a_order = np.argsort(a_tis, axis=1, kind="stable")
        self.a_sorted = np.take_along_axis(a_tis, self.a_order, axis=1)
        self.boundary_reads: List[BoundaryRead] = []
        seen: Set[Tuple[str, Tuple[int, ...]]] = set()
        for plan in self.plans:
            for rp in plan.reads:
                if rp.dep is None:
                    continue
                key = (rp.ref.array, tuple(rp.dep.tolist()))
                a_dep = amat @ rp.dep
                rows = np.flatnonzero(a_dep < 0)
                if key in seen or not len(rows):
                    continue
                seen.add(key)
                assert rp.dep_prime is not None
                self.boundary_reads.append(BoundaryRead(
                    rp.ref.array, rp.indexer,
                    tuple(rp.dep_prime.tolist()), a_dep, rows))

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
                    vals = np.zeros(self.nlat, dtype=self.dtype)
                    vals[sel] = rp.table.gather(rp.indexer.cells(gsel))
                    pures[id(rp.table)] = vals
                row.append(vals)
            out.append(tuple(row))
        return tuple(out)


class RankLDS:
    """One rank's dense Local Data Space (paper §3.1, Figure 3).

    A flat numpy buffer per written array, addressed by the paper's
    condensed ``map``: TTIS point ``j'`` of chain tile ``t`` lives at
    ``((j' + t v_m e_m) // c + off) . strides`` — :meth:`to_flat`,
    evaluated once per LDS geometry into :class:`LdsTables` and from
    then on only added to (the native kernels evaluate the same
    ``map`` in their loops).  Everything that touches that memory is a
    method here: the boundary fill, halo unpack, ``CC``-region pack,
    compute and write-back (numpy wavefront batches or the native
    :class:`~repro.native.engine.RankKernels`).
    """

    def __init__(self, data: DenseData, pid: Tuple[int, ...]):
        self.data = data
        self.pid = pid
        self.geom = data.prog.addressing.lds_for(pid)
        self.strides = _c_strides(self.geom.shape)
        self.offsets = np.asarray(self.geom.offsets, dtype=np.int64)
        self.size = int(self.geom.cells)
        tiling = data.prog.tiling
        chain = data.prog.dist.tiles_of(pid)
        # the origin ``P j^S`` of every chain tile, by chain index
        self.origins = np.array([tiling.tile_origin(tile) for tile in chain],
                                dtype=np.int64).reshape(len(chain), -1)
        self.local: Dict[str, np.ndarray] = {
            a: np.zeros(self.size, dtype=data.dtype) for a in data.arrays}
        key = (self.geom.shape, self.geom.offsets)
        tables = data.lds_tables.get(key)
        if tables is None:
            tables = data.lds_tables[key] = self._build_tables()
        self.tables = tables
        # Source table of every (statement, read); None for pure inputs.
        self.rbase: List[List[Optional[np.ndarray]]] = [
            [None if rp.dep_prime is None
             else tables.base[tuple(rp.dep_prime.tolist())]
             for rp in plan.reads] for plan in data.plans]
        self.kernels: Optional["RankKernels"] = (
            data.native_rt.for_rank(self)
            if data.native_rt is not None else None)
        # Chain index -> the halo cells to fill before that tile runs;
        # built at the first tile, emptied as the tiles take their part.
        self._fill: Optional[Dict[int, List[Tuple[str, np.ndarray,
                                                  np.ndarray]]]] = None

    # -- addressing -----------------------------------------------------------------

    def to_flat(self, jp: np.ndarray, t: int) -> np.ndarray:
        """Flat LDS cells of TTIS points ``jp`` (rows) in chain tile
        ``t`` — the single definition of the condensed ``map``.  Floor
        division is intentional (see :meth:`LocalDataSpace.map`)."""
        d = self.data
        shifted = jp.copy()
        shifted[:, d.m] += t * int(d.v[d.m])
        return (shifted // d.c + self.offsets) @ self.strides

    def _build_tables(self) -> LdsTables:
        d = self.data
        base = {off: np.ascontiguousarray(self.to_flat(
            d.lat - np.asarray(off, dtype=np.int64), 0))
            for off in d.table_offsets}
        halo_unit = d.rows * self.strides
        return LdsTables(base=base, wbase=base[d.table_offsets[0]],
                         shift_unit=int(halo_unit[d.m]),
                         halo_unit=halo_unit)

    def region_flat(self, tile: Tuple[int, ...],
                    direction: Sequence[int], t: int) -> np.ndarray:
        """Cells of ``tile``'s ``CC`` pack region toward ``direction``
        as chain tile ``t``, in the frozen payload order."""
        tb = self.tables
        return (tb.wbase[region_index(self.data.prog, tile, direction)]
                + t * tb.shift_unit)

    # -- RECEIVE / SEND -------------------------------------------------------------

    def unpack(self, r: "TileRecv", payload: np.ndarray, t: int) -> None:
        """Scatter one received region into the halo of chain tile
        ``t``: the sender's cells shifted back by ``d^S_k v_k / c_k``."""
        flat = self.region_flat(r.pred, r.ds, t) - int(
            self.tables.halo_unit @ np.asarray(r.ds, dtype=np.int64))
        cnt = len(flat)
        for ai, arr in enumerate(self.data.arrays):
            self.local[arr][flat] = payload[ai * cnt:(ai + 1) * cnt]

    def pack(self, tile: Tuple[int, ...], direction: Sequence[int],
             t: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Serialize the region's values, array-major: one lex-order
        gather per array, into ``out`` when given (the ring port passes
        the message's mailbox slot)."""
        flat = self.region_flat(tile, direction, t)
        cnt = len(flat)
        if out is None:
            out = np.empty(cnt * len(self.data.arrays),
                           dtype=self.data.dtype)
        for ai, arr in enumerate(self.data.arrays):
            out[ai * cnt:(ai + 1) * cnt] = self.local[arr][flat]
        return out

    # -- BOUNDARY -------------------------------------------------------------------

    def _boundary_fill(self) -> Dict[int, List[Tuple[str, np.ndarray,
                                                     np.ndarray]]]:
        """The out-of-domain source cells of this rank's chain, each
        with its ``init_value``, keyed by the chain index of the first
        tile that reads it.

        Executed point ``i`` of the tile at ``origin`` reads outside
        the domain through row ``r`` exactly when ``thr_r < A_tis[r, i]
        <= b_r - (A origin)_r`` with ``thr = b + A d - A origin``: a
        window of row ``r``'s sorted ``A_tis``, two ``searchsorted``
        per (read, row) for the whole chain (a partial tile's window
        is masked to its executed points).  Such a source has a halo
        cell of its own (docs/RUNTIME.md, *Dense LDS layout*), so each
        distinct cell is filled once, with one scalar ``init_value``
        call, before the earliest tile that reads it.
        """
        d = self.data
        tiling = d.prog.tiling
        chain = d.prog.dist.tiles_of(self.pid)
        nt = len(chain)
        origins = self.origins
        upper = d.bvec - origins @ d.amat.T                # (nt, rows)
        # the windows, per array: (read, row, first position, lengths)
        windows: Dict[str, List[Tuple[BoundaryRead, int, np.ndarray,
                                      np.ndarray]]] = {}
        for br in d.boundary_reads:
            for r in br.rows.tolist():
                lo = np.searchsorted(d.a_sorted[r],
                                     upper[:, r] + br.a_dep[r], "right")
                cnt = np.searchsorted(d.a_sorted[r], upper[:, r],
                                      "right") - lo
                if cnt.any():
                    windows.setdefault(br.array, []).append(
                        (br, r, lo, cnt))
        part = [t for t, tile in enumerate(chain)
                if tiling.classify_tile(tile) != "full"]
        prow = np.full(nt, -1, dtype=np.int64)
        prow[part] = np.arange(len(part))
        masks = np.stack([tiling.tile_mask(chain[t]) for t in part]
                         ) if part else None
        out: Dict[int, List[Tuple[str, np.ndarray, np.ndarray]]] = {}
        for array, wins in windows.items():
            # one column per (tile, executed point, read): chain index,
            # lattice index, source cell, read
            rec = np.empty((4, sum(int(w[3].sum()) for w in wins)),
                           dtype=np.int64)
            at = 0
            for q, (br, r, lo, cnt) in enumerate(wins):
                k = int(cnt.sum())
                tq = np.repeat(np.arange(nt), cnt)
                iq = d.a_order[r][np.arange(k) + np.repeat(
                    lo - np.cumsum(cnt) + cnt, cnt)]
                rec[:3, at:at + k] = (
                    tq, iq, self.tables.base[br.dep_prime][iq]
                    + tq * self.tables.shift_unit)
                rec[3, at:at + k] = q
                at += k
            if masks is not None:
                pr = prow[rec[0]]
                keep = pr < 0
                keep[~keep] = masks[pr[~keep], rec[1][~keep]]
                rec = rec[:, keep]
            ts, idx, addr, which = rec
            if not len(ts):
                continue
            if addr.min() < 0 or addr.max() >= self.size:
                raise HaloFillError(
                    f"rank {self.pid}: an out-of-domain source of "
                    f"{array!r} addresses cell {int(addr.min())}.."
                    f"{int(addr.max())} of an LDS of {self.size}")
            # the earliest tile's read of every distinct cell, in tile
            # order
            order = np.argsort(ts, kind="stable")
            order = order[np.argsort(addr[order], kind="stable")]
            first = np.ones(len(order), dtype=bool)
            first[1:] = addr[order[1:]] != addr[order[:-1]]
            keep = order[first]
            ts, idx, addr, which = rec[:, keep[np.argsort(ts[keep],
                                                          kind="stable")]]
            cells = np.empty((len(idx), d.tis.shape[1]), dtype=np.int64)
            for q, (br, _r, _lo, _cnt) in enumerate(wins):
                mine = which == q
                cells[mine] = br.indexer.cells(
                    d.tis[idx[mine]] + origins[ts[mine]])
            vals = np.fromiter(
                map(d.init_value, repeat(array), zip(*cells.T.tolist())),
                dtype=d.dtype, count=len(cells))
            # one copy per tile, so each is freed once its tile took it
            new = np.ones(len(ts), dtype=bool)
            new[1:] = ts[1:] != ts[:-1]
            cuts = [*np.flatnonzero(new).tolist(), len(ts)]
            for a, b in zip(cuts, cuts[1:]):
                out.setdefault(int(ts[a]), []).append(
                    (array, addr[a:b].copy(), vals[a:b].copy()))
        return out

    # -- COMPUTE --------------------------------------------------------------------

    def _fill_halo(self, t: int) -> None:
        """Fill the halo cells of the out-of-domain sources chain tile
        ``t`` is the first to read (the whole fill is derived at the
        first tile)."""
        if self._fill is None:
            self._fill = self._boundary_fill()
        for array, addr, vals in self._fill.pop(t, ()):
            self.local[array][addr] = vals

    def tile_context(self, tile: Tuple[int, ...], t: int,
                     oplan: Optional[TileOverlapPlan] = None,
                     ) -> Any:
        """The per-tile context of the compute calls, built once per
        tile after filling its halo: on the native kernels an overlapped
        tile's chain index and :class:`~repro.native.engine.Window`,
        else a :class:`TileContext` whose segments are the tile's
        wavefront levels, or the ``order``/``cuts`` of its overlap
        plan."""
        d = self.data
        self._fill_halo(t)
        if self.kernels is not None and oplan is not None:
            return self.kernels.tile(t, oplan)
        sel, seg = (tile_segments(d.prog, tile) if oplan is None
                    else (oplan.order, oplan.cuts))
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
            local[plan.stmt.write.array][wflat] = np.asarray(
                kexpr.evaluate(plan.stmt.expr, vals), dtype=d.dtype)

    def compute_phase(self, ctx: Any, lo: int, hi: int) -> None:
        """Segments ``[lo, hi)`` of an overlapped tile's context — one
        phase of its plan — in one native call, or one numpy batch per
        wavefront level: segments ``2L`` and ``2L + 1`` are one level,
        so a batch spans both unless the phase starts or ends between
        them."""
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
