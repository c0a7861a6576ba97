"""Assemble and run the generated SPMD node programs.

:class:`TiledProgram` is the compiler's output for one (nest, tiling)
pair: computation distribution, communication spec, LDS layout, and the
per-processor node program implementing the paper's main loop::

    FOR t^S in chain:
        RECEIVE(pid, t^S, D^S, CC)      # recv + unpack into LDS halo
        compute tile (TTIS traversal)   # strides/offsets from HNF
        SEND(pid, t^S, D^m, CC)         # pack + send per successor proc

:class:`DistributedRun` walks that node program
(:func:`repro.runtime.rankstep.rank_walk`) over the program's frozen
rank plans on the virtual cluster; the modes differ only in the data
back-end handed to the walk:

* ``simulate()`` — timing only: message sizes and compute volumes are
  exact (per-tile clipped point counts), but no data moves.  This is the
  mode the paper-scale experiments use.
* ``execute(init_value)`` — the sparse per-point reference: real LDS
  arrays addressed one cell at a time through the paper's ``map``, real
  pack/unpack, and a final owner-computes write-back to the global data
  space.  The integration tests compare it bit-for-bit against a
  sequential interpreter of the same nest, and every faster engine
  against it.
* ``execute_dense(init_value)`` — the same run over the dense
  :class:`~repro.runtime.dense.RankLDS` (numpy wavefront batches or
  native kernels); ``execute_parallel`` moves that LDS onto real OS
  processes (:mod:`repro.runtime.parallel`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.distribution.communication import CommunicationSpec
from repro.distribution.computation import ComputationDistribution
from repro.distribution.data import DistributedAddressing
from repro.linalg.ratmat import RatMat
from repro.loops import kexpr
from repro.loops.nest import LoopNest
from repro.runtime.dataspace import DenseField
from repro.runtime.dense import (
    DenseData,
    TileOverlapPlan,
    build_overlap_split,
    level_batches,
    read_dependences,
    schedule_dependences,
    wavefront_vector,
)
from repro.runtime.machine import ClusterSpec
from repro.runtime.rankstep import (
    RankPlan,
    TileRecv,
    VmpiPort,
    build_rank_plans,
    freeze_plans,
    rank_walk,
)
from repro.runtime.trace import EventTrace
from repro.runtime.vmpi import RankApi, RunStats, VirtualMPI
from repro.stages import (
    Stage,
    StageHolder,
    StageMemo,
    copied,
    on_demand,
    pickled,
    register,
    unpickled,
)
from repro.tiling.legality import check_legal_tiling
from repro.tiling.transform import TilingTransformation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.cost import CostCertificate
    from repro.analysis.hb.graph import HBCertificate
    from repro.native.engine import NativeKernelLibrary

Pid = Tuple[int, ...]
Tile = Tuple[int, ...]
Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]
#: A rank's node program: generator of Send/Recv/Compute requests.
NodeFn = Callable[[RankApi], Generator]
#: Candidate ``d^S`` of one ``d^m``: (receive-plan order, lex order).
_Orders = Tuple[Tuple[Tile, ...], Tuple[Tile, ...]]


class TiledProgram(StageHolder):
    """Everything the compiler derives for one nest under one tiling:
    the closed-form layers built here, and the rows of the stage table
    (end of this module) held in ``self.stages``."""

    stage_owner = "program"

    def __init__(self, nest: LoopNest, h: RatMat,
                 mapping_dim: Optional[int] = None,
                 verify: bool = False):
        check_legal_tiling(h, nest.dependences)
        self._build(nest, TilingTransformation(h, nest.domain), mapping_dim)
        if verify:
            # Guard mode: refuse to hand out a program the static
            # verifier can prove will race, deadlock, or address out of
            # bounds.  Import lazily — the analysis package depends on
            # this module.
            from repro.analysis.verifier import verify_program
            verify_program(self)

    @classmethod
    def from_compiled_state(cls, nest: LoopNest,
                            tiling: TilingTransformation,
                            mapping_dim: Optional[int] = None,
                            ) -> "TiledProgram":
        """Construct-from-artifact path (see :mod:`repro.artifacts`).

        ``tiling`` arrives with its stored stages parked, so neither
        the legality proof nor the Fourier-Motzkin tile enumeration nor
        the lattice sweeps re-run.  The caller must only pass state
        produced by a legality-checked compile of the *same* (nest, H,
        mapping_dim); the artifact layer enforces this through its
        content hash.
        """
        prog = cls.__new__(cls)
        prog._build(nest, tiling, mapping_dim)
        return prog

    def _build(self, nest: LoopNest, tiling: TilingTransformation,
               mapping_dim: Optional[int]) -> None:
        self.nest = nest
        self.tiling = tiling
        self.dist = ComputationDistribution(self.tiling, mapping_dim)
        self.comm = CommunicationSpec(self.tiling, nest.dependences,
                                      self.dist.m)
        self.addressing = DistributedAddressing(self.dist, self.comm)
        self.n = self.tiling.n
        self.arrays = list(nest.written_arrays)
        # Dependence vector per (statement, read) that targets a written
        # array; None for pure-input reads.
        self._read_deps: List[List[Optional[Tuple[int, ...]]]] = \
            read_dependences(nest)
        # Rank numbering for the virtual communicator.
        self.pids: Tuple[Pid, ...] = self.dist.processors
        self.rank_of: Dict[Pid, int] = {p: i for i, p in enumerate(self.pids)}
        self.stages = StageMemo()

    # -- static queries ----------------------------------------------------------

    @property
    def num_processors(self) -> int:
        return len(self.pids)

    def total_points(self) -> int:
        """Iteration count of the whole nest (for speedup baselines)."""
        return sum(self.tile_point_count(t) for t in self.dist.tiles)

    def tile_point_count(self, tile: Tile) -> int:
        """Domain points of ``tile``; partial tiles pay one mask
        reduction ever (the schedule model, the makespan sweep and the
        rank-volume pass all ask repeatedly)."""
        points: Dict[Tile, int] = self.stage("points")
        count = points.get(tile)
        if count is None:
            count = points[tile] = self.tiling.tile_point_count(tile)
        return count

    def tile_mask(self, tile: Tile) -> np.ndarray:
        # ``tile`` is already a key of the tiling's ``masks`` stage: the
        # hit path (every pack and unpack asks) skips the per-call
        # normalization of ``tiling.tile_mask``.
        masks: Dict[Tile, np.ndarray] = self.tiling.stage("masks")
        try:
            return masks[tile]
        except KeyError:
            return self.tiling.tile_mask(tile)

    def region_mask(self, tile: Tile, direction: Sequence[int]) -> np.ndarray:
        """Mask (over TTIS lattice points) of the pack region of ``tile``
        toward tile/processor ``direction`` — computed points with
        ``j'_k >= cc_k`` on every non-mapping dimension the direction
        crosses."""
        return self.tile_mask(tile) & self.pack_region(direction)

    def pack_region(self, direction: Sequence[int]) -> np.ndarray:
        """:meth:`region_mask` of an unclipped (interior) tile (kept
        per direction; callers must not mutate it)."""
        key = tuple(direction)
        regions: Dict[Tuple[int, ...], np.ndarray] = \
            self.stage("pack_regions")
        mask = regions.get(key)
        if mask is None:
            lat = self.tiling.ttis.lattice_points_np()
            mask = np.ones(len(lat), dtype=bool)
            lbs = self.comm.pack_lower_bounds(key)
            for k in range(self.n):
                if lbs[k] > 0:
                    mask &= lat[:, k] >= lbs[k]
            regions[key] = mask
        return mask

    def dense_schedule_vector(self) -> Tuple[int, ...]:
        """The TTIS wavefront vector the dense engine batches with.

        Built from the union of actual read dependences and the nest's
        declared matrix, pushed through the TTIS transformation — a
        pure compile-time quantity (the emitters burn it into generated
        sources)."""
        s: Tuple[int, ...] = self.stage("dense_s")
        return s

    def _build_dense_s(self) -> Tuple[int, ...]:
        ttis = self.tiling.ttis
        dprimes = ttis.transformed_dependences(
            schedule_dependences(self.nest))
        return wavefront_vector(
            [d for d in dprimes if any(d)], self.n, extents=ttis.v)

    def dense_level_batches(self, tile: Tile) -> List[np.ndarray]:
        """Wavefront levels of ``tile`` under
        :meth:`dense_schedule_vector`: index arrays into
        ``ttis.lattice_points_np()``, in increasing level; partial
        tiles drop their clipped points (and any emptied levels)."""
        batches: List[np.ndarray] = self.stage("dense_batches")
        if self.tiling.classify_tile(tile) == "full":
            return batches
        mask = self.tile_mask(tile)
        out = []
        for b in batches:
            bb = b[mask[b]]
            if len(bb):
                out.append(bb)
        return out

    def _build_dense_batches(self) -> List[np.ndarray]:
        return level_batches(self.tiling.ttis.lattice_points_np(),
                             self.dense_schedule_vector())

    def dense_lex_order(self) -> np.ndarray:
        """Lexicographic execution order of the TTIS lattice points —
        the frozen intra-region payload order every engine packs with."""
        order: np.ndarray = self.stage("lex_order")
        return order

    def _build_lex_order(self) -> np.ndarray:
        return np.lexsort(self.tiling.ttis.lattice_points_np().T[::-1])

    def overlap_directions(
        self, tile: Tile,
    ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
        """The (send, recv) directions of ``tile`` that carry payload,
        in plan order — read off the frozen rank plan, so exactly the
        messages every engine schedules."""
        plan = build_rank_plans(self)[self.rank_of[self.dist.pid_of(tile)]]
        t = self.dist.chain_index(tile)
        return (tuple(s.direction for s in plan.sends[t]),
                tuple(r.ds for r in plan.recvs[t]))

    def overlap_plan(self, tile: Tile) -> TileOverlapPlan:
        """Boundary/interior split of ``tile`` (see
        :class:`~repro.runtime.dense.TileOverlapPlan`).

        A compile-time artifact: full tiles with the same message
        signature share one plan (the lattice, batches and regions are
        position-independent for interior tiles); partial tiles get
        their own, keyed by tile.
        """
        sends, recvs = self.overlap_directions(tile)
        key: object
        if self.tiling.classify_tile(tile) == "full":
            key = ("full", sends, recvs)
        else:
            key = (tile, sends, recvs)
        plans: Dict[object, TileOverlapPlan] = self.stage("overlap_plans")
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = build_overlap_split(
                self.tiling.ttis.lattice_points_np(),
                self.dense_level_batches(tile),
                [(d, self.region_mask(tile, d)) for d in sends],
                recvs,
                # messages of one d^m share one (source, tag) ring
                [self.comm.project(ds) for ds in recvs],
                self.comm.max_dp,
            )
        return plan

    def prewarm_overlap_plans(self) -> None:
        """Build every tile's overlap plan (idempotent).  Called before
        forking workers so children share the plans copy-on-write."""
        for pid in self.pids:
            for tile in self.dist.tiles_of(pid):
                self.overlap_plan(tile)

    def hb_certificate(self, protocol: str = "eager",
                       overlap: bool = False, mailbox_depth: int = 8,
                       spec: Optional[ClusterSpec] = None,
                       ) -> HBCertificate:
        """Happens-before certificate of this program's parallel
        execution (see :mod:`repro.analysis.hb`): vector-clock race
        freedom (HB01) and wait-graph acyclicity (HB02) under one
        ``(protocol, overlap, mailbox_depth)`` configuration.

        Kept like :meth:`overlap_plan` — the certificate is a pure
        compile-time artifact of the frozen schedule.  Import is lazy
        for the same layering reason as ``verify=True``.
        """
        spec_key = None if spec is None else (
            spec.rendezvous_threshold, spec.bytes_per_element,
            spec.overlap)
        key = (protocol, bool(overlap), int(mailbox_depth), spec_key)
        certs: Dict[object, HBCertificate] = self.stage("hb_certificates")
        cert = certs.get(key)
        if cert is None:
            from repro.analysis.hb.graph import certify_program
            cert = certs[key] = certify_program(
                self, protocol=protocol, overlap=overlap,
                mailbox_depth=mailbox_depth, spec=spec)
        return cert

    def cost_certificate(self, protocol: str = "eager",
                         mailbox_depth: int = 8,
                         spec: Optional[ClusterSpec] = None,
                         bound_factor: float = 2.0,
                         ) -> "CostCertificate":
        """Static cost certificate of this program (see
        :mod:`repro.analysis.cost`): exact per-edge communication
        volumes (COST01), per-rank compute volumes (COST02), the
        analytic critical-path makespan (COST03) and the Dinh & Demmel
        lower-bound verdict (COST04).

        Unlike :meth:`hb_certificate`, the result depends on *every*
        timing parameter of the cluster model, so the full (frozen,
        hashable) spec is part of the key.
        """
        key = (protocol, int(mailbox_depth), float(bound_factor), spec)
        certs: Dict[object, CostCertificate] = \
            self.stage("cost_certificates")
        cert = certs.get(key)
        if cert is None:
            from repro.analysis.cost import certify_cost
            cert = certs[key] = certify_cost(
                self, spec=spec, protocol=protocol,
                mailbox_depth=mailbox_depth, bound_factor=bound_factor)
        return cert

    def full_region_count(self, direction: Sequence[int]) -> int:
        """Pack-region size of an *interior* tile toward ``direction`` —
        a pure compile-time quantity (no domain clipping)."""
        return int(self.pack_region(direction).sum())

    def region_count(self, tile: Tile, direction: Sequence[int]) -> int:
        """Pack-region size of ``tile`` toward ``direction``.  The
        ``region_counts`` stage holds every pair the communication
        schedule asks about; any other pair is counted on demand."""
        key = (tile, tuple(direction))
        counts: Dict[Tuple[Tile, Tuple[int, ...]], int] = \
            self.stage("region_counts")
        count = counts.get(key)
        if count is None:
            if self.tiling.classify_tile(tile) == "full":
                count = self.full_region_count(direction)
            else:
                count = int(self.region_mask(tile, direction).sum())
            counts[key] = count
        return count

    def _build_region_counts(
            self) -> Dict[Tuple[Tile, Tuple[int, ...]], int]:
        """Every (tile, direction) count the communication schedule can
        ask about, in bulk.

        One gather over the partial-tile masks replaces thousands of
        per-tile mask reductions — this is what keeps the static
        verifier's schedule replay a small fraction of construction
        time.  The per-call path of :meth:`region_count` computes
        identical values.
        """
        comm, dist, tiling = self.comm, self.dist, self.tiling
        m = dist.m
        counts: Dict[Tuple[Tile, Tuple[int, ...]], int] = {}
        # Exactly the directions the communication schedule queries:
        # tile dependencies of each d^m (receives) and the zeroed-at-m
        # processor directions (sends).
        dirs: List[Tuple[int, ...]] = []
        for dm in comm.d_m:
            dirs.extend(tuple(ds) for ds in comm.ds_of_dm(dm))
            dirs.append(dm[:m] + (0,) + dm[m:])
        dirs = list(dict.fromkeys(dirs))
        if not dirs:
            return counts
        nlat = len(tiling.ttis.lattice_points_np())
        # Pack regions are thin slabs (thickness v_k - cc_k); count over
        # the slab columns, or over the complement when the slab is the
        # wide side.  Only the union of those column sets is ever
        # touched, so partial-tile masks are gathered down to it instead
        # of being densified into a (tiles x volume) matrix.
        sels = []                           # (d, columns, use_complement)
        full_counts = []
        need_totals = False
        for d in dirs:
            vec = self.pack_region(d)
            full_counts.append(int(vec.sum()))
            idx = np.nonzero(vec)[0]
            if 2 * len(idx) <= nlat:
                sels.append((d, idx, False))
            else:
                sels.append((d, np.nonzero(~vec)[0], True))
                need_totals = True
        partial = [t for t in dist.tiles
                   if tiling.classify_tile(t) == "partial"]
        if partial:
            cols = np.unique(np.concatenate([c for _, c, _ in sels]))
            sub = np.empty((len(partial), len(cols)), dtype=bool)
            for i, t in enumerate(partial):
                sub[i] = tiling.tile_mask(t)[cols]
            totals = np.array(
                [self.tile_point_count(t) for t in partial],
                dtype=np.int64) if need_totals else None
            for d, sel, use_comp in sels:
                pos = np.searchsorted(cols, sel)
                cnts = np.count_nonzero(sub[:, pos], axis=1)
                if use_comp:
                    cnts = totals - cnts
                for t, cnt in zip(partial, cnts):
                    counts[(t, d)] = int(cnt)
        partial_set = set(partial)
        for t in dist.tiles:
            if t not in partial_set:
                for d, cnt in zip(dirs, full_counts):
                    counts[(t, d)] = cnt
        return counts

    # -- the communication schedule (shared by both modes) --------------------------

    def receive_plan(self, tile: Tile) -> List[Tuple[Tile, Tile, Pid]]:
        """Receives posted by ``tile``: ``(d^S, pred_tile, src_pid)``.

        Ordered so that per ``(source, direction)`` the matched messages
        arrive FIFO: directions sorted, and within a direction
        predecessors in ascending chain position (descending ``d^S_m``).
        """
        comm, dist = self.comm, self.dist
        tset = dist._tile_set
        pid = dist.pid_of(tile)
        orders: Dict[Pid, _Orders] = self.stage("recv_order")
        plan = []
        for dm in comm.d_m:
            cands, lex = orders[dm]
            src = None
            for ds in cands:
                pred = tuple([a - b for a, b in zip(tile, ds)])
                if pred not in tset:
                    continue
                # tile == minsucc(pred, dm) iff ds is the lex-smallest
                # candidate whose successor of pred is valid (succ order
                # and candidate order agree: succ = pred + ds).
                first = None
                for ds2 in lex:
                    if tuple([a + b for a, b in zip(pred, ds2)]) in tset:
                        first = ds2
                        break
                if first != ds:
                    continue
                if src is None:
                    src = tuple([a - b for a, b in zip(pid, dm)])
                plan.append((ds, pred, src))
        return plan

    def _build_recv_order(self) -> Dict[Pid, _Orders]:
        """Candidate ``d^S`` lists of every ``d^m``, in receive-plan
        order (descending mapping component) and lexicographic order."""
        m = self.dist.m
        out = {}
        for dm in self.comm.d_m:
            cands = tuple(sorted(self.comm.ds_of_dm(dm),
                                 key=lambda d: -d[m]))
            out[dm] = (cands, tuple(sorted(cands)))
        return out

    def send_plan(self, tile: Tile) -> List[Tuple[Pid, Pid]]:
        """Sends issued by ``tile``: ``(d^m, dst_pid)`` per successor
        processor with at least one valid successor tile."""
        comm, dist = self.comm, self.dist
        tset = dist._tile_set
        orders: Dict[Pid, _Orders] = self.stage("recv_order")
        plan = []
        pid = None
        for dm in comm.d_m:
            for ds in orders[dm][0]:
                if tuple([a + b for a, b in zip(tile, ds)]) in tset:
                    if pid is None:
                        pid = dist.pid_of(tile)
                    plan.append(
                        (dm, tuple([a + b for a, b in zip(pid, dm)])))
                    break
        return plan

    def message_tag(self, dm: Pid) -> int:
        return self.comm.d_m.index(tuple(dm))


# -- the program rows of the stage table ----------------------------------------


def _encode_points(prog: TiledProgram,
                   _points: Dict[Tile, int]) -> np.ndarray:
    return np.array([prog.tile_point_count(t) for t in prog.dist.tiles],
                    dtype=np.int64)


def _decode_points(prog: TiledProgram,
                   stored: np.ndarray) -> Dict[Tile, int]:
    return dict(zip(prog.dist.tiles, stored.tolist()))


# Bump a row's ``version`` when what it stores — HBCertificate,
# CostCertificate, TileOverlapPlan or anything they contain — changes
# shape: the stored copies are dropped and re-derived lazily, the
# geometry stays valid.
register(
    Stage("points", "program", on_demand, persisted=True,
          encode=_encode_points, decode=_decode_points),
    Stage("recv_order", "program", TiledProgram._build_recv_order),
    Stage("pack_regions", "program", on_demand),
    Stage("lex_order", "program", TiledProgram._build_lex_order,
          persisted=True),
    Stage("dense_s", "program", TiledProgram._build_dense_s,
          persisted=True),
    Stage("dense_batches", "program", TiledProgram._build_dense_batches,
          persisted=True),
    Stage("region_counts", "program", TiledProgram._build_region_counts,
          persisted=True, encode=copied, decode=copied),
    Stage("rank_plans", "program", freeze_plans, persisted=True,
          encode=pickled, decode=unpickled),
    Stage("overlap_plans", "program", on_demand, persisted=True,
          encode=copied, decode=copied, version=2),
    Stage("hb_certificates", "program", on_demand, persisted=True,
          encode=pickled, decode=unpickled, version=2),
    Stage("cost_certificates", "program", on_demand, persisted=True,
          encode=pickled, decode=unpickled),
)


class _SparseLDS:
    """The sparse per-point data back-end of one rank — the tol=0.0
    oracle: every access goes through the paper's scalar
    ``map``/``halo_slot`` one cell at a time, sharing nothing with the
    dense back-end but the frozen payload order."""

    def __init__(self, prog: TiledProgram, pid: Pid, init_value: InitFn,
                 dtype: type,
                 global_arrays: Dict[str, Dict[Cell, float]]):
        self.prog = prog
        self.init_value = init_value
        self.dtype = dtype
        self.global_arrays = global_arrays
        ttis = prog.tiling.ttis
        self.lat = ttis.lattice_points_np()
        self.order = prog.dense_lex_order()
        self.dprime = [
            [None if d is None else ttis.transformed_dependences([d])[0]
             for d in row]
            for row in prog._read_deps
        ]
        self.lds = prog.addressing.lds_for(pid)
        self.local = {a: self.lds.allocate(dtype) for a in prog.arrays}

    def _points(self, mask: np.ndarray) -> List[Tuple[int, ...]]:
        """TTIS points selected by ``mask``, in frozen payload order."""
        return [tuple(int(x) for x in self.lat[i])
                for i in self.order[mask[self.order]]]

    def unpack(self, r: TileRecv, payload: np.ndarray, t: int) -> None:
        """Paper RECEIVE: the receiver re-derives the sender's region
        (it knows the predecessor tile) and scatters values into the
        halo slots ``map(j', t) - d^S_k v_k / c_k``."""
        points = self._points(self.prog.region_mask(r.pred, r.ds))
        pos = 0
        for arr in self.prog.arrays:
            la = self.local[arr]
            for j_prime in points:
                la[self.lds.halo_slot(j_prime, r.ds, t)] = payload[pos]
                pos += 1

    def compute_tile(self, tile: Tile, t: int) -> None:
        prog = self.prog
        nest = prog.nest
        ttis = prog.tiling.ttis
        origin = prog.tiling.tile_origin(tile)
        for j_prime in self._points(prog.tile_mask(tile)):
            g = tuple(a + b for a, b in
                      zip(origin, ttis.from_ttis(j_prime)))
            cell = self.lds.map(j_prime, t)
            for si, s in enumerate(nest.statements):
                vals = []
                for ri, ref in enumerate(s.reads):
                    dep = prog._read_deps[si][ri]
                    if dep is None or not nest.domain.contains(
                            tuple(a - b for a, b in zip(g, dep))):
                        vals.append(
                            self.init_value(ref.array, ref.index(g)))
                    else:
                        src = tuple(a - b for a, b in
                                    zip(j_prime, self.dprime[si][ri]))
                        vals.append(
                            self.local[ref.array][self.lds.map(src, t)])
                self.local[s.write.array][cell] = kexpr.evaluate(
                    s.expr, vals)

    def pack(self, tile: Tile, direction: Tile, t: int) -> np.ndarray:
        """Paper SEND: serialize the region's values, array-major then
        lattice order."""
        prog = self.prog
        points = self._points(prog.region_mask(tile, direction))
        out = np.empty(len(points) * len(prog.arrays), dtype=self.dtype)
        pos = 0
        for arr in prog.arrays:
            la = self.local[arr]
            for j_prime in points:
                out[pos] = la[self.lds.map(j_prime, t)]
                pos += 1
        return out

    def write_back(self, tiles: Sequence[Tile]) -> None:
        prog = self.prog
        ttis = prog.tiling.ttis
        for tile in tiles:
            t = prog.dist.chain_index(tile)
            origin = prog.tiling.tile_origin(tile)
            for i in np.nonzero(prog.tile_mask(tile))[0]:
                j_prime = tuple(int(x) for x in self.lat[i])
                g = tuple(a + b for a, b in
                          zip(origin, ttis.from_ttis(j_prime)))
                cell = self.lds.map(j_prime, t)
                for s in prog.nest.statements:
                    self.global_arrays[s.write.array][s.write.index(g)] = \
                        float(self.local[s.write.array][cell])


class DistributedRun:
    """Execute a :class:`TiledProgram` on the virtual cluster (one
    walk, one port, three data back-ends — see the module docstring;
    their :class:`RunStats` are equal by construction)."""

    def __init__(self, program: TiledProgram, spec: ClusterSpec,
                 trace: Optional[EventTrace] = None):
        self.program = program
        self.spec = spec
        self.trace = trace

    def _run(self, plans: Dict[int, RankPlan],
             backend: Optional[Callable[[Pid], Any]] = None) -> RunStats:
        """Walk ``plans`` on the virtual cluster.  ``backend(pid)``
        makes a rank's data back-end (``None``: timing only); its
        write-back runs after the walk, outside the timed region."""
        prog, spec = self.program, self.spec

        def make_program(plan: RankPlan) -> NodeFn:
            data = None if backend is None else backend(plan.pid)

            def node(api: RankApi) -> Generator:
                yield from rank_walk(prog, plan,
                                     VmpiPort(spec, plan.rank), data)
                if data is not None:
                    data.write_back(plan.tiles)
            return node

        programs = {rank: make_program(plan)
                    for rank, plan in plans.items()}
        return VirtualMPI(spec, programs, trace=self.trace).run()

    # -- timing-only mode -----------------------------------------------------------

    def simulate(self) -> RunStats:
        """Run the communication/computation schedule with exact sizes
        but no data; returns the simulated clocks."""
        return self._run(build_rank_plans(self.program))

    def simulate_unaggregated(self) -> RunStats:
        """Ablation of the §3.2 Tang & Xue scheme: send one message per
        *tile dependence* instead of one per successor *processor*.

        The paper's asymmetry ("a tile will receive from tiles, while
        it will send to processors") exists precisely to aggregate the
        dependencies ``d^S`` sharing a processor direction ``d^m`` into
        a single message; this mode undoes that, so each crossing
        dependence pays its own latency and (identical) payload.
        Timing-only: :meth:`simulate` over the per-dependence plan.
        """
        return self._run(build_rank_plans(self.program, aggregate=False))

    # -- full data mode ---------------------------------------------------------------

    def execute(self, init_value: InitFn, dtype: type = np.float64,
                ) -> Tuple[Dict[str, Dict[Cell, float]], RunStats]:
        """Run with real data movement; returns (global arrays, stats).

        ``init_value(array, cell)`` supplies values for reads that fall
        outside the iteration space (boundary/initial conditions).  The
        returned global arrays are dicts ``cell -> value`` per written
        array, assembled by the owner-computes write-back (Table 2's
        ``loc⁻¹`` composed with ``f_w``).
        """
        prog = self.program
        global_arrays: Dict[str, Dict[Cell, float]] = {
            a: {} for a in prog.arrays}
        stats = self._run(
            build_rank_plans(prog),
            lambda pid: _SparseLDS(prog, pid, init_value, dtype,
                                   global_arrays))
        return global_arrays, stats

    # -- dense data mode ---------------------------------------------------------------

    def execute_dense(
        self, init_value: InitFn,
        dtype: type = np.float64,
        native: Optional["NativeKernelLibrary"] = None,
    ) -> Tuple[Dict[str, DenseField], RunStats]:
        """Vectorized twin of :meth:`execute` over the dense
        :class:`~repro.runtime.dense.RankLDS` back-end: flat numpy LDS
        buffers, tiles executed in batched wavefront levels, whole
        ``CC`` regions packed as single gathers.  Same walk, plan and
        port as :meth:`execute`, so the :class:`RunStats` match
        exactly; results come back as :class:`DenseField` per written
        array (``.to_cells()`` recovers the sparse dicts).

        ``native`` switches the per-tile COMPUTE loop to the compiled
        shared-object kernels (see ``repro.native``), bitwise
        identical.  A library that fell back at build time (or a
        non-float64 ``dtype``) silently keeps the numpy path.
        """
        data = DenseData(self.program, init_value, dtype, native)
        stats = self._run(build_rank_plans(self.program), data.rank)
        return data.fields, stats

    # -- real parallel mode -------------------------------------------------------------

    def execute_parallel(
        self, init_value: Callable[[str, Tuple[int, ...]], float],
        workers: Optional[int] = None,
        dtype: type = np.float64,
        protocol: str = "spec",
        mailbox_depth: int = 8,
        timeout: float = 300.0,
        overlap: bool = False,
        verify: bool = False,
        native: Optional["NativeKernelLibrary"] = None,
    ) -> Tuple[Dict[str, DenseField], RunStats]:
        """Run the schedule with *real* OS-process parallelism: one
        process per processor (capped at ``workers``), halos moving
        through shared-memory mailboxes.  Results are bitwise identical
        to :meth:`execute_dense`; the :class:`RunStats` carry *measured*
        wall-clock per-rank clocks with the simulator's event counts.
        See :func:`repro.runtime.parallel.run_parallel` for
        ``protocol``, ``overlap`` (the overlapped schedule), ``verify``
        (HB pre-flight) and ``native`` (compiled kernels).
        """
        from repro.runtime.parallel import run_parallel
        return run_parallel(
            self.program, self.spec, init_value, workers=workers,
            dtype=dtype, protocol=protocol, mailbox_depth=mailbox_depth,
            timeout=timeout, trace=self.trace, overlap=overlap,
            verify=verify, native=native)
