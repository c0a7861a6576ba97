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
* ``execute_dense(init_value)`` — the in-process data engine: real
  payloads through the same walk over the dense
  :class:`~repro.runtime.dense.RankLDS` (numpy wavefront batches or
  native kernels), a final owner-computes write-back to the global data
  space.  The tests compare it bit-for-bit against the sequential
  oracle :func:`repro.runtime.interpreter.run_sequential`.
* ``execute_parallel(init_value)`` moves that LDS onto real OS
  processes (:mod:`repro.runtime.parallel`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Optional,
    Tuple,
)

from repro.distribution.communication import CommunicationSpec
from repro.distribution.computation import ComputationDistribution
from repro.distribution.data import DistributedAddressing
from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.runtime import dense, rankstep
from repro.runtime.dataspace import DenseField
from repro.runtime.dense import DenseData
from repro.runtime.machine import ClusterSpec
from repro.runtime.rankstep import VmpiPort, build_rank_plans, rank_walk
from repro.runtime.trace import EventTrace
from repro.runtime.vmpi import RankApi, RunStats, VirtualMPI
from repro.stages import (
    Stage,
    StageHolder,
    StageMemo,
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
    from repro.runtime.rankstep import RankPlan

Pid = Tuple[int, ...]
Tile = Tuple[int, ...]
Cell = Tuple[int, ...]
InitFn = Callable[[str, Cell], float]
#: A rank's node program: generator of Send/Recv/Compute requests.
NodeFn = Callable[[RankApi], Generator]


class TiledProgram(StageHolder):
    """Everything the compiler derives for one nest under one tiling.

    Its *roots* are the paper's four compiler outputs, built here in
    closed form: the tiling, the computation distribution ``dist``, the
    communication spec ``comm`` and the LDS layout ``addressing`` (with
    ``nest``, ``n``, ``arrays``, ``pids`` and ``rank_of``).  Every other
    product is a row of the stage table, held in ``self.stages`` and
    derived beside its row from the roots and other stages alone: the
    §3.2 schedule in :mod:`repro.runtime.rankstep`, the level tables
    and overlap plans in :mod:`repro.runtime.dense`, the point counts
    and masks on the tiling."""

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
        # Rank numbering for the virtual communicator.
        self.pids: Tuple[Pid, ...] = self.dist.processors
        self.rank_of: Dict[Pid, int] = {p: i for i, p in enumerate(self.pids)}
        self.stages = StageMemo()

    @property
    def num_processors(self) -> int:
        return len(self.pids)

    def total_points(self) -> int:
        """Iteration count of the whole nest (for speedup baselines)."""
        points = self.tiling.tile_point_count
        return sum(points(t) for t in self.dist.tiles)

    def hb_certificate(self, protocol: str = "eager",
                       overlap: bool = False, mailbox_depth: int = 8,
                       spec: Optional[ClusterSpec] = None,
                       ) -> HBCertificate:
        """Happens-before certificate of this program's parallel
        execution (see :mod:`repro.analysis.hb`): vector-clock race
        freedom (HB01) and wait-graph acyclicity (HB02) under one
        ``(protocol, overlap, mailbox_depth)`` configuration.

        Kept like the overlap plans — the certificate is a pure
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
                         spec: Optional[ClusterSpec] = None,
                         bound_factor: float = 2.0,
                         ) -> "CostCertificate":
        """Static cost certificate of this program (see
        :mod:`repro.analysis.cost`): exact per-edge communication
        volumes (COST01), per-rank compute volumes (COST02), the
        simulated makespan and rank clocks (COST03) and the Dinh &
        Demmel lower-bound verdict (COST04).

        Unlike :meth:`hb_certificate`, the result depends on *every*
        timing parameter of the cluster model, so the full (frozen,
        hashable) spec is part of the key.
        """
        key = (protocol, float(bound_factor), spec)
        certs: Dict[object, CostCertificate] = \
            self.stage("cost_certificates")
        cert = certs.get(key)
        if cert is None:
            from repro.analysis.cost import certify_cost
            cert = certs[key] = certify_cost(
                self, spec=spec, protocol=protocol,
                bound_factor=bound_factor)
        return cert


# -- the program rows of the stage table ----------------------------------------

# Each row is defined beside its derivation (the schedule in
# ``rankstep``, the level tables in ``dense``); this call fixes their
# table order.  Bump a row's ``version`` when what it stores —
# HBCertificate, CostCertificate, TileOverlapPlan or anything they
# contain — changes shape: the stored copies are dropped and re-derived
# lazily, the geometry stays valid.
register(
    rankstep.RECV_ORDER, rankstep.PACK_REGIONS,
    dense.DENSE_S, dense.DENSE_BATCHES,
    rankstep.REGION_COUNTS, rankstep.RANK_PLANS, dense.OVERLAP_PLANS,
    Stage("hb_certificates", "program", on_demand, persisted=True,
          encode=pickled, decode=unpickled, version=3),
    Stage("cost_certificates", "program", on_demand, persisted=True,
          encode=pickled, decode=unpickled, version=2),
    dense.FULL_SEGMENTS, dense.REGION_INDEX, dense.HALO_TABLES,
)


class DistributedRun:
    """Execute a :class:`TiledProgram` on the virtual cluster (one
    walk, one port; timing only or over the dense data back-end — see
    the module docstring; their :class:`RunStats` are equal by
    construction)."""

    def __init__(self, program: TiledProgram, spec: ClusterSpec,
                 trace: Optional[EventTrace] = None):
        self.program = program
        self.spec = spec
        self.trace = trace

    def _run(self, plans: Dict[int, RankPlan],
             backend: Optional[Callable[[Pid], Any]] = None,
             protocol: str = "spec") -> RunStats:
        """Walk ``plans`` on the virtual cluster under ``protocol`` (see
        :meth:`ClusterSpec.uses_rendezvous`).  ``backend(pid)`` makes a
        rank's data back-end (``None``: timing only); its write-back
        runs after the walk, outside the timed region."""
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
        return VirtualMPI(spec, programs, trace=self.trace,
                          protocol=protocol).run()

    # -- timing-only mode -----------------------------------------------------------

    def simulate(self, protocol: str = "spec") -> RunStats:
        """Run the communication/computation schedule with exact sizes
        but no data; returns the simulated clocks.  ``protocol`` picks
        the messages that wait for their receive (``"eager"``,
        ``"rendezvous"`` or the spec's threshold); a schedule that
        cannot complete under it raises
        :class:`~repro.runtime.vmpi.DeadlockError`."""
        return self._run(build_rank_plans(self.program), protocol=protocol)

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

    # -- data mode ----------------------------------------------------------------------

    def execute_dense(
        self, init_value: InitFn,
        native: Optional["NativeKernelLibrary"] = None,
    ) -> Tuple[Dict[str, DenseField], RunStats]:
        """Run with real data movement over the dense
        :class:`~repro.runtime.dense.RankLDS` back-end: flat numpy LDS
        buffers, tiles executed in batched wavefront levels, whole
        ``CC`` regions packed as single gathers.  Same walk, plan and
        port as :meth:`simulate`, so the :class:`RunStats` match
        exactly.

        ``init_value(array, cell)`` supplies values for reads that fall
        outside the iteration space (boundary/initial conditions).
        Results come back as :class:`DenseField` per written array,
        assembled by the owner-computes write-back (Table 2's ``loc⁻¹``
        composed with ``f_w``); ``.to_cells()`` recovers the
        ``cell -> value`` dicts the sequential oracle returns.

        ``native`` switches the per-tile COMPUTE loop to the compiled
        shared-object kernels (see ``repro.native``), bitwise
        identical.  A library that fell back at build time silently
        keeps the numpy path.  Both compute in float64.
        """
        plans = build_rank_plans(self.program)
        self.program.stage("halo_tables")
        data = DenseData(self.program, init_value, native)
        stats = self._run(plans, data.rank)
        return data.fields, stats

    # -- real parallel mode -------------------------------------------------------------

    def execute_parallel(
        self, init_value: Callable[[str, Tuple[int, ...]], float],
        workers: Optional[int] = None,
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
            protocol=protocol, mailbox_depth=mailbox_depth,
            timeout=timeout, trace=self.trace, overlap=overlap,
            verify=verify, native=native)
