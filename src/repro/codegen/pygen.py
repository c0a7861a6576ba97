"""Executable Python code generation.

Where :mod:`repro.codegen.parallel` emits C+MPI *text*, this module
emits a **standalone, runnable Python module** for the same SPMD
program: one ``node_program(rank)`` generator factory per rank plus the
compile-time constant tables, importing nothing from the compiler
pipeline except the virtual-MPI request types.  It is the closest
analogue to "the tool generated a program and we ran it on the
cluster": the emitted source is self-contained evidence of what the
compiler decided (chains, plans, sizes) and executes on the same
virtual MPI engine.

The emitted program covers the *timing* schedule (receive/compute/send
with exact sizes): its ``SCHEDULES`` table is a recording of the one
node program (:func:`repro.runtime.rankstep.rank_walk` over the
program's frozen per-rank plans) as the virtual-MPI port issues it,
request by request.  Data movement stays in
:class:`repro.runtime.executor.DistributedRun`.
"""

from __future__ import annotations

import types
from contextlib import suppress
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.runtime.dense import boundary_sizes, tile_levels
from repro.runtime.machine import FAST_ETHERNET_CLUSTER, ClusterSpec
from repro.runtime.rankstep import (
    RankPlan,
    Steps,
    VmpiPort,
    build_rank_plans,
    rank_walk,
)
from repro.runtime.vmpi import Compute, Recv, Send

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram


HEADER = '''\
"""Auto-generated SPMD node program (timing schedule).

Generated by repro.codegen.pygen — do not edit.  Run on the virtual
cluster with::

    from repro.runtime.vmpi import VirtualMPI
    from repro.runtime.machine import ClusterSpec
    engine = VirtualMPI(ClusterSpec(), {r: node_program(r) for r in RANKS})
    stats = engine.run()
"""

from repro.runtime.vmpi import Compute, Recv, Send
'''


class _TablePort:
    """The vMPI port with the simulator taken away — the table port of
    :func:`~repro.runtime.rankstep.rank_walk`: every request
    :class:`~repro.runtime.rankstep.VmpiPort` yields becomes one
    ``SCHEDULES`` row, in order and at the cost it computed (recorded,
    never re-costed)."""

    def __init__(self, spec: ClusterSpec, rank: int, batching: Any):
        self.vmpi = VmpiPort(spec, rank)
        self.batching = batching
        self.rows: List[Tuple[Any, ...]] = []

    def record(self, steps: Steps, got: int = 0) -> Tuple[()]:
        """Answer every request the way the simulator would (a receive
        gets ``got`` elements back) and write it down."""
        reply: Any = None
        with suppress(StopIteration):
            while True:
                req = steps.send(reply)
                reply = (None, got)
                self.rows.append(_ROW[type(req)](req, got))
        return ()

    def recv(self, tile: Any, r: Any, unpack: Any) -> Tuple[()]:
        return self.record(self.vmpi.recv(tile, r, None), r.nelems)

    def compute(self, tile: Any, points: int, run: Any) -> Tuple[()]:
        self.record(self.vmpi.compute(tile, points, None))
        self.rows[-1] += self.batching(tile)
        return ()

    def send(self, tile: Any, s: Any, pack: Any) -> Tuple[()]:
        return self.record(self.vmpi.send(tile, s, None))


#: A simulator request as a ``SCHEDULES`` row.
_ROW: Dict[type, Callable[[Any, int], Tuple[Any, ...]]] = {
    Compute: lambda q, got: ("compute", q.seconds),
    Recv: lambda q, got: ("recv", q.source, q.tag, got),
    Send: lambda q, got: ("send", q.dest, q.tag, q.nelems),
}


def generate_python_node_programs(nest: LoopNest, h: RatMat,
                                  mapping_dim: Optional[int] = None,
                                  spec: Optional[ClusterSpec] = None,
                                  engine: str = "sparse") -> str:
    """Emit a self-contained Python module for the SPMD schedule:
    compile once, then :func:`render_python_node_programs`."""
    from repro.runtime.executor import TiledProgram

    return render_python_node_programs(
        TiledProgram(nest, h, mapping_dim=mapping_dim), spec, engine)


def render_python_node_programs(prog: TiledProgram,
                                spec: Optional[ClusterSpec] = None,
                                engine: str = "sparse") -> str:
    """The schedule module of an already-compiled program; constructs
    nothing.

    ``engine="sparse"`` (the default) emits the timing schedule as
    before.  ``engine="dense"`` additionally burns in the dense
    engine's compile-time wavefront structure: a ``WAVEFRONT`` constant
    (the TTIS schedule vector) and, on every tile-compute event, the
    tuple of wavefront slice sizes the vectorized executor batches
    that tile into (their sum is the tile's point count).
    ``engine="dense-overlap"`` further appends the per-level
    *boundary* slice sizes (points feeding outgoing ``CC`` regions,
    :func:`~repro.runtime.dense.boundary_sizes`) as a fourth compute
    field.  The
    replayed timing is identical in all three modes — the extra fields
    document the batching the way the plan tables document the
    messages, so the translation validator accepts every variant.
    """
    if engine not in ("sparse", "dense", "dense-overlap"):
        raise ValueError(f"unknown engine {engine!r}: "
                         "expected 'sparse', 'dense' or 'dense-overlap'")
    spec = spec or FAST_ETHERNET_CLUSTER
    dense = engine in ("dense", "dense-overlap")
    overlap = engine == "dense-overlap"

    def batching(plan: RankPlan, tile: Tuple[int, ...]) -> Tuple[Any, ...]:
        """The dense engines' extra fields of a tile-compute row."""
        extra: Tuple[Any, ...] = ()
        if dense:
            extra += (tuple(len(b) for b in tile_levels(prog, tile)),)
        if overlap:
            extra += (boundary_sizes(prog, plan,
                                     prog.dist.chain_index(tile)),)
        return extra

    # Each rank's SCHEDULES table is its walk, recorded.  The *sequence*
    # is compile-time static; burning it into the source makes the
    # generated program trivially inspectable and independent of the
    # compiler.
    schedules: Dict[int, List[Tuple[Any, ...]]] = {}
    for rank, plan in build_rank_plans(prog).items():
        port = _TablePort(spec, rank, partial(batching, plan))
        for _ in rank_walk(prog, plan, port):
            raise AssertionError("the table port never blocks")
        schedules[rank] = port.rows

    lines = [HEADER]
    lines.append(f"# nest: {prog.nest.name!r}; tile volume "
                 f"{prog.tiling.tile_volume()}; "
                 f"{prog.num_processors} ranks")
    lines.append(f"RANKS = tuple(range({prog.num_processors}))")
    lines.append(f"PID_OF_RANK = {dict((r, p) for p, r in prog.rank_of.items())!r}")
    if dense:
        lines.append(f"ENGINE = {engine!r}")
        lines.append(f"WAVEFRONT = {prog.stage('dense_s')!r}")
    lines.append("")
    lines.append("SCHEDULES = {")
    for rank in sorted(schedules):
        lines.append(f"    {rank}: [")
        for ev in schedules[rank]:
            lines.append(f"        {ev!r},")
        lines.append("    ],")
    lines.append("}")
    lines.append("")
    lines.append("""\
def node_program(rank):
    \"\"\"Generator factory replaying rank's compile-time schedule.\"\"\"
    schedule = SCHEDULES[rank]

    def node(api):
        for ev in schedule:
            if ev[0] == "compute":
                yield Compute(ev[1])
            elif ev[0] == "send":
                yield Send(dest=ev[1], tag=ev[2], nelems=ev[3])
            elif ev[0] == "recv":
                payload, got = yield Recv(source=ev[1], tag=ev[2])
                assert got == ev[3], (rank, ev, got)
            else:  # pragma: no cover - generator is machine-written
                raise AssertionError(ev)
    return node
""")
    return "\n".join(lines)


def load_generated_module(source: str,
                          name: str = "repro_generated_spmd",
                          ) -> types.ModuleType:
    """Exec generated source into a fresh module (for tests/demos)."""
    mod = types.ModuleType(name)
    exec(compile(source, f"<{name}>", "exec"), mod.__dict__)
    return mod
