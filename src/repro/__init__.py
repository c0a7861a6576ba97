"""repro — reproduction of "Compiling Tiled Iteration Spaces for Clusters"
(Goumas, Drosinos, Athanasaki, Koziris; IEEE CLUSTER 2002).

An end-to-end compiler framework for general parallelepiped loop tiling
with automatic message-passing code generation, plus a deterministic
virtual-cluster runtime substituting for the paper's 16-node testbed.

Typical use::

    from repro import apps, compile_tiled, simulate
    app = apps.sor.app(m=100, n=200)
    h = apps.sor.h_nonrectangular(26, 76, 8)
    prog = compile_tiled(app.nest, h, mapping_dim=app.mapping_dim)
    stats = simulate(prog)
    print(stats.makespan)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro import apps, codegen, distribution, experiments, linalg, loops
from repro import polyhedra, runtime, schedule, tiling
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec, FAST_ETHERNET_CLUSTER

__version__ = "1.0.0"


def compile_tiled(nest, h, mapping_dim=None) -> TiledProgram:
    """Compile a loop nest under tiling ``h`` into an SPMD program."""
    return TiledProgram(nest, h, mapping_dim=mapping_dim)


def simulate(program: TiledProgram, spec: ClusterSpec = None, trace=None):
    """Simulate the program's timing on the virtual cluster."""
    return DistributedRun(program, spec or FAST_ETHERNET_CLUSTER,
                          trace=trace).simulate()


def execute(program: TiledProgram, init_value, spec: ClusterSpec = None,
            trace=None):
    """Execute the program with real data movement on the dense engine;
    returns ``(global_arrays, stats)``, the arrays as ``cell -> value``
    dicts per written array (the shape
    :func:`repro.runtime.run_sequential` returns)."""
    fields, stats = DistributedRun(program, spec or FAST_ETHERNET_CLUSTER,
                                   trace=trace).execute_dense(init_value)
    return runtime.dense_to_cells(fields), stats


__all__ = [
    "apps", "codegen", "distribution", "experiments", "linalg", "loops",
    "polyhedra", "runtime", "schedule", "tiling",
    "TiledProgram", "DistributedRun", "ClusterSpec",
    "FAST_ETHERNET_CLUSTER", "compile_tiled", "simulate", "execute",
]
