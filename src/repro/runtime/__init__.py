"""Virtual cluster runtime (substitution for the paper's 16-node testbed).

The paper evaluated on 16 Pentium-III/500 nodes over FastEthernet with
MPI.  This environment has no MPI and no cluster, so we execute the
generated SPMD node programs on a deterministic discrete-event
simulator: per-node clocks, a Hockney ``alpha + s/beta`` network model
calibrated to FastEthernet, and blocking virtual-MPI semantics.  In
*data mode* the dense engine also moves real numpy buffers so the final
global array can be compared against the sequential oracle — an
end-to-end functional check of the whole compilation pipeline.
"""

from repro.runtime.dataspace import (
    DenseField,
    arrays_match,
    assemble_dense,
    dense_to_cells,
    max_abs_difference,
    written_region,
)
from repro.runtime.dense import (
    level_batches,
    read_dependences,
    wavefront_vector,
)
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.interpreter import run_sequential
from repro.runtime.machine import FAST_ETHERNET_CLUSTER, ClusterSpec
from repro.runtime.metrics import (
    RunMetrics,
    format_metrics,
    metrics_from_stats,
)
from repro.runtime.parallel import (
    ParallelTimeoutError,
    ParallelWorkerError,
    run_parallel,
)
from repro.runtime.rankstep import HaloSizeError, ParallelRuntimeError
from repro.runtime.trace import (
    EventTrace,
    GanttRow,
    ascii_gantt,
    to_chrome_trace,
)
from repro.runtime.vmpi import (
    Compute,
    DeadlockError,
    RankApi,
    Recv,
    RunStats,
    Send,
    VirtualMPI,
)

__all__ = [
    "ClusterSpec",
    "FAST_ETHERNET_CLUSTER",
    "VirtualMPI",
    "RankApi",
    "RunStats",
    "Send",
    "Recv",
    "Compute",
    "DeadlockError",
    "DistributedRun",
    "TiledProgram",
    "run_sequential",
    "level_batches",
    "read_dependences",
    "wavefront_vector",
    "EventTrace",
    "GanttRow",
    "ascii_gantt",
    "to_chrome_trace",
    "arrays_match",
    "assemble_dense",
    "DenseField",
    "dense_to_cells",
    "max_abs_difference",
    "written_region",
    "RunMetrics",
    "format_metrics",
    "metrics_from_stats",
    "run_parallel",
    "ParallelRuntimeError",
    "HaloSizeError",
    "ParallelTimeoutError",
    "ParallelWorkerError",
]
