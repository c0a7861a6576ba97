"""Code generation: the text the paper's tool would emit.

* :mod:`repro.codegen.exprs` — affine expression / floord-ceild helpers.
* :mod:`repro.codegen.sequential` — the 2n-deep sequential tiled loop of
  §2.3 (tile loops from Fourier-Motzkin bounds, intra-tile loops from
  the TTIS strides and offsets) as one C translation unit, and
  :func:`~repro.codegen.sequential.run_sequential_tiled_code`, which
  compiles and runs it.
* :mod:`repro.codegen.parallel` — the SPMD C+MPI program of §3
  (Foracross processor loops, RECEIVE/SEND with pack/unpack, LDS
  indexing through ``map``).

Each ``generate_*(nest, h, …)`` entry point compiles once and calls its
``render_*`` form, which takes the compiled program (the sequential
pair: its ``.nest`` and ``.tiling``) and constructs nothing.

The *executable* twin of the parallel emitter is
:mod:`repro.runtime.executor`, which runs the same schedule on the
virtual cluster; tests keep the two consistent by checking the emitted
text against the executor's compile-time constants.  Beyond those spot
checks, :mod:`repro.analysis.transval` parses the emitted text back
into a loop model and statically re-proves it against the pipeline.
"""

from repro.codegen.parallel import generate_mpi_code, render_mpi_code
from repro.codegen.pygen import (
    generate_python_node_programs,
    load_generated_module,
    render_python_node_programs,
)
from repro.codegen.sequential import (
    generate_sequential_tiled_code,
    render_sequential_tiled_code,
    run_sequential_tiled_code,
)

__all__ = [
    "generate_sequential_tiled_code",
    "generate_mpi_code",
    "generate_python_node_programs",
    "load_generated_module",
    "run_sequential_tiled_code",
    "render_sequential_tiled_code",
    "render_mpi_code",
    "render_python_node_programs",
]
