"""All three execution paths agree on random programs.

1. sequential oracle (reference semantics)
2. distributed message-passing execution on the dense engine (virtual
   cluster)
3. the emitted sequential tiled C text, compiled and run — the §2.3
   reordering (only with a working C compiler; the other two modes run
   regardless)

Property-tested over random stencils and random legal tilings — the
union of everything the compiler can get wrong.
"""

from hypothesis import given, settings

from repro.codegen import (
    generate_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.dataspace import arrays_match, dense_to_cells
from repro.runtime.interpreter import run_sequential
from tests.conftest import requires_cc
from tests.runtime.tilings import random_cases, stencil_init, stencil_nest

SPEC = ClusterSpec()


@given(random_cases())
@settings(max_examples=40, deadline=None)
def test_interpreters_and_cluster_agree(case):
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)

    seq = run_sequential(nest, stencil_init)
    prog = TiledProgram(nest, h)
    dist, _ = DistributedRun(prog, SPEC).execute_dense(stencil_init)

    assert arrays_match(seq, dense_to_cells(dist), tol=0.0)


@requires_cc
@given(random_cases())
@settings(max_examples=40, deadline=None)
def test_compiled_sequential_text_agrees(case):
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)

    seq = run_sequential(nest, stencil_init)
    gen = run_sequential_tiled_code(
        nest, generate_sequential_tiled_code(nest, h), stencil_init)

    assert arrays_match(seq, gen, tol=0.0)
