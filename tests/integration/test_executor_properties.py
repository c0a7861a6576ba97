"""Property-based end-to-end test: the whole compiler is correct on
random programs.

Generates random 2D stencils (random dependence sets, random domains,
random kernel coefficients) and random legal tilings (random integer
``P``), then requires the distributed message-passing execution to
equal the sequential interpreter cell-for-cell.  This is the strongest
single guarantee in the suite: a bug anywhere — HNF strides, LDS
addressing, CC sets, minsucc matching, pack/unpack order, the DES —
shows up as a numeric mismatch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import execute
from repro.runtime import ClusterSpec, TiledProgram
from repro.runtime.interpreter import run_sequential
from tests.runtime.tilings import random_cases, stencil_init, stencil_nest

SPEC = ClusterSpec()


@given(random_cases())
@settings(max_examples=60, deadline=None)
def test_distributed_equals_sequential(case):
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h)
    arrays, _ = execute(prog, stencil_init, SPEC)
    ref = run_sequential(nest, stencil_init)
    assert set(arrays["A"]) == set(ref["A"])
    for k, v in ref["A"].items():
        assert arrays["A"][k] == v, (k, arrays["A"][k], v)


@given(random_cases(), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_correct_under_any_mapping_dim(case, mapping_dim):
    """The owner-computes machinery cannot depend on which dimension
    chains are mapped along."""
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h, mapping_dim=mapping_dim)
    arrays, _ = execute(prog, stencil_init, SPEC)
    ref = run_sequential(nest, stencil_init)
    for k, v in ref["A"].items():
        assert arrays["A"][k] == v


@given(random_cases())
@settings(max_examples=30, deadline=None)
def test_correct_under_rendezvous_protocol(case):
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h)
    spec = ClusterSpec(rendezvous_threshold=0)
    arrays, _ = execute(prog, stencil_init, spec)
    ref = run_sequential(nest, stencil_init)
    for k, v in ref["A"].items():
        assert arrays["A"][k] == v
