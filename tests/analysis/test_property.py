"""Property test tying the static verdict to dynamic truth.

For random stencils and random legal tilings: the verifier must report
zero *errors*, and the distributed execution it certified must agree
cell-for-cell with the sequential interpreter.  One direction says the
passes have no false positives on correct compilations; the combination
says "analyze clean" and "runs correctly" point at the same programs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import execute
from repro.analysis import analyze_program
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.interpreter import run_sequential
from tests.runtime.tilings import random_cases, stencil_init, stencil_nest

SPEC = ClusterSpec()


@given(random_cases(), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_legal_tilings_analyze_clean_and_run_correctly(case, mapping_dim):
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h, mapping_dim=mapping_dim)
    report = analyze_program(prog)
    # no false positives: a correct compilation carries zero errors
    assert report.ok, report.render_text()
    # and the program the verifier blessed really is correct
    arrays, _ = execute(prog, stencil_init, SPEC)
    ref = run_sequential(nest, stencil_init)
    assert set(arrays["A"]) == set(ref["A"])
    for k, v in ref["A"].items():
        assert abs(arrays["A"][k] - v) < 1e-11, (k, arrays["A"][k], v)


@given(random_cases())
@settings(max_examples=25, deadline=None)
def test_verify_flag_accepts_every_legal_tiling(case):
    """TiledProgram(..., verify=True) must never reject a correct
    compilation — the guard is allowed to block only real defects."""
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h, verify=True)
    assert prog.num_processors >= 1


@given(random_cases())
@settings(max_examples=25, deadline=None)
def test_clean_sync_deadlock_report_matches_engine(case):
    """When the rendezvous certificate names no cycle, the rendezvous
    engine must complete; when it names one, the default eager engine
    must still complete (rendezvous-only cycles are warnings by
    construction)."""
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h)
    report = analyze_program(prog)
    assert report.ok
    if not prog.hb_certificate("rendezvous").cycle:
        stats = DistributedRun(
            prog, ClusterSpec(rendezvous_threshold=0)).simulate()
        assert stats.makespan >= 0
    stats = DistributedRun(prog, SPEC).simulate()
    assert stats.makespan >= 0
