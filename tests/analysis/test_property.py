"""Property test tying the static verdict to dynamic truth.

For random stencils and random legal tilings: the verifier must report
zero *errors*, and the distributed execution it certified must agree
cell-for-cell with the sequential interpreter.  One direction says the
passes have no false positives on correct compilations; the combination
says "analyze clean" and "runs correctly" point at the same programs.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_program
from repro.linalg import RatMat
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.interpreter import run_sequential
from repro.tiling import is_legal_tiling

SPEC = ClusterSpec()


@st.composite
def random_cases(draw):
    n_deps = draw(st.integers(1, 3))
    deps = []
    for _ in range(n_deps):
        d = (draw(st.integers(0, 2)), draw(st.integers(-2, 2)))
        if d[0] == 0:
            d = (0, abs(d[1]))
        if d == (0, 0):
            d = (1, 0)
        deps.append(d)
    deps = sorted(set(deps))
    a = draw(st.integers(2, 4))
    dd = draw(st.integers(2, 4))
    b = draw(st.integers(-2, 2))
    c = draw(st.integers(-2, 2))
    p = RatMat([[a, b], [c, dd]])
    assume(p.det() != 0)
    h = p.inverse()
    assume(is_legal_tiling(h, deps))
    from repro.distribution.communication import CommunicationSpec
    from repro.polyhedra import box as _box
    from repro.tiling import TilingTransformation
    try:
        tt = TilingTransformation(h, _box((0, 0), (8, 8)))
        CommunicationSpec(tt, deps, 0)
        CommunicationSpec(tt, deps, 1)
    except ValueError:
        assume(False)
    lo = (draw(st.integers(-2, 0)), draw(st.integers(-2, 0)))
    hi = (lo[0] + draw(st.integers(3, 7)), lo[1] + draw(st.integers(3, 7)))
    coeffs = [draw(st.integers(1, 9)) / 16.0 for _ in range(len(deps))]
    return deps, h, lo, hi, tuple(coeffs)


def _build_nest(deps, lo, hi, coeffs):
    reads = kexpr.reads(len(deps))
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0)),
        [ArrayRef.of("A", tuple(-x for x in d)) for d in deps],
        0.5 + sum(c * v for c, v in zip(coeffs, reads)),
    )
    return LoopNest.rectangular("prop", list(lo), list(hi), [stmt],
                                list(deps))


def _init(_arr, cell):
    return 0.03 * cell[0] - 0.07 * cell[1] + 0.5


@given(random_cases(), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_legal_tilings_analyze_clean_and_run_correctly(case, mapping_dim):
    deps, h, lo, hi, coeffs = case
    nest = _build_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h, mapping_dim=mapping_dim)
    report = analyze_program(prog)
    # no false positives: a correct compilation carries zero errors
    assert report.ok, report.render_text()
    # and the program the verifier blessed really is correct
    arrays, _ = DistributedRun(prog, SPEC).execute(_init)
    ref = run_sequential(nest, _init)
    assert set(arrays["A"]) == set(ref["A"])
    for k, v in ref["A"].items():
        assert abs(arrays["A"][k] - v) < 1e-11, (k, arrays["A"][k], v)


@given(random_cases())
@settings(max_examples=25, deadline=None)
def test_verify_flag_accepts_every_legal_tiling(case):
    """TiledProgram(..., verify=True) must never reject a correct
    compilation — the guard is allowed to block only real defects."""
    deps, h, lo, hi, coeffs = case
    nest = _build_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h, verify=True)
    assert prog.num_processors >= 1


@given(random_cases())
@settings(max_examples=25, deadline=None)
def test_clean_sync_deadlock_report_matches_engine(case):
    """When the report has no DL03 at all, the rendezvous engine must
    complete; when it has one, the default eager engine must still
    complete (DL03-only reports are warnings by construction)."""
    deps, h, lo, hi, coeffs = case
    nest = _build_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h)
    report = analyze_program(prog)
    assert report.ok
    if not report.by_code("DL03"):
        stats = DistributedRun(
            prog, ClusterSpec(rendezvous_threshold=0)).simulate()
        assert stats.makespan >= 0
    stats = DistributedRun(prog, SPEC).simulate()
    assert stats.makespan >= 0
