"""All four execution paths agree on random programs.

1. sequential interpreter (reference semantics)
2. tiled-order interpreter (§2.3 reordering)
3. generated sequential tiled code (emitted Python, exec'd)
4. distributed message-passing execution (virtual cluster)

Property-tested over random stencils and random legal tilings — the
union of everything the compiler can get wrong.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen import run_generated_sequential
from repro.linalg import RatMat
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.dataspace import arrays_match
from repro.runtime.interpreter import run_sequential, run_tiled_sequential

SPEC = ClusterSpec()


@st.composite
def cases(draw):
    deps = []
    for _ in range(draw(st.integers(1, 3))):
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
    from repro.polyhedra import box
    from repro.tiling import is_legal_tiling
    assume(is_legal_tiling(h, deps))
    lo = (draw(st.integers(-2, 0)), draw(st.integers(-2, 0)))
    hi = (lo[0] + draw(st.integers(3, 6)), lo[1] + draw(st.integers(3, 6)))
    # reject framework-precondition violations (tested elsewhere)
    from repro.distribution.communication import CommunicationSpec
    from repro.tiling import TilingTransformation
    try:
        tt = TilingTransformation(h, box(lo, hi))
        CommunicationSpec(tt, deps, 0)
    except ValueError:
        assume(False)
    coeffs = tuple(draw(st.integers(1, 7)) / 16.0 for _ in deps)
    return deps, h, lo, hi, coeffs


def _nest(deps, lo, hi, coeffs):
    reads = kexpr.reads(len(deps))
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0)),
        [ArrayRef.of("A", tuple(-x for x in d)) for d in deps],
        0.25 + sum(c * v for c, v in zip(coeffs, reads)),
    )
    return LoopNest.rectangular("four", list(lo), list(hi), [stmt],
                                list(deps))


def _init(_a, cell):
    return 0.05 * cell[0] + 0.11 * cell[1] - 0.3


@given(cases())
@settings(max_examples=40, deadline=None)
def test_four_modes_agree(case):
    deps, h, lo, hi, coeffs = case
    nest = _nest(deps, lo, hi, coeffs)

    seq = run_sequential(nest, _init)
    tiled = run_tiled_sequential(nest, h, _init)
    gen = run_generated_sequential(nest, h, _init)
    prog = TiledProgram(nest, h)
    dist, _ = DistributedRun(prog, SPEC).execute(_init)

    assert arrays_match(seq, tiled, tol=0.0)
    assert arrays_match(seq, gen, tol=0.0)
    assert arrays_match(seq, dist, tol=1e-11)
