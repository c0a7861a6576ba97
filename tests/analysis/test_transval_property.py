"""Property test: translation validation has no false positives.

For random stencils and random legal tilings (the same generator as
:mod:`tests.analysis.test_property`): every artifact freshly emitted by
the generators must translation-validate with *zero* findings.  The
check is sound on this domain — ``check_tiling`` passing first means
every transformed dependence component lies in ``{0, 1}``, so the
interval abstraction used by TV02 is exact, and a clean verdict is a
proof, not a heuristic.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.transval import transval_report
from repro.linalg import RatMat
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.tiling import is_legal_tiling


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
    return deps, h, lo, hi


def _build_nest(deps, lo, hi):
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0)),
        [ArrayRef.of("A", tuple(-x for x in d)) for d in deps],
        0.5 + 0.25 * sum(kexpr.reads(len(deps))),
    )
    return LoopNest.rectangular("prop", list(lo), list(hi), [stmt],
                                list(deps))


@given(random_cases(), st.sampled_from([0, 1]))
@settings(max_examples=25, deadline=None)
def test_legal_tilings_translation_validate_clean(case, mapping_dim):
    deps, h, lo, hi = case
    nest = _build_nest(deps, lo, hi)
    report = transval_report(nest, h, mapping_dim=mapping_dim)
    assert report.ok, report.render_text()
    assert not report.diagnostics, report.render_text()
    # all four TV passes really ran (legality precheck did not bail)
    assert "transval-loops" in report.passes_run
    assert "transval-subscripts" in report.passes_run
    assert "transval-constants" in report.passes_run
    assert "transval-dependences" in report.passes_run
    assert "transval-kernels" in report.passes_run
