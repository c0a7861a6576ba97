"""Property test: translation validation has no false positives.

For random stencils and random legal tilings (the shared generator of
:mod:`tests.runtime.tilings`): every artifact freshly emitted by
the generators must translation-validate with *zero* findings.  The
check is sound on this domain — ``check_tiling`` passing first means
every transformed dependence component lies in ``{0, 1}``, so the
interval abstraction used by TV02 is exact, and a clean verdict is a
proof, not a heuristic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.transval import transval_report
from tests.runtime.tilings import random_cases, stencil_nest


@given(random_cases(), st.sampled_from([0, 1]))
@settings(max_examples=25, deadline=None)
def test_legal_tilings_translation_validate_clean(case, mapping_dim):
    deps, h, lo, hi, coeffs = case
    nest = stencil_nest(deps, lo, hi, coeffs)
    report = transval_report(nest, h, mapping_dim=mapping_dim)
    assert report.ok, report.render_text()
    assert not report.diagnostics, report.render_text()
    # all four TV passes really ran (legality precheck did not bail)
    assert "transval-loops" in report.passes_run
    assert "transval-subscripts" in report.passes_run
    assert "transval-constants" in report.passes_run
    assert "transval-dependences" in report.passes_run
    assert "transval-kernels" in report.passes_run
