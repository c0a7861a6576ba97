"""Translation validation: clean emissions pass, mutations are caught.

One test class per TV pass.  Each mutation class corrupts the emitted
text (or the declared dependence matrix) in a way the matching pass —
and only a matching code — must flag:

* ``TV01`` — a wrong loop stride in the main TTIS nest; in the
  sequential text, a wrong inner stride, a tightened guard bound or a
  wrong tile origin (the first two also change the compiled run);
* ``TV02`` — a halo-slot shift / read subscript that escapes the LDS;
* ``TV03`` — a corrupted burned-in constant (``CC`` and a pack bound);
* ``TV04`` — a declared dependence the statement bodies do not carry.
"""

import dataclasses

import pytest

from repro.analysis.transval import (
    PASS_CONSTANTS,
    PASS_DEPENDENCES,
    PASS_LOOPS,
    PASS_SUBSCRIPTS,
    check_declared_dependences,
    check_mpi_text,
    check_sequential_text,
    transval_report,
    validate_mpi_text,
)
from repro.analysis.verifier import VerificationError
from repro.apps import adi, heat, jacobi, sor
from repro.codegen.parallel import generate_mpi_code
from repro.codegen.sequential import (
    render_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.runtime.dataspace import arrays_match
from repro.runtime.executor import TiledProgram
from repro.runtime.interpreter import run_sequential
from tests.conftest import requires_cc

#: One representative legal configuration per paper app.
CONFIGS = [
    ("sor", sor.app(8, 12), sor.h_nonrectangular(2, 3, 4)),
    ("jacobi", jacobi.app(4, 6, 6), jacobi.h_nonrectangular(2, 2, 3)),
    ("adi", adi.app(4, 5), adi.h_rectangular(2, 3, 3)),
    ("heat", heat.app(6, 8), heat.h_rectangular(2, 2)),
]


@pytest.fixture(scope="module")
def sor_case():
    app = sor.app(8, 12)
    h = sor.h_nonrectangular(2, 3, 4)
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    text = generate_mpi_code(app.nest, h, mapping_dim=app.mapping_dim)
    return app, h, prog, text


def _mutate(text: str, old: str, new: str) -> str:
    assert old in text, f"mutation target {old!r} not in emitted text"
    return text.replace(old, new)


class TestCleanEmissions:
    @pytest.mark.parametrize("name,app,h",
                             CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_all_apps_validate_clean(self, name, app, h):
        report = transval_report(app.nest, h, mapping_dim=app.mapping_dim,
                                 subject=name)
        assert report.ok, report.render_text()
        assert not report.diagnostics, report.render_text()
        for p in (PASS_LOOPS, PASS_SUBSCRIPTS, PASS_CONSTANTS,
                  PASS_DEPENDENCES):
            assert p in report.passes_run

    def test_validate_guard_accepts_emitted_text(self, sor_case):
        _, _, prog, plain = sor_case
        report = validate_mpi_text(prog, plain)
        assert report.ok and not report.diagnostics


class TestTV01WrongStride:
    def test_wrong_inner_stride_flagged(self, sor_case):
        _, _, prog, text = sor_case
        bad = _mutate(text, "jp1 < 3; jp1 += 1", "jp1 < 3; jp1 += 3")
        diags = check_mpi_text(prog, bad)
        assert diags, "mutated stride not flagged"
        assert {d.code for d in diags} == {"TV01"}

    def test_unparsable_text_is_tv01_not_crash(self, sor_case):
        _, _, prog, _ = sor_case
        diags = check_mpi_text(prog, "int main(void) { return 0; }\n")
        assert [d.code for d in diags] == ["TV01"]


class TestTV02SubscriptEscapes:
    def test_wrong_halo_shift_flagged(self, sor_case):
        _, _, prog, text = sor_case
        bad = _mutate(text, "- (0*2, 1*3, 0*4)", "- (0*2, 2*3, 0*4)")
        diags = check_mpi_text(prog, bad)
        assert diags
        assert all(d.code == "TV02" for d in diags)

    def test_off_by_far_read_subscript_flagged(self, sor_case):
        _, _, prog, text = sor_case
        bad = _mutate(text, "MAP(jp0, jp1 - 1, jp2, t)",
                      "MAP(jp0, jp1 - 9, jp2, t)")
        diags = check_mpi_text(prog, bad)
        assert diags
        assert "TV02" in {d.code for d in diags}


class TestTV03CorruptedConstants:
    def test_corrupted_cc_header_and_pack_bound(self, sor_case):
        _, _, prog, text = sor_case
        bad = _mutate(text, "CC vector     : (1, 2, 3)",
                      "CC vector     : (1, 1, 3)")
        bad = _mutate(bad, "max(l1p, 2)", "max(l1p, 1)")
        diags = check_mpi_text(prog, bad)
        assert diags
        assert {d.code for d in diags} == {"TV03"}

    def test_validate_guard_raises(self, sor_case):
        app, h, prog, text = sor_case
        bad = _mutate(text, "CC vector     : (1, 2, 3)",
                      "CC vector     : (9, 9, 9)")
        with pytest.raises(VerificationError) as exc:
            validate_mpi_text(prog, bad)
        assert exc.value.report.by_code("TV03")


#: Mutations of the sequential text of sor 8x12 nonrect 2x3x4.  The
#: first two keep every index in bounds, so they also run compiled.
SEQ_MUTATIONS = {
    "inner-stride": ("jp1 < 3; jp1 += 1", "jp1 < 3; jp1 += 2"),
    "guard-bound": ("(1*j0) <= 8", "(1*j0) <= 7"),
    "tile-origin": ("long o1 = 3*jS1;", "long o1 = 3*jS1 + 1;"),
}


class TestSequentialTextMutations:
    @pytest.fixture(scope="class")
    def seq_case(self, sor_case):
        app, _, prog, _ = sor_case
        return app, prog, render_sequential_tiled_code(prog.nest,
                                                       prog.tiling)

    @pytest.mark.parametrize("name", list(SEQ_MUTATIONS))
    def test_flagged_tv01(self, seq_case, name):
        _, prog, text = seq_case
        assert check_sequential_text(prog, text) == []
        bad = _mutate(text, *SEQ_MUTATIONS[name])
        diags = check_sequential_text(prog, bad)
        assert diags, f"{name} not flagged"
        assert {d.code for d in diags} == {"TV01"}

    @requires_cc
    @pytest.mark.parametrize("name", ["inner-stride", "guard-bound"])
    def test_compiled_run_diverges(self, seq_case, name):
        app, _, text = seq_case
        bad = _mutate(text, *SEQ_MUTATIONS[name])
        got = run_sequential_tiled_code(app.nest, bad, app.init_value)
        assert not arrays_match(
            got, run_sequential(app.nest, app.init_value), tol=0.0)


class TestTV04DeclaredDependences:
    def test_wrong_declared_vector_flagged(self):
        app = sor.app(8, 12)
        deps = app.nest.dependences
        bad_nest = dataclasses.replace(
            app.nest, dependences=deps[:-1] + ((1, 1, 3),))
        diags = check_declared_dependences(bad_nest)
        codes = [(d.code, d.severity) for d in diags]
        # the body-derived (1,1,2) is missing -> error; the phantom
        # (1,1,3) is declared but never derived -> warning
        assert ("TV04", "error") in codes
        assert ("TV04", "warning") in codes

    def test_clean_apps_have_consistent_declarations(self):
        for _, app, _h in CONFIGS:
            assert check_declared_dependences(app.nest) == []
            assert check_declared_dependences(app.original) == []
