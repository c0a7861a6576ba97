"""Unit coverage for the C emitter, kexpr rendering, and TV05.

TV05 re-parses the emitted translation unit with an independent
grammar and proves it against the symbolic ``KExpr`` trees — these
tests drive both directions: the genuine TU validates cleanly for
every app, and each class of corruption (constant bits, operator
structure, slot wiring, write target, arity) raises a TV05 error.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.analysis.transval import transval_report
from repro.analysis.transval.kernels import (
    check_native_tu,
    parse_c_double_expr,
)
from repro.apps import adi, heat, jacobi, sor
from repro.loops import kexpr
from repro.native.emit import (
    NativeEmitError,
    emit_translation_unit,
)
from repro.runtime import TiledProgram, read_dependences

APPS = [
    pytest.param(sor.app(4, 6), id="sor"),
    pytest.param(jacobi.app(3, 5, 5), id="jacobi"),
    pytest.param(adi.app(4, 5), id="adi"),
    pytest.param(heat.app(4, 8), id="heat"),
]


def _arrays(app):
    return tuple(sorted({s.write.array for s in app.nest.statements}))


class TestEmit:
    @pytest.mark.parametrize("app", APPS)
    def test_one_function_per_statement(self, app):
        plan = emit_translation_unit(app.nest, _arrays(app))
        assert plan.source.count("static double F_") == len(
            app.nest.statements)
        assert "void repro_run(" in plan.source

    @pytest.mark.parametrize("app", APPS)
    def test_slot_counts_match_dependences(self, app):
        plan = emit_translation_unit(app.nest, _arrays(app))
        deps = read_dependences(app.nest)
        n_dep = sum(1 for ds in deps for d in ds if d is not None)
        n_pure = sum(1 for ds in deps for d in ds if d is None)
        assert plan.n_dep_slots == n_dep
        assert plan.n_pure_slots == n_pure
        assert len(plan.slots) == n_dep + n_pure

    def test_deterministic_hash(self):
        app = sor.app(4, 6)
        p1 = emit_translation_unit(app.nest, _arrays(app))
        p2 = emit_translation_unit(app.nest, _arrays(app))
        assert p1.source == p2.source
        assert p1.source_hash == p2.source_hash

    def test_hash_tracks_expression(self):
        app = sor.app(4, 6)
        p1 = emit_translation_unit(app.nest, _arrays(app))
        nest = dataclasses.replace(
            app.nest,
            statements=tuple(
                dataclasses.replace(
                    s, expr=kexpr.KMul(kexpr.KConst(2.0), s.expr))
                for s in app.nest.statements))
        p2 = emit_translation_unit(nest, _arrays(app))
        assert p1.source_hash != p2.source_hash

    def test_missing_expr_raises(self):
        app = sor.app(4, 6)
        nest = dataclasses.replace(
            app.nest,
            statements=tuple(dataclasses.replace(s, expr=None)
                             for s in app.nest.statements))
        with pytest.raises(NativeEmitError, match="no symbolic"):
            emit_translation_unit(nest, _arrays(app))


class TestKexprRendering:
    def test_hex_constants_roundtrip(self):
        # every double constant must survive C parsing bit-for-bit
        for value in (0.25, 1.0 / 3.0, 0.1, -2.5e-17, 1e300):
            text = kexpr.const_to_c(value)
            node = parse_c_double_expr(text, [])
            assert node[0] == "const"
            assert (np.float64(node[1]).tobytes()
                    == np.float64(value).tobytes())

    def test_to_c_parses_back(self):
        v = kexpr.reads(3)
        expr = kexpr.KAdd(
            kexpr.KMul(kexpr.KConst(0.25),
                       kexpr.KAdd(v[0], kexpr.KNeg(v[1]))),
            kexpr.KDiv(v[2], kexpr.KConst(3.0)))
        text = kexpr.to_c(expr, {q: f"v{q}" for q in range(3)})
        node = parse_c_double_expr(text, ["v0", "v1", "v2"])
        assert node == (
            "+",
            ("*", ("const", 0.25), ("+", ("read", 0),
                                    ("neg", ("read", 1)))),
            ("/", ("read", 2), ("const", 3.0)))


class TestTV05:
    @pytest.mark.parametrize("app", APPS)
    def test_clean_on_reference_apps(self, app):
        diags = check_native_tu(app.nest, _arrays(app))
        assert diags == []

    def test_runs_inside_transval_report(self):
        app = sor.app(4, 6)
        report = transval_report(app.nest, sor.h_rectangular(2, 3, 4),
                                 mapping_dim=2)
        assert report.ok
        assert "transval-kernels" in report.passes_run

    def _tu(self):
        app = sor.app(4, 6)
        return app, emit_translation_unit(app.nest, _arrays(app)).source

    def _errors(self, app, text):
        diags = check_native_tu(app.nest, _arrays(app), text)
        return [d for d in diags if d.code == "TV05"]

    def test_flipped_constant_bit_detected(self):
        app, src = self._tu()
        bad = src.replace("0x1", "0x2", 1)
        assert self._errors(app, bad)

    def test_reassociated_operator_detected(self):
        app, src = self._tu()
        bad = re.sub(
            r"return (.*?);",
            lambda m: "return " + m.group(1).replace("+", "-", 1) + ";",
            src, count=1)
        assert self._errors(app, bad)

    def test_swapped_read_slot_detected(self):
        app, src = self._tu()
        bad = re.sub(r"rb0\[i_\]", "rb1[i_]", src, count=1)
        assert self._errors(app, bad)

    @pytest.mark.parametrize("app", APPS)
    def test_read_through_another_slots_table_detected(self, app):
        """A dependence read has no per-point guard any more, so its
        ``rb`` table is all that places it: slot ``k`` loading through
        slot ``k + 1``'s table (a neighbour's source) must be refused
        for every slot."""
        arrays = _arrays(app)
        plan = emit_translation_unit(app.nest, arrays)
        n = plan.n_dep_slots
        if n < 2:
            pytest.skip("one dependence slot")
        for k in range(n):
            bad = plan.source.replace(f"[rb{k}[i_] + shift]",
                                      f"[rb{(k + 1) % n}[i_] + shift]", 1)
            assert bad != plan.source
            errors = [d for d in check_native_tu(app.nest, arrays, bad)
                      if d.code == "TV05"]
            assert any(f"slot {k} " in d.message for d in errors), k

    def test_wrong_write_buffer_detected(self):
        app, src = self._tu()
        bad = re.sub(r"b_(\w+)\[wbase", "b_WRONG[wbase", src, count=1)
        assert self._errors(app, bad)

    def test_missing_call_detected(self):
        app, src = self._tu()
        bad = re.sub(
            r"b_\w+\[wbase\[i_\]\s*\+\s*shift\]\s*=\s*F_\w+\(.*?\);",
            ";", src, count=1, flags=re.S)
        assert self._errors(app, bad)

    def test_nest_without_exprs_is_silent(self):
        # no native TU => numpy fallback, nothing to prove, no noise
        app = sor.app(4, 6)
        nest = dataclasses.replace(
            app.nest,
            statements=tuple(dataclasses.replace(s, expr=None)
                             for s in app.nest.statements))
        assert check_native_tu(nest, _arrays(app)) == []
