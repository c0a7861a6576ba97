"""Unit coverage for the C emitter, kexpr rendering, and TV05.

TV05 re-parses the emitted translation unit with an independent
grammar and proves it against the symbolic ``KExpr`` trees and the
tiling — these tests drive both directions: the genuine TU validates
cleanly for every app (jacobi and adi under tilings with a stride
``c_k > 1``), and each class of corruption (constant bits, operator
structure, slot wiring, displacement, write target, arity) raises a
TV05 error.
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
from repro.runtime import read_dependences
from repro.tiling import TilingTransformation

#: Each app under a tiling; jacobi's has c = (1, 2, 1), adi's (1, 1, 3).
APPS = [
    pytest.param(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), id="sor"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_nonrectangular(2, 2, 3),
                 id="jacobi"),
    pytest.param(adi.app(4, 5), adi.h_nr3(2, 3, 3), id="adi"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(2, 4), id="heat"),
]


def _arrays(app):
    return tuple(sorted({s.write.array for s in app.nest.statements}))


def _emit(app, h):
    """``(tiling, source)`` of the app's TU under ``h``."""
    tiling = TilingTransformation(h, app.nest.domain)
    return tiling, emit_translation_unit(app.nest, _arrays(app), None,
                                         tiling).source


class TestEmit:
    @pytest.mark.parametrize("app,h", APPS)
    def test_one_function_per_statement(self, app, h):
        _tiling, source = _emit(app, h)
        assert source.count("static double F_") == len(
            app.nest.statements)
        assert source.count("void repro_tile(") == 1
        assert source.count("void repro_write_back(") == 1
        assert "repro_run" not in source

    @pytest.mark.parametrize("app,h", APPS)
    def test_slot_counts_match_dependences(self, app, h):
        tiling, source = _emit(app, h)
        deps = read_dependences(app.nest)
        n_dep = sum(1 for ds in deps for d in ds if d is not None)
        n_pure = sum(1 for ds in deps for d in ds if d is None)
        last = tiling.n - 1
        reads = re.findall(rf"\[w{last} \+ r(\d+)_{last}\]", source)
        assert [int(q) for q in reads] == list(range(n_dep))
        assert len(re.findall(r"\bpt\d+\[", source)) == n_pure
        # one displacement per (dependence slot, level), none per point
        assert len(re.findall(r"const long r\d+_\d+ = ", source)) == (
            n_dep * tiling.n)

    def test_strides_enter_the_displacements(self):
        """Under ``c = (1, 2, 1)`` level 1's displacement divides by 2:
        the read of ``j' - d'`` is ``floor((j' - d') / c)``, not the
        write cell minus ``d'``."""
        tiling, source = _emit(jacobi.app(3, 5, 5),
                               jacobi.h_nonrectangular(2, 2, 3))
        assert tiling.ttis.c == (1, 2, 1)
        assert re.search(r"floord\(lo1 - \(-?\d+\), 2\) \* st1", source)
        assert "(jp1 / 2) * st1" in source
        # c_0 = c_2 = 1: those levels' terms are constants
        assert not re.search(r"floord\(lo[02] ", source)

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
    @pytest.mark.parametrize("app,h", APPS)
    def test_clean_on_reference_apps(self, app, h):
        tiling, _source = _emit(app, h)
        assert check_native_tu(app.nest, _arrays(app), tiling=tiling) == []
        # the unit tiling, when none is given, on both sides
        assert check_native_tu(app.nest, _arrays(app)) == []

    def test_runs_inside_transval_report(self):
        app = sor.app(4, 6)
        report = transval_report(app.nest, sor.h_rectangular(2, 3, 4),
                                 mapping_dim=2)
        assert report.ok
        assert "transval-kernels" in report.passes_run

    def _tu(self):
        app = jacobi.app(3, 5, 5)
        tiling, source = _emit(app, jacobi.h_nonrectangular(2, 2, 3))
        return (app, tiling), source

    def _errors(self, app, text):
        app, tiling = app
        diags = check_native_tu(app.nest, _arrays(app), text, tiling)
        return [d for d in diags if d.code == "TV05"]

    def test_flipped_constant_bit_detected(self):
        app, src = self._tu()
        bad = src.replace("0x1", "0x2", 1)
        assert bad != src
        assert self._errors(app, bad)

    def test_reassociated_operator_detected(self):
        app, src = self._tu()
        bad = re.sub(
            r"(static double F_\w+\([^)]*\) \{\s*return )(.*?);",
            lambda m: m.group(1) + m.group(2).replace("+", "-", 1) + ";",
            src, count=1)
        assert bad != src
        assert self._errors(app, bad)

    def test_swapped_read_slot_detected(self):
        app, src = self._tu()
        bad = src.replace("+ r0_2]", "+ r1_2]", 1)
        assert bad != src
        assert self._errors(app, bad)

    @pytest.mark.parametrize("app,h", APPS)
    def test_read_through_another_slots_table_detected(self, app, h):
        """A dependence read has no per-point guard, so its
        displacement is all that places it: slot ``k`` loading through
        slot ``k + 1``'s displacement (a neighbour's source) must be
        refused for every slot."""
        arrays = _arrays(app)
        tiling, source = _emit(app, h)
        last = tiling.n - 1
        n = len(re.findall(rf"\+ r\d+_{last}\]", source))
        if n < 2:
            pytest.skip("one dependence slot")
        for k in range(n):
            bad = source.replace(f"+ r{k}_{last}]",
                                 f"+ r{(k + 1) % n}_{last}]", 1)
            assert bad != source
            errors = [d for d in check_native_tu(app.nest, arrays, bad,
                                                 tiling)
                      if d.code == "TV05"]
            assert any(f"slot {k} " in d.message for d in errors), k

    @pytest.mark.parametrize("app,h", APPS)
    def test_wrong_displacement_detected(self, app, h):
        """Every (slot, level) term of a displacement is checked against
        the read's ``d' = H' d`` and the stride ``c_k``: off by one in
        the vector, or in the stride, is refused — also where ``c_k =
        1`` made the term a constant."""
        arrays = _arrays(app)
        tiling, source = _emit(app, h)
        terms = list(re.finditer(
            r"const long r(\d+)_\d+ = \w+ \+ (?:floord\(lo\d+ - \((-?\d+)"
            r"\), (\d+)\)|\((-?\d+)\)) \* st\d+;", source))
        assert len(terms) >= tiling.n
        for m in terms:
            line = m.group(0)
            if m.group(4) is None:
                d, c = m.group(2), m.group(3)
                bads = [line.replace(f"- ({d}), {c})",
                                     f"- ({int(d) + 1}), {c})"),
                        line.replace(f"- ({d}), {c})",
                                     f"- ({d}), {int(c) + 1})")]
            else:
                neg = m.group(4)
                bads = [line.replace(f"+ ({neg}) *",
                                     f"+ ({int(neg) + 1}) *")]
            for bad_line in bads:
                assert bad_line != line
                bad = source.replace(line, bad_line, 1)
                errors = [d for d in check_native_tu(app.nest, arrays,
                                                     bad, tiling)
                          if d.code == "TV05"]
                assert any(f"slot {m.group(1)} " in d.message
                           for d in errors), bad_line

    def test_wrong_write_buffer_detected(self):
        app, src = self._tu()
        bad = re.sub(r"b_(\w+)\[w2\] = F_", "b_WRONG[w2] = F_", src,
                     count=1)
        assert bad != src
        assert self._errors(app, bad)

    def test_wrong_write_cell_detected(self):
        app, src = self._tu()
        bad = re.sub(r"b_(\w+)\[w2\] = F_", r"b_\1[w1] = F_", src,
                     count=1)
        assert bad != src
        assert self._errors(app, bad)

    def test_missing_call_detected(self):
        app, src = self._tu()
        bad = re.sub(r"b_\w+\[w2\]\s*=\s*F_\w+\(.*?\);", ";", src,
                     count=1, flags=re.S)
        assert bad != src
        assert self._errors(app, bad)

    def test_nest_without_exprs_is_silent(self):
        # no native TU => numpy fallback, nothing to prove, no noise
        app = sor.app(4, 6)
        nest = dataclasses.replace(
            app.nest,
            statements=tuple(dataclasses.replace(s, expr=None)
                             for s in app.nest.statements))
        assert check_native_tu(nest, _arrays(app)) == []
