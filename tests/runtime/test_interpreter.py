"""Unit tests for the sequential oracle and its compiled tiled twin."""

import pickle

from repro.apps import adi, jacobi, sor
from repro.codegen import (
    generate_sequential_tiled_code,
    run_sequential_tiled_code,
)
from repro.linalg.ratmat import RatMat
from repro.runtime.interpreter import run_sequential

from tests.conftest import requires_cc, values_close


def _tiled(app, h):
    """The nest in sequential tiled order: the §2.3 text, compiled."""
    return run_sequential_tiled_code(
        app.nest, generate_sequential_tiled_code(app.nest, h),
        app.init_value)


class TestSequentialAgainstNaiveReferences:
    """The interpreter executing the IR must equal the hand-written
    reference implementations — validates the IR construction."""

    def test_sor(self, sor_small, sor_reference_small):
        got = run_sequential(sor_small.original, sor_small.init_value)
        assert values_close(got["A"], sor_reference_small)

    def test_sor_skewed(self, sor_small, sor_reference_small):
        got = run_sequential(sor_small.nest, sor_small.init_value)
        assert values_close(got["A"], sor_reference_small)

    def test_jacobi(self, jacobi_small, jacobi_reference_small):
        got = run_sequential(jacobi_small.original, jacobi_small.init_value)
        assert values_close(got["A"], jacobi_reference_small)

    def test_jacobi_skewed(self, jacobi_small, jacobi_reference_small):
        got = run_sequential(jacobi_small.nest, jacobi_small.init_value)
        assert values_close(got["A"], jacobi_reference_small)

    def test_adi_both_arrays(self, adi_small, adi_reference_small):
        got = run_sequential(adi_small.nest, adi_small.init_value)
        assert values_close(got["X"], adi_reference_small["X"])
        assert values_close(got["B"], adi_reference_small["B"])


@requires_cc
class TestTiledOrderPreservesSemantics:
    """Legality in action: tiled reordering changes nothing."""

    def test_sor_rect(self, sor_small, sor_reference_small):
        got = _tiled(sor_small, sor.h_rectangular(2, 3, 4))
        assert values_close(got["A"], sor_reference_small)

    def test_sor_nonrect(self, sor_small, sor_reference_small):
        got = _tiled(sor_small, sor.h_nonrectangular(2, 3, 4))
        assert values_close(got["A"], sor_reference_small)

    def test_jacobi_nonrect_strided(self, jacobi_small,
                                    jacobi_reference_small):
        got = _tiled(jacobi_small, jacobi.h_nonrectangular(2, 4, 3))
        assert values_close(got["A"], jacobi_reference_small)

    def test_adi_cone_aligned(self, adi_small, adi_reference_small):
        got = _tiled(adi_small, adi.h_nr3(2, 3, 3))
        assert values_close(got["X"], adi_reference_small["X"])
        assert values_close(got["B"], adi_reference_small["B"])


class TestIntegerIndexing:
    """The oracle indexes arrays in ints: a skewed access goes through
    the access matrix's int rows, never a ``Fraction`` product."""

    def test_run_sequential_never_calls_matvec(self, monkeypatch,
                                               sor_small,
                                               sor_reference_small):
        calls = []
        matvec = RatMat.matvec
        monkeypatch.setattr(RatMat, "matvec", lambda self, v: (
            calls.append(1), matvec(self, v))[1])
        got = run_sequential(sor_small.nest, sor_small.init_value)
        assert calls == []
        assert values_close(got["A"], sor_reference_small)

    def test_indexing_leaves_the_reference_unchanged(self, sor_small):
        """The int rows are cached beside the reference, so its
        equality, hash and pickle stay those of its three fields."""
        refs = [r for s in sor_small.nest.statements
                for r in (*s.reads, s.write) if r.matrix is not None]
        assert refs
        before = [(pickle.dumps(r), hash(r), vars(r).copy())
                  for r in refs]
        for r in refs:
            r.index((1, 2, 3))
        assert [(pickle.dumps(r), hash(r), vars(r)) for r in refs] \
            == before
