"""Unit tests for loop skewing."""

import pytest

from repro.linalg import RatMat
from repro.loops import (
    ArrayRef,
    LoopNest,
    Statement,
    find_skew_for_rectangular_tiling,
    is_legal_skew,
    kexpr,
    skew_nest,
    skewed_dependences,
)
from repro.polyhedra import integer_points
from repro.runtime.interpreter import run_sequential


class TestSkewedDependences:
    def test_paper_sor(self):
        t = RatMat([[1, 0, 0], [1, 1, 0], [2, 0, 1]])
        deps = [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (1, 0, 0)]
        got = set(skewed_dependences(t, deps))
        assert got == {(0, 1, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1),
                       (1, 1, 2)}

    def test_paper_jacobi(self):
        t = RatMat([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
        deps = [(1, 0, 0), (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)]
        got = set(skewed_dependences(t, deps))
        assert got == {(1, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0),
                       (1, 1, 2)}


class TestLegality:
    def test_legal(self):
        t = RatMat([[1, 0], [1, 1]])
        assert is_legal_skew(t, [(1, -1), (1, 0)])

    def test_still_negative(self):
        t = RatMat([[1, 0], [1, 1]])
        assert not is_legal_skew(t, [(1, -2)])

    def test_non_unimodular_rejected(self):
        assert not is_legal_skew(RatMat([[2, 0], [0, 1]]), [(1, 0)])


class TestSkewNest:
    def _nest(self):
        stmt = Statement.of(
            ArrayRef.of("A", (0, 0)),
            [ArrayRef.of("A", (-1, 1)), ArrayRef.of("A", (-1, 0))],
            0.5 * kexpr.KRead(0) + 0.5 * kexpr.KRead(1),
        )
        return LoopNest.rectangular("w", [0, 0], [4, 4], [stmt],
                                    [(1, -1), (1, 0)])

    def test_domain_is_image(self):
        nest = self._nest()
        t = RatMat([[1, 0], [1, 1]])
        sk = skew_nest(nest, t)
        pts = set(integer_points(nest.domain))
        spts = set(integer_points(sk.domain))
        assert spts == {tuple(int(x) for x in t.matvec(p)) for p in pts}

    def test_dependences_skewed(self):
        sk = skew_nest(self._nest(), RatMat([[1, 0], [1, 1]]))
        assert set(sk.dependences) == {(1, 0), (1, 1)}

    def test_references_rewritten(self):
        sk = skew_nest(self._nest(), RatMat([[1, 0], [1, 1]]))
        w = sk.statements[0].write
        # at skewed point (i, i+j) the write must hit cell (i, j)
        assert w.index((2, 5)) == (2, 3)

    def test_semantics_preserved(self):
        """The skewed nest computes the same cells with the same values."""
        nest = self._nest()
        sk = skew_nest(nest, RatMat([[1, 0], [1, 1]]))

        def init(arr, cell):
            return float(cell[0] - 2 * cell[1])

        assert run_sequential(nest, init) == run_sequential(sk, init)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            skew_nest(self._nest(), RatMat([[2, 0], [0, 1]]))


class TestAutoSkew:
    def test_finds_paper_class_skew_for_jacobi_deps(self):
        deps = [(1, 0, 0), (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)]
        t = find_skew_for_rectangular_tiling(deps)
        assert t is not None
        assert is_legal_skew(t, deps)

    def test_minimal_for_simple_case(self):
        t = find_skew_for_rectangular_tiling([(1, -1)])
        assert t == RatMat([[1, 0], [1, 1]])

    def test_none_when_budget_too_small(self):
        assert find_skew_for_rectangular_tiling([(1, -5)],
                                                max_coeff=2) is None

    def test_already_nonnegative_returns_identity(self):
        t = find_skew_for_rectangular_tiling([(1, 0), (0, 1)])
        assert t == RatMat([[1, 0], [0, 1]])
