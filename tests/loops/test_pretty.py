"""Unit tests for the loop-nest pretty printer."""

from repro.apps import sor
from repro.loops.pretty import format_nest


class TestFormatNest:
    def test_sor_original(self):
        text = format_nest(sor.original_nest(4, 6))
        assert text.count("ENDFOR") == 3
        assert text.count("FOR") == 6  # 3 openers + 3 ENDFORs
        assert "A[j0 - 1][j1][j2]" in text

    def test_skewed_references_unskewed(self, sor_small):
        text = format_nest(sor_small.nest)
        # the paper's skewed SOR body indexes A[t', i'-t', j'-2t']
        assert "A[j0][-j0 + j1][-2*j0 + j2]" in text

    def test_adi_two_statements(self, adi_small):
        text = format_nest(adi_small.nest)
        assert text.count(":=") == 2
        assert "X[" in text and "B[" in text and "A[j1][j2]" in text

    def test_bounds_match_domain(self):
        nest = sor.original_nest(3, 5)
        text = format_nest(nest)
        assert "FOR j0 = 1 TO 3" in text
        assert "FOR j1 = 1 TO 5" in text
