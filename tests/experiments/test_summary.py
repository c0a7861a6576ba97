"""Unit tests for the §4.4 improvement summary (cheap paths only —
the paper-scale aggregation is pinned in test_paper_figures.py)."""

from repro.experiments.summary import (
    PAPER_IMPROVEMENTS,
    ImprovementSummary,
    average_improvements,
)
from repro.runtime import ClusterSpec


class TestTable:
    def test_contains_all_apps(self):
        s = ImprovementSummary(measured={"sor": 20.0, "jacobi": 10.0,
                                         "adi": 12.0})
        text = s.table()
        for app in ("sor", "jacobi", "adi"):
            assert app in text
        assert "17.3" in text  # paper column present

    def test_paper_constants(self):
        assert PAPER_IMPROVEMENTS == {"sor": 17.3, "jacobi": 9.1,
                                      "adi": 10.1}


class TestSmallScaleAggregation:
    def test_positive_on_tiny_sweeps(self):
        s = average_improvements(spec=ClusterSpec(),
                                 sor_z=(6,), jacobi_x=(4,), adi_x=(4,))
        assert set(s.measured) == {"sor", "jacobi", "adi"}
        for v in s.measured.values():
            assert v > 0
