"""Unit tests for the figure drivers (reduced parameter sets).

These check structure and the paper's qualitative claims on *small*
instances; the paper-scale sweeps are pinned in test_paper_figures.py.
"""

import pytest

from repro.experiments import figures
from repro.experiments.report import format_table, improvement_percent
from repro.runtime import ClusterSpec

SPEC = ClusterSpec()


@pytest.fixture(scope="module")
def fig6_small():
    return figures.fig6(m=20, n=30, z_values=(3, 6), spec=SPEC)


@pytest.fixture(scope="module")
def fig10_small():
    return figures.fig10(t=12, n=16, x_values=(2, 3), spec=SPEC)


class TestFig6:
    def test_series_labels(self, fig6_small):
        assert [s.label for s in fig6_small.series] == [
            "rectangular", "non-rectangular"]

    def test_x_values(self, fig6_small):
        assert [x for x, _ in fig6_small.series[0].points] == [3, 6]

    def test_nonrect_wins_everywhere(self, fig6_small):
        m = fig6_small.series_map()
        for z in (3, 6):
            assert m["non-rectangular"][z] > m["rectangular"][z]

    def test_best(self, fig6_small):
        m = fig6_small.series_map()
        assert fig6_small.best("rectangular") == max(
            m["rectangular"].values())

    def test_details_populated(self, fig6_small):
        assert len(fig6_small.details) == 4  # 2 tilings x 2 z-values


class TestFig5:
    def test_two_spaces(self):
        fig = figures.fig5(spaces=((16, 24), (20, 30)), z_values=(3, 6),
                           spec=SPEC)
        assert len(fig.series[0].points) == 2
        m = fig.series_map()
        for label in m["rectangular"]:
            assert m["non-rectangular"][label] >= m["rectangular"][label]


class TestFig8:
    def test_nonrect_wins(self):
        fig = figures.fig8(t=10, i=16, j=16, x_values=(2, 3), spec=SPEC)
        m = fig.series_map()
        for x in (2, 3):
            assert m["non-rectangular"][x] > m["rectangular"][x]


class TestFig10:
    def test_four_series(self, fig10_small):
        assert [s.label for s in fig10_small.series] == [
            "rect", "nr1", "nr2", "nr3"]

    def test_paper_ordering(self, fig10_small):
        """nr3 >= nr1, nr2 >= rect at every tile size (§4.4)."""
        m = fig10_small.series_map()
        for x in (2, 3):
            assert m["nr3"][x] > m["rect"][x]
            assert m["nr1"][x] > m["rect"][x]
            assert m["nr2"][x] > m["rect"][x]
            assert m["nr3"][x] >= m["nr1"][x] - 1e-9
            assert m["nr3"][x] >= m["nr2"][x] - 1e-9


class TestReport:
    def test_format_table(self, fig6_small):
        table = format_table(fig6_small)
        assert "rectangular" in table
        assert "non-rectangular" in table
        lines = table.splitlines()
        assert len(lines) == 3 + 2  # title, header, rule, 2 rows

    def test_improvement_percent_positive(self, fig6_small):
        imp = improvement_percent(fig6_small, "rectangular",
                                  "non-rectangular")
        assert imp > 0

    def test_improvement_requires_shared_x(self):
        from repro.experiments.figures import FigureResult, FigureSeries
        fig = FigureResult(
            figure="x", title="t", xlabel="x",
            series=(FigureSeries("a", ((1, 1.0),)),
                    FigureSeries("b", ((2, 2.0),))),
            details=())
        with pytest.raises(ValueError):
            improvement_percent(fig, "a", "b")


class TestCsv:
    def test_header_and_rows(self, fig6_small):
        from repro.experiments.report import to_csv
        csv = to_csv(fig6_small)
        lines = csv.strip().splitlines()
        assert lines[0] == "x,rectangular,non-rectangular"
        assert len(lines) == 3  # header + 2 z-values

    def test_values_parse(self, fig6_small):
        from repro.experiments.report import to_csv
        csv = to_csv(fig6_small)
        for line in csv.strip().splitlines()[1:]:
            x, *vals = line.split(",")
            assert all(float(v) > 0 for v in vals)


class TestFactorHelpers:
    def test_sor_factors_give_4x4_mesh(self):
        """The factors pin a 4x4 pid mesh; heavily skewed spaces leave
        the extreme corner pids without tiles (idle ranks, exactly as
        launching 16 MPI processes on the paper's cluster would)."""
        from repro.apps import sor as sor_app
        from repro.runtime import TiledProgram
        x, y = figures.sor_factors(20, 30)
        app = sor_app.app(20, 30)
        prog = TiledProgram(app.nest, sor_app.h_rectangular(x, y, 5),
                            mapping_dim=2)
        axes = [sorted({p[k] for p in prog.pids}) for k in range(2)]
        assert len(axes[0]) == 4 and len(axes[1]) == 4
        assert 12 <= prog.num_processors <= 16

    def test_jacobi_factors_even_y(self):
        y, z = figures.jacobi_factors(10, 16, 16)
        assert y % 2 == 0

    def test_adi_factors_give_16_processors(self):
        from repro.apps import adi as adi_app
        from repro.runtime import TiledProgram
        y, z = figures.adi_factors(12, 16)
        app = adi_app.app(12, 16)
        prog = TiledProgram(app.nest, adi_app.h_rectangular(3, y, z),
                            mapping_dim=0)
        assert prog.num_processors == 16
