"""The paper's evaluation (§4: figures 5-10 and the §4.4 averages) at
the moderate grid EXPERIMENTS.md quotes, as exact assertions.

The virtual cluster is deterministic, so every table below is the
series its figure plots, to the three decimals ``format_table`` prints.
EXPERIMENTS.md quotes these numbers: if a change moves one, it changed
observable behaviour — fix the change, or re-pin here and there
together and say why in the commit.  Each figure's qualitative claims
(who wins, ordering) are asserted next to its table.  ``python -m
repro figure figN`` runs the full paper-anchored sweeps.
"""

import functools

import pytest

from repro.experiments import figures
from repro.experiments.report import improvement_percent
from repro.experiments.summary import PAPER_IMPROVEMENTS, average_improvements

SOR_Z = (4, 8, 16, 32)
JACOBI_X = ADI_X = (2, 4, 8, 16)
SOR_SPACES = ((100, 100), (100, 200), (150, 200), (200, 200))
JACOBI_SPACES = ((50, 100, 100), (50, 150, 150), (80, 150, 150),
                 (100, 200, 200))
ADI_SPACES = ((50, 128), (100, 128), (100, 192), (100, 256))

# One row per x-value, one column per series, as the figure prints:
# (rect, non-rect) for SOR and Jacobi, (rect, nr1, nr2, nr3) for ADI.
FIG5 = {"100x100x100": (2.405, 3.264), "100x200x200": (4.802, 5.911),
        "150x200x200": (3.705, 4.905), "200x200x200": (2.853, 3.969)}
FIG6 = {4: (4.802, 5.911), 8: (4.763, 5.786), 16: (4.397, 5.236),
        32: (3.729, 4.289)}
FIG7 = {"50x100x100": (3.913, 4.644), "50x150x150": (5.468, 6.132),
        "80x150x150": (4.723, 5.428), "100x200x200": (5.350, 5.945)}
FIG8 = {2: (3.913, 4.443), 4: (3.826, 4.644), 8: (3.223, 4.355),
        16: (2.429, 3.611)}
FIG9 = {"50x128x128": (8.464, 9.346, 9.127, 11.825),
        "100x128x128": (9.266, 10.159, 10.021, 11.929),
        "100x192x192": (10.950, 11.534, 11.443, 13.165),
        "100x256x256": (11.860, 12.483, 12.431, 13.830)}
FIG10 = {2: (11.860, 12.483, 12.431, 13.100),
         4: (11.114, 12.243, 12.164, 13.505),
         8: (9.600, 11.362, 11.252, 13.725),
         16: (7.385, 9.725, 9.566, 13.830)}
SUMMARY = {"sor": 19.7, "jacobi": 29.7, "adi": 40.6}


@pytest.fixture(scope="module", autouse=True)
def shared_sweeps():
    """Figures 5/6, 7/8 and 9/10 (and the summary) each contain the
    anchored space's tile-size sweep: every distinct sweep runs once."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("sor_tile_size_sweep", "jacobi_tile_size_sweep",
                     "adi_tile_size_sweep"):
            patch.setattr(figures, name, functools.lru_cache(maxsize=None)(
                getattr(figures, name)))
        yield


def printed(fig):
    columns = [dict(s.points) for s in fig.series]
    return {x: tuple(round(c[x], 3) for c in columns) for x in columns[0]}


def assert_nonrect_wins_everywhere(fig):
    m = fig.series_map()
    for x in m["rectangular"]:
        assert m["non-rectangular"][x] > m["rectangular"][x], x


def assert_adi_ordering(fig):
    """§4.4: ``t_nr3 < t_nr1 = t_nr2 < t_r`` — "gradual improvement
    from the rectangular tiling to the non-rectangular one taken from
    the tiling cone"."""
    m = fig.series_map()
    for x in m["rect"]:
        assert m["nr3"][x] > m["rect"][x]
        assert m["nr1"][x] > m["rect"][x]
        assert m["nr2"][x] > m["rect"][x]
        assert m["nr3"][x] >= m["nr1"][x] - 1e-9
        assert m["nr3"][x] >= m["nr2"][x] - 1e-9


def test_fig05_sor_spaces():
    fig = figures.fig5(spaces=SOR_SPACES, z_values=SOR_Z)
    assert printed(fig) == FIG5
    assert_nonrect_wins_everywhere(fig)
    # never super-linear on 16 processors
    assert max(fig.series_map()["rectangular"].values()) <= 16


def test_fig06_sor_tilesizes():
    fig = figures.fig6(m=100, n=200, z_values=SOR_Z)
    assert printed(fig) == FIG6
    assert_nonrect_wins_everywhere(fig)
    imp = improvement_percent(fig, "rectangular", "non-rectangular")
    assert imp > 5.0 and round(imp, 1) == SUMMARY["sor"]
    rect = fig.series_map()["rectangular"].values()
    assert max(rect) > min(rect)


def test_fig07_jacobi_spaces():
    fig = figures.fig7(spaces=JACOBI_SPACES, x_values=JACOBI_X)
    assert printed(fig) == FIG7
    assert_nonrect_wins_everywhere(fig)


def test_fig08_jacobi_tilesizes():
    fig = figures.fig8(t=50, i=100, j=100, x_values=JACOBI_X)
    assert printed(fig) == FIG8
    assert_nonrect_wins_everywhere(fig)
    imp = improvement_percent(fig, "rectangular", "non-rectangular")
    assert imp > 3.0 and round(imp, 1) == SUMMARY["jacobi"]


def test_fig09_adi_spaces():
    fig = figures.fig9(spaces=ADI_SPACES, x_values=ADI_X)
    assert printed(fig) == FIG9
    assert_adi_ordering(fig)
    m = fig.series_map()
    for space in m["rect"]:
        # nr1 and nr2 use equal y = z factors: near-identical speedups
        assert abs(m["nr1"][space] - m["nr2"][space]) / m["nr1"][space] < 0.05


def test_fig10_adi_tilesizes():
    fig = figures.fig10(t=100, n=256, x_values=ADI_X)
    assert printed(fig) == FIG10
    assert_adi_ordering(fig)
    m = fig.series_map()
    assert [round(100 * (m["nr1"][x] - m["nr2"][x]) / m["nr1"][x], 1)
            for x in ADI_X] == [0.4, 0.6, 1.0, 1.6]


def test_summary_improvements():
    """§4.4 headline numbers.  The robust shape: every application
    improves and SOR's average lands near the paper's; Jacobi's and
    ADI's come out larger because the sweep includes large chain
    extents where the rectangular pipeline collapses while the
    cone-derived shapes stay flat (the divergence of paper fig. 10)."""
    got = average_improvements(sor_z=SOR_Z, jacobi_x=JACOBI_X,
                               adi_x=ADI_X).measured
    assert {app: round(v, 1) for app, v in got.items()} == SUMMARY
    assert all(v > 0 for v in got.values()), "nr must win on average"
    assert abs(got["sor"] - PAPER_IMPROVEMENTS["sor"]) < 10.0
