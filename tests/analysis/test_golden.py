"""Golden diagnostics for the paper's benchmark configurations.

Every seed app/tiling pair the rest of the suite executes must analyze
*clean of errors* — the verifier may not cry wolf on programs the
integration tests prove correct.  The exact diagnostic sets are pinned:
every config analyzes entirely clean by default.  Four SOR and Jacobi
tilings carry a documented ``--hb`` HB02 *warning* (they really do
deadlock under the synchronous rendezvous protocol — the engine
confirms it — but complete under the default eager protocol).
"""

import pytest

from repro.apps import adi, heat, jacobi, sor
from repro.analysis import analyze_program
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import DeadlockError

CASES = [
    # (id, app, h, mapping_dim, deadlocks under forced rendezvous)
    ("sor-rect", lambda: sor.app(4, 6), lambda: sor.h_rectangular(2, 3, 3),
     2, True),
    ("sor-nonrect", lambda: sor.app(4, 6),
     lambda: sor.h_nonrectangular(2, 3, 3), 2, True),
    ("sor-nonrect-234", lambda: sor.app(4, 6),
     lambda: sor.h_nonrectangular(2, 3, 4), 2, False),
    ("jacobi-rect", lambda: jacobi.app(3, 6, 6),
     lambda: jacobi.h_rectangular(2, 3, 3), 0, True),
    ("jacobi-nonrect", lambda: jacobi.app(3, 6, 6),
     lambda: jacobi.h_nonrectangular(2, 4, 4), 0, True),
    ("adi-rect", lambda: adi.app(4, 5), lambda: adi.h_rectangular(2, 3, 3),
     0, False),
    ("adi-nr1", lambda: adi.app(4, 5), lambda: adi.h_nr1(2, 3, 3), 0, False),
    ("adi-nr2", lambda: adi.app(4, 5), lambda: adi.h_nr2(2, 3, 3), 0, False),
    ("heat-rect", lambda: heat.app(6, 8), lambda: heat.h_rectangular(3, 4),
     0, False),
    ("heat-skew", lambda: heat.app(6, 8),
     lambda: heat.h_skewed_band(3, 2), 0, False),
]


@pytest.mark.parametrize(
    "make_app, make_h, m",
    [c[1:4] for c in CASES], ids=[c[0] for c in CASES])
def test_paper_config_golden_diagnostics(make_app, make_h, m):
    app = make_app()
    prog = TiledProgram(app.nest, make_h(), mapping_dim=m)
    rep = analyze_program(prog)
    assert rep.codes() == []
    assert rep.passes_run == ["legality", "races", "hb", "bounds"]
    assert rep.meta["processors"] == prog.num_processors
    assert rep.meta["messages"] > 0 or prog.num_processors == 1


@pytest.mark.parametrize(
    "make_app, make_h, m",
    [c[1:4] for c in CASES if c[4]], ids=[c[0] for c in CASES if c[4]])
def test_rendezvous_warnings_are_honest(make_app, make_h, m):
    """Every ``--hb`` rendezvous warning corresponds to a real
    rendezvous deadlock: force the synchronous protocol and the engine
    must actually hang."""
    app = make_app()
    prog = TiledProgram(app.nest, make_h(), mapping_dim=m)
    rep = analyze_program(prog, hb=True)
    assert rep.ok
    hb02 = rep.by_code("HB02")
    assert hb02 and all(d.severity == "warning" for d in hb02)
    assert "rendezvous" in hb02[0].message
    with pytest.raises(DeadlockError):
        DistributedRun(prog, ClusterSpec(rendezvous_threshold=0)).simulate()


@pytest.mark.parametrize(
    "make_app, make_h, m",
    [c[1:4] for c in CASES if not c[4]],
    ids=[c[0] for c in CASES if not c[4]])
def test_clean_configs_survive_rendezvous(make_app, make_h, m):
    """Conversely: a fully clean ``--hb`` report means even the
    synchronous protocol completes."""
    app = make_app()
    prog = TiledProgram(app.nest, make_h(), mapping_dim=m)
    assert analyze_program(prog, hb=True).codes() == []
    stats = DistributedRun(
        prog, ClusterSpec(rendezvous_threshold=0)).simulate()
    assert stats.makespan > 0
