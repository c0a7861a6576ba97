"""Golden-text tests: the emitted C+MPI program is pinned exactly.

The generators burn every compile-time constant into the text, so any
pipeline change that alters bounds, strides, halo offsets, tags or the
communication sets shows up as a one-line diff here.  Regenerate a
golden file deliberately with::

    PYTHONPATH=src python - <<'EOF'
    from repro.apps import sor
    from repro.codegen.parallel import generate_mpi_code
    app = sor.app(8, 12)
    print(generate_mpi_code(app.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=app.mapping_dim), end="")
    EOF

and review the diff like any other code change.  The companion
translation-validation suite proves the pinned text is also *internally
consistent* with the pipeline, so a golden update that silently breaks
an invariant cannot land clean.
"""

from pathlib import Path

import pytest

from repro.analysis.transval import check_mpi_text
from repro.apps import jacobi, sor
from repro.codegen.parallel import generate_mpi_code
from repro.codegen.pygen import render_python_node_programs
from repro.runtime.executor import TiledProgram
from repro.runtime.machine import ClusterSpec

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("sor_8x12_nonrect_2_3_4_mpi.c",
     sor.app(8, 12), sor.h_nonrectangular(2, 3, 4)),
    ("jacobi_4x6x6_nonrect_2_2_3_mpi.c",
     jacobi.app(4, 6, 6), jacobi.h_nonrectangular(2, 2, 3)),
]


@pytest.mark.parametrize("fname,app,h", CASES, ids=[c[0] for c in CASES])
def test_emitted_mpi_text_matches_golden(fname, app, h):
    expected = (GOLDEN / fname).read_text()
    actual = generate_mpi_code(app.nest, h, mapping_dim=app.mapping_dim)
    assert actual == expected, (
        f"{fname} drifted — if the change is intentional, regenerate "
        f"the golden file (see module docstring) and review the diff")


@pytest.mark.parametrize("fname,app,h", CASES, ids=[c[0] for c in CASES])
def test_golden_text_translation_validates(fname, app, h):
    # the pinned text itself must satisfy TV01-TV03 against the pipeline
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    diags = check_mpi_text(prog, (GOLDEN / fname).read_text())
    assert diags == [], [d.message for d in diags]


# -- the emitted Python schedule module --------------------------------------------
#
# Written at the commit before pygen's SCHEDULES rows became a recording
# of ``rankstep.rank_walk`` over the vMPI port: event order and every
# burnt-in cost (a heterogeneous spec, so the per-rank speed factor is
# pinned too) must come out byte for byte.  Regenerate deliberately with
# ``render_python_node_programs(PY_PROG, PY_SPEC, engine)``.

PY_SPEC = ClusterSpec(node_speed_factors=(1.0, 1.5, 0.75))
PY_ENGINES = ["sparse", "dense", "dense-overlap"]


@pytest.mark.parametrize("engine", PY_ENGINES)
def test_emitted_python_schedule_matches_golden(engine):
    app = sor.app(4, 6)
    prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                        mapping_dim=app.mapping_dim)
    fname = f"sor_4x6_nonrect_2_3_4_{engine.replace('-', '_')}.py.txt"
    actual = render_python_node_programs(prog, PY_SPEC, engine)
    assert actual == (GOLDEN / fname).read_text(), (
        f"{fname} drifted — the schedule module is a recording of the "
        f"rank walk; regenerate only for an intended schedule change")
