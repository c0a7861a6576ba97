"""One compile per request: the ``(nest, h)`` entry points and the
program-taking renderers emit the same bytes.

Every ``generate_*`` entry point is "compile once, then render"; a
caller that already holds a compiled program — the translation
validator, the CLI, an :class:`~repro.artifacts.ArtifactCache` hit —
renders from that object instead.  These tests pin the two routes to
byte-identical text on the seven CI configurations, for a freshly
compiled program *and* for one restored from an artifact (pygen then
reads the parked ``rank_plans``/``points`` stages), and pin
``repro analyze --transval`` to the report the two separate entry
points give.  The sequential text of each configuration also compiles
and runs bitwise like the interpreter.
"""

import json

import pytest

from repro import codegen
from repro.analysis import analyze, transval_report
from repro.apps import resolve_config
from repro.artifacts import ArtifactCache
from repro.cli import main
from repro.runtime.dataspace import arrays_match
from repro.runtime.executor import TiledProgram
from repro.runtime.interpreter import run_sequential
from tests.conftest import requires_cc

#: The `repro analyze` configurations of ci.yml / nightly.yml plus the
#: sor 6x9 rectangle (a rendezvous-refused schedule).
CI_CONFIGS = [
    ("sor", (8, 12), "nonrect", (2, 3, 4)),
    ("sor", (8, 12), "rect", (2, 3, 3)),
    ("sor", (10, 14), "nonrect", (3, 4, 5)),
    ("sor", (6, 9), "rect", (2, 3, 4)),
    ("jacobi", (4, 6, 6), "nonrect", (2, 2, 3)),
    ("adi", (4, 5), "rect", (2, 3, 3)),
    ("adi", (4, 5), "nr3", (2, 3, 3)),
]
IDS = ["-".join([c[0], "x".join(map(str, c[1])), c[2]]) for c in CI_CONFIGS]
PYGEN_ENGINES = ("sparse", "dense", "dense-overlap")


def _entry_point_texts(app, h):
    nest, m = app.nest, app.mapping_dim
    texts = {
        "mpi": codegen.generate_mpi_code(nest, h, mapping_dim=m),
        "sequential": codegen.generate_sequential_tiled_code(nest, h),
    }
    for engine in PYGEN_ENGINES:
        texts["pygen", engine] = codegen.generate_python_node_programs(
            nest, h, mapping_dim=m, engine=engine)
    return texts


def _rendered_texts(prog):
    texts = {
        "mpi": codegen.render_mpi_code(prog),
        "sequential": codegen.render_sequential_tiled_code(
            prog.nest, prog.tiling),
    }
    for engine in PYGEN_ENGINES:
        texts["pygen", engine] = codegen.render_python_node_programs(
            prog, engine=engine)
    return texts


@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_entry_points_equal_program_taking_forms(name, sizes, shape, tile,
                                                 tmp_path):
    app, h = resolve_config(name, sizes, shape, tile)
    expected = _entry_point_texts(app, h)
    fresh = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    assert _rendered_texts(fresh) == expected
    cache = ArtifactCache(str(tmp_path))
    assert cache.get_or_compile(app.nest, h, app.mapping_dim)[1] == "miss"
    restored, status = cache.get_or_compile(app.nest, h, app.mapping_dim)
    assert status == "hit"
    assert restored.stages.state("rank_plans") == "pending"
    assert _rendered_texts(restored) == expected
    assert restored.stages.state("rank_plans") == "restored"


@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_cli_transval_report_is_the_two_entry_points_merged(
        name, sizes, shape, tile, capsys):
    """``--transval`` validates the program ``analyze`` built; the JSON
    must stay what merging a second, separately compiled
    ``transval_report`` into the base report used to print."""
    app, h = resolve_config(name, sizes, shape, tile)
    subject = (f"{name} sizes={list(sizes)} tile={list(tile)} "
               f"shape={shape}")
    report = analyze(app.nest, h, mapping_dim=app.mapping_dim,
                     subject=subject, overlap=True, hb=True, cost=True)
    assert report.ok
    tv = transval_report(app.nest, h, mapping_dim=app.mapping_dim)
    report.extend(tv.diagnostics)
    for pass_name in tv.passes_run:
        report.mark_pass(pass_name)
    rc = main(["analyze", "--app", name, "-s", *map(str, sizes),
               "-t", *map(str, tile), "--shape", shape, "--transval",
               "--hb", "--cost", "--overlap", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == report.to_json() + "\n"
    assert json.loads(out)["passes"][-5:] == [
        "transval-dependences", "transval-loops", "transval-subscripts",
        "transval-constants", "transval-kernels"]


@requires_cc
@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_sequential_text_runs_like_the_interpreter(name, sizes, shape,
                                                   tile):
    app, h = resolve_config(name, sizes, shape, tile)
    got = codegen.run_sequential_tiled_code(
        app.nest, codegen.generate_sequential_tiled_code(app.nest, h),
        app.init_value)
    assert arrays_match(got, run_sequential(app.nest, app.init_value),
                        tol=0.0)
