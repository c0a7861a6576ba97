"""The affine rank body against the numpy engine, bitwise.

``repro_tile`` reads the dependence sources through per-level
displacements ``floord(lo_k - d'_k, c_k)`` and runs an overlapped
tile's phases as windows of the keys ``2 L + !B`` in lexicographic
order; ``repro_write_back`` walks the same TTIS loops.  None of that
is the numpy engine's level batches and index tables, so every case
here runs both and compares them at tol 0.0 — fields, ``written`` and
the run's counts — in process (``execute_dense``) and in
``execute_parallel(workers=2)`` on the blocking and the overlapped
schedule: the seven CI configurations, the drawn paper tilings and the
random 2D stencils of :mod:`tests.runtime.tilings`.  The draws are
pinned to reach a stride ``c_k > 1`` and partial tiles.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.apps import resolve_config
from repro.artifacts import ArtifactCache
from repro.linalg import RatMat
from repro.native.engine import build_native_library
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from tests.codegen.test_one_compile import CI_CONFIGS, IDS
from tests.conftest import requires_cc
from tests.runtime.tilings import (
    DRAWN,
    drawn_program,
    random_cases,
    stencil_init,
    stencil_nest,
)

SPEC = ClusterSpec()

pytestmark = requires_cc


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ArtifactCache(str(tmp_path_factory.mktemp("affine-cache")))


def _same(got, ref):
    assert got.keys() == ref.keys()
    for name in ref:
        assert np.array_equal(got[name].values, ref[name].values), name
        assert np.array_equal(got[name].written, ref[name].written), name


def _check(prog, init_value, cache):
    """Native vs numpy on every engine and schedule; returns the
    address shapes the program reached (``"stride"``, ``"partial"``)."""
    lib = build_native_library(prog, cache=cache)
    assert lib.available, lib.fallback_reason
    run = DistributedRun(prog, SPEC)
    ref, ref_stats = run.execute_dense(init_value)
    got, stats = run.execute_dense(init_value, native=lib)
    _same(got, ref)
    assert stats == ref_stats
    for overlap in (False, True):
        fields, pstats = run.execute_parallel(
            init_value, workers=2, native=lib, overlap=overlap,
            timeout=60.0)
        _same(fields, ref)
        assert (pstats.total_messages, pstats.total_elements,
                pstats.channel_messages, pstats.channel_elements) == (
            ref_stats.total_messages, ref_stats.total_elements,
            ref_stats.channel_messages, ref_stats.channel_elements)
    reached = set()
    if any(c > 1 for c in prog.tiling.ttis.c):
        reached.add("stride")
    if any(prog.tiling.classify_tile(t) == "partial"
           for t in prog.dist.tiles):
        reached.add("partial")
    return reached


@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_ci_configs(cache, name, sizes, shape, tile):
    app, h = resolve_config(name, sizes, shape, tile)
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    _check(prog, app.init_value, cache)


def test_drawn_paper_tilings(cache):
    reached = set()

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(**DRAWN)
    @example(which="jacobi", x=2, y=4, z=3)     # c = (1, 2, 1)
    @example(which="adi", x=2, y=3, z=3)        # c = (1, 1, 3)
    def check(which, x, y, z):
        app, prog = drawn_program(which, x, y, z)
        reached.update(_check(prog, app.init_value, cache))

    check()
    assert reached == {"stride", "partial"}


def test_random_stencils(cache):
    reached = set()

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(case=random_cases())
    # P = [[2, -1], [-2, 3]]: c = (1, 2)
    @example(case=([(1, -1), (1, 0)], RatMat([[2, -1], [-2, 3]]).inverse(),
                   (0, 0), (5, 6), (0.25, 0.375)))
    def check(case):
        deps, h, lo, hi, coeffs = case
        prog = TiledProgram(stencil_nest(deps, lo, hi, coeffs), h,
                            mapping_dim=0)
        reached.update(_check(prog, stencil_init, cache))

    check()
    assert reached == {"stride", "partial"}
