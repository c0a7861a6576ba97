"""Artifact round-trips are bitwise-equivalent to a fresh compile.

The six reference configs (the HB suite's) cover all three apps, both
tile shapes, and all mapping dimensions the paper uses.  For each we
assert the strongest property the tentpole claims: a loaded program's
``simulate()`` RunStats compare *equal* and its ``execute_dense()``
fields match at tol=0.0 — while the expensive pipeline stages are
monkeypatched to explode, proving the load path never runs them.
"""

import numpy as np
import pytest

from repro.apps import adi, heat, jacobi, sor
from repro.artifacts import ArtifactCache
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.runtime.parallel import build_rank_plans
from repro.tiling.transform import TilingTransformation

CONFIGS = [
    pytest.param(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2,
                 id="sor-rect"),
    pytest.param(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2,
                 id="sor-nonrect"),
    pytest.param(sor.app(5, 7), sor.h_rectangular(3, 4, 5), 2,
                 id="sor-rect-57"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3), 0,
                 id="jacobi-rect"),
    pytest.param(adi.app(4, 5), adi.h_rectangular(2, 3, 3), 0,
                 id="adi-rect"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(2, 4), 1,
                 id="heat-rect"),
]

SPEC = ClusterSpec()


def _fields_bitwise_equal(f1, f2):
    assert set(f1) == set(f2)
    for name in f1:
        assert f1[name].origin == f2[name].origin
        assert np.array_equal(f1[name].values, f2[name].values)
        assert np.array_equal(f1[name].written, f2[name].written)


@pytest.mark.parametrize("app,h,mdim", CONFIGS)
def test_roundtrip_bitwise(tmp_path, monkeypatch, app, h, mdim):
    cache = ArtifactCache(str(tmp_path))
    fresh = TiledProgram(app.nest, h, mapping_dim=mdim)
    cache.store(fresh, mdim)

    # Loading must not re-run the pipeline: blow up the legality proof
    # and the Fourier-Motzkin projection behind enumerate_tiles().
    def boom(*a, **k):
        raise AssertionError("compile pipeline ran on the load path")

    monkeypatch.setattr("repro.runtime.executor.check_legal_tiling", boom)
    monkeypatch.setattr(TilingTransformation, "tile_space_bounds", boom)

    loaded = cache.load(app.nest, h, mdim)
    assert loaded is not None
    assert cache.stats()["hits"] == 1

    s_fresh = DistributedRun(fresh, SPEC).simulate()
    s_loaded = DistributedRun(loaded, SPEC).simulate()
    assert s_fresh == s_loaded

    f_fresh, st_fresh = DistributedRun(fresh, SPEC).execute_dense(
        app.init_value)
    f_loaded, st_loaded = DistributedRun(loaded, SPEC).execute_dense(
        app.init_value)
    assert st_fresh == st_loaded
    _fields_bitwise_equal(f_fresh, f_loaded)


@pytest.mark.parametrize("app,h,mdim", CONFIGS[:1])
def test_roundtrip_rank_plans_and_geometry(tmp_path, app, h, mdim):
    cache = ArtifactCache(str(tmp_path))
    fresh = TiledProgram(app.nest, h, mapping_dim=mdim)
    cache.store(fresh, mdim)
    loaded = cache.load(app.nest, h, mdim)
    assert loaded is not None
    assert loaded.dist.tiles == fresh.dist.tiles
    assert loaded.dist.m == fresh.dist.m
    assert loaded.comm.d_s == fresh.comm.d_s
    assert loaded.comm.d_m == fresh.comm.d_m
    assert loaded.comm.cc == fresh.comm.cc
    assert loaded.comm.offsets == fresh.comm.offsets
    assert np.array_equal(loaded.dense_lex_order(),
                          fresh.dense_lex_order())
    assert loaded.dense_schedule_vector() == fresh.dense_schedule_vector()
    # The lazily-decoded plans equal a from-scratch build.
    assert build_rank_plans(loaded) == build_rank_plans(fresh)
    for tile in fresh.dist.tiles:
        assert loaded.tile_point_count(tile) == \
            fresh.tile_point_count(tile)
        assert loaded.tiling.classify_tile(tile) == \
            fresh.tiling.classify_tile(tile)


def test_certificates_survive_roundtrip(tmp_path, monkeypatch):
    """A program certified before store() ships its proofs: the loaded
    program answers ``hb_certificate()``/``cost_certificate()`` without
    re-running either certifier."""
    app = sor.app(4, 6)
    h = sor.h_rectangular(2, 3, 4)
    fresh = TiledProgram(app.nest, h, mapping_dim=2)
    hb = fresh.hb_certificate()
    cost = fresh.cost_certificate()
    assert fresh.stage("hb_certificates")
    assert fresh.stage("cost_certificates")

    cache = ArtifactCache(str(tmp_path))
    cache.store(fresh, 2)
    loaded = cache.load(app.nest, h, 2)
    assert loaded is not None
    for name in ("hb_certificates", "cost_certificates"):
        assert set(loaded.stage(name)) == set(fresh.stage(name))
        assert loaded.stages.state(name) == "restored"

    def boom(*a, **k):
        raise AssertionError("certifier re-ran on a cache hit")

    monkeypatch.setattr("repro.analysis.hb.graph.certify_program", boom)
    monkeypatch.setattr("repro.analysis.cost.certify_cost", boom)
    assert loaded.hb_certificate().ok == hb.ok
    assert loaded.cost_certificate().ok == cost.ok


def test_get_or_compile_miss_then_hit(tmp_path):
    app = sor.app(4, 6)
    h = sor.h_rectangular(2, 3, 4)
    cache = ArtifactCache(str(tmp_path))
    p1, st1 = cache.get_or_compile(app.nest, h, 2)
    p2, st2 = cache.get_or_compile(app.nest, h, 2)
    assert (st1, st2) == ("miss", "hit")
    assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                             "invalid": 0, "native_hits": 0,
                             "native_misses": 0, "native_stores": 0,
                             "native_invalid": 0}
    assert DistributedRun(p1, SPEC).simulate() == \
        DistributedRun(p2, SPEC).simulate()
