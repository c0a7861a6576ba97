"""A corrupt cached ``.so`` is rebuilt, never served (ROADMAP 1(b)).

``ArtifactCache.native_lookup`` only knows the file exists; the hit
path of ``build_native_library`` loads it.  A torn, bit-flipped or
foreign object must come back as a counted ``miss`` with a fresh build
over it (or a clean ``fallback`` when the rebuild fails) — and the run
that follows, dense or parallel, stays bitwise.
"""

import os

import pytest

from repro.apps import sor
from repro.artifacts import ArtifactCache
from repro.native.compile import compile_shared_object, find_compiler
from repro.native.engine import build_native_library
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    TiledProgram,
    arrays_match,
    dense_to_cells,
)
from tests.conftest import requires_cc

SPEC = ClusterSpec()


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(100)


def _flip_header_bit(path):
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0x10]))      # no longer \x7fELF


def _without_symbol(path):
    compile_shared_object(find_compiler(),
                          "int repro_other(void) { return 0; }\n", path)


DAMAGE = [pytest.param(_truncate, id="truncated"),
          pytest.param(_flip_header_bit, id="bit-flipped"),
          pytest.param(_without_symbol, id="symbol-less")]


def _program():
    app = sor.app(6, 9)
    return app, TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                             mapping_dim=2)


def _damaged_cache(tmp_path, damage):
    """A cache whose one ``.so`` was built, then damaged on disk."""
    cache = ArtifactCache(str(tmp_path))
    app, prog = _program()
    cold = build_native_library(prog, cache=cache)
    assert cold.status == "miss", cold.fallback_reason
    damage(cold.so_path)
    return cache, app, prog, cold


@requires_cc
@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("engine", ["dense", "parallel"])
def test_corrupt_object_is_rebuilt_and_the_run_is_bitwise(
        tmp_path, damage, engine):
    cache, app, prog, cold = _damaged_cache(tmp_path, damage)
    lib = build_native_library(prog, cache=cache)
    assert (lib.status, lib.available) == ("miss", True)
    assert lib.so_path == cold.so_path          # rebuilt over it
    stats = cache.stats()
    assert stats["native_invalid"] == 1
    assert (stats["native_hits"], stats["native_misses"]) == (0, 2)
    run = DistributedRun(prog, SPEC)
    ref, _ = run.execute_dense(app.init_value)
    if engine == "dense":
        fields, _ = run.execute_dense(app.init_value, native=lib)
    else:
        fields, _ = run.execute_parallel(app.init_value, workers=2,
                                         native=lib)
    assert arrays_match(dense_to_cells(fields), dense_to_cells(ref),
                        tol=0.0)
    # the rebuilt object is a plain hit from here on
    again = build_native_library(prog, cache=cache)
    assert again.status == "hit"
    assert cache.stats()["native_invalid"] == 1


@requires_cc
def test_failed_rebuild_falls_back_with_the_reason(tmp_path, monkeypatch):
    cache, app, prog, cold = _damaged_cache(tmp_path, _truncate)
    monkeypatch.setenv("CC", "/bin/false")
    # the key folds the compiler fingerprint: keep the damaged entry's
    monkeypatch.setattr("repro.native.engine.native_key",
                        lambda *parts: cold.key)
    lib = build_native_library(prog, cache=cache)
    assert (lib.status, lib.available) == ("fallback", False)
    assert "compile failed" in lib.fallback_reason
    assert cache.stats()["native_invalid"] == 1
    fields, _ = DistributedRun(prog, SPEC).execute_dense(
        app.init_value, native=lib)
    ref, _ = DistributedRun(prog, SPEC).execute_dense(app.init_value)
    assert arrays_match(dense_to_cells(fields), dense_to_cells(ref),
                        tol=0.0)


@requires_cc
def test_intact_hit_is_not_recompiled(tmp_path, monkeypatch):
    cache = ArtifactCache(str(tmp_path))
    _app, prog = _program()
    cold = build_native_library(prog, cache=cache)
    assert cold.status == "miss"
    before = os.stat(cold.so_path).st_mtime_ns

    def boom(*args, **kwargs):
        raise AssertionError("compiler invoked on an intact hit")

    monkeypatch.setattr("repro.native.engine.compile_shared_object", boom)
    warm = build_native_library(prog, cache=cache)
    assert warm.status == "hit"
    assert os.stat(warm.so_path).st_mtime_ns == before
    assert cache.stats()["native_invalid"] == 0
