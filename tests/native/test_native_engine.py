"""The native backend is bitwise-identical to the dense engine.

Every run through a compiled ``.so`` is cross-checked at ``tol=0.0``
against the numpy dense engine (itself bitwise-checked against the
sparse interpreters): the emitted C performs exactly the IEEE-754
operations of the statement's kernel expr in the same order, under
``-ffp-contract=off -fno-fast-math``.  The suite also pins down the
degradation contract — no toolchain, a broken toolchain or a
non-float64 run must all fall back to the numpy kernels without
changing a single bit of output.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import adi, heat, jacobi, sor
from repro.artifacts import ArtifactCache
from repro.loops import kexpr
from repro.native.engine import build_native_library, native_key
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    TiledProgram,
    arrays_match,
    dense_to_cells,
)
from tests.conftest import requires_cc

SPEC = ClusterSpec()

# The six reference configs (see tests/artifacts/test_roundtrip.py):
# all three CLI apps plus heat, both tile shapes, every mapping
# dimension the paper uses, and a partial-tile case.
CONFIGS = [
    pytest.param(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2,
                 id="sor-rect"),
    pytest.param(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2,
                 id="sor-nonrect"),
    pytest.param(sor.app(5, 7), sor.h_rectangular(3, 4, 5), 2,
                 id="sor-partial-tiles"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3), 0,
                 id="jacobi-rect"),
    pytest.param(adi.app(4, 5), adi.h_rectangular(2, 3, 3), 0,
                 id="adi-rect"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(2, 4), 1,
                 id="heat-rect"),
]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One shared on-disk cache: each config compiles at most once."""
    return ArtifactCache(str(tmp_path_factory.mktemp("native-cache")))


def _build(prog, cache):
    lib = build_native_library(prog, cache=cache)
    assert lib.available, lib.fallback_reason
    return lib


class TestNativeDenseBitwise:
    @pytest.mark.parametrize("app,h,mdim", CONFIGS)
    @requires_cc
    def test_matches_dense_engine(self, cache, app, h, mdim):
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        lib = _build(prog, cache)
        ref_fields, ref_stats = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        fields, stats = DistributedRun(prog, SPEC).execute_dense(
            app.init_value, native=lib)
        assert arrays_match(dense_to_cells(fields),
                            dense_to_cells(ref_fields), tol=0.0)
        # same schedule, same events, same simulated measurements
        assert stats.makespan == ref_stats.makespan
        assert stats.clocks == ref_stats.clocks
        assert stats.total_messages == ref_stats.total_messages
        assert stats.total_elements == ref_stats.total_elements


class TestNativeParallelBitwise:
    """Workers call the kernels over the same shared LDS byte layout."""

    @pytest.mark.parametrize("app,h,mdim", CONFIGS)
    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["blocking", "overlap"])
    @requires_cc
    def test_matches_dense_engine(self, cache, app, h, mdim, overlap):
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        lib = _build(prog, cache)
        ref_fields, _ = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        run = DistributedRun(prog, SPEC)
        fields, stats = run.execute_parallel(
            app.init_value, workers=2, native=lib, overlap=overlap)
        assert arrays_match(dense_to_cells(fields),
                            dense_to_cells(ref_fields), tol=0.0)

    @pytest.mark.parametrize("protocol", ["eager", "rendezvous", "spec"])
    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["blocking", "overlap"])
    @requires_cc
    def test_protocols(self, cache, protocol, overlap):
        if protocol == "rendezvous":
            # SOR's multi-tag schedule deadlocks under rendezvous (the
            # HB certifier proves it); use jacobi's rendezvous-safe
            # single-tag schedule, as the parallel-engine suite does.
            app = jacobi.app(3, 5, 5)
            prog = TiledProgram(app.nest, jacobi.h_rectangular(2, 3, 3),
                                mapping_dim=0)
        else:
            app = sor.app(4, 6)
            prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                                mapping_dim=2)
        lib = _build(prog, cache)
        ref_fields, _ = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        fields, _ = DistributedRun(prog, SPEC).execute_parallel(
            app.init_value, workers=2, native=lib,
            protocol=protocol, overlap=overlap)
        assert arrays_match(dense_to_cells(fields),
                            dense_to_cells(ref_fields), tol=0.0)


class TestNativeRandomTilings:
    @given(tx=st.integers(2, 4), ty=st.integers(2, 5),
           tz=st.integers(2, 5))
    @settings(max_examples=6, deadline=None)
    @requires_cc
    def test_sor_tilings_bitwise(self, tx, ty, tz):
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(tx, ty, tz),
                            mapping_dim=2)
        lib = build_native_library(prog)
        assert lib.available, lib.fallback_reason
        ref_fields, _ = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        fields, _ = DistributedRun(prog, SPEC).execute_dense(
            app.init_value, native=lib)
        assert arrays_match(dense_to_cells(fields),
                            dense_to_cells(ref_fields), tol=0.0)


def _fallback_still_bitwise(app, prog, lib):
    """An unavailable library must be a transparent no-op."""
    assert not lib.available
    assert lib.status == "fallback"
    ref_fields, _ = DistributedRun(prog, SPEC).execute_dense(
        app.init_value)
    fields, _ = DistributedRun(prog, SPEC).execute_dense(
        app.init_value, native=lib)
    assert arrays_match(dense_to_cells(fields),
                        dense_to_cells(ref_fields), tol=0.0)


class TestFallback:
    def test_no_compiler(self, monkeypatch, tmp_path):
        # $CC pointing at a nonexistent driver disables discovery
        monkeypatch.setenv("CC", "no-such-compiler-xyzzy")
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        lib = build_native_library(
            prog, cache=ArtifactCache(str(tmp_path)))
        assert "no C compiler" in lib.fallback_reason
        _fallback_still_bitwise(app, prog, lib)

    def test_broken_compiler(self, monkeypatch, tmp_path):
        # CC=/bin/false: discovery succeeds, every build fails
        if not os.path.exists("/bin/false"):
            pytest.skip("/bin/false not available")
        monkeypatch.setenv("CC", "/bin/false")
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        lib = build_native_library(
            prog, cache=ArtifactCache(str(tmp_path)))
        assert "compile failed" in lib.fallback_reason
        _fallback_still_bitwise(app, prog, lib)

    def test_nest_without_exprs(self, tmp_path):
        # stripping the exprs leaves a structure-only nest: nothing to
        # compile, and nothing any engine could execute either
        app = sor.app(4, 6)
        nest = dataclasses.replace(
            app.nest,
            statements=tuple(dataclasses.replace(s, expr=None)
                             for s in app.nest.statements))
        prog = TiledProgram(nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        lib = build_native_library(
            prog, cache=ArtifactCache(str(tmp_path)))
        assert lib.status == "fallback"
        assert "no symbolic" in lib.fallback_reason
        with pytest.raises(TypeError, match="not a kernel expr"):
            DistributedRun(prog, SPEC).execute_dense(
                app.init_value, native=lib)


class TestCache:
    """Content-addressed ``.so`` reuse and stale-object invalidation."""

    @requires_cc
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        cold = build_native_library(prog, cache=cache)
        assert cold.status == "miss"
        assert os.path.exists(cold.so_path)
        # the source is stored next to the object for auditability
        assert os.path.exists(cold.so_path[:-3] + ".c")

        warm = build_native_library(
            TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                         mapping_dim=2),
            cache=cache)
        assert warm.status == "hit"
        assert warm.key == cold.key
        assert warm.so_path == cold.so_path
        stats = cache.stats()
        assert stats["native_misses"] == 1
        assert stats["native_hits"] == 1

    @requires_cc
    def test_warm_hit_skips_compiler(self, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        build_native_library(prog, cache=cache)

        def boom(*a, **k):
            raise AssertionError("compiler ran on the warm path")

        monkeypatch.setattr(
            "repro.native.engine.compile_shared_object", boom)
        warm = build_native_library(
            TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                         mapping_dim=2),
            cache=cache)
        assert warm.status == "hit"
        assert warm.available

    @requires_cc
    def test_edited_kernel_never_served_stale(self, tmp_path):
        """The key-sensitivity regression for the PR-8 cache design.

        ``content_key`` deliberately excludes kernels (geometry-equal
        artifacts stay shareable); the native key therefore folds in
        the kernel-source hash, so a nest whose *expression* changed
        can never be handed the old shared object.
        """
        from repro.artifacts.hashing import content_key

        cache = ArtifactCache(str(tmp_path))
        app = sor.app(4, 6)
        h = sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        lib = build_native_library(prog, cache=cache)
        assert lib.status == "miss"

        # same geometry, different kernel expression
        edited_nest = dataclasses.replace(
            app.nest,
            statements=tuple(
                dataclasses.replace(
                    s, expr=kexpr.KMul(kexpr.KConst(2.0), s.expr))
                for s in app.nest.statements))
        edited = TiledProgram(edited_nest, h, mapping_dim=2)
        assert (content_key(edited_nest, h, 2)
                == content_key(app.nest, h, 2))

        lib2 = build_native_library(edited, cache=cache)
        assert lib2.status == "miss"        # NOT a stale hit
        assert lib2.key != lib.key
        assert lib2.so_path != lib.so_path

    @requires_cc
    def test_key_sensitivity(self):
        assert (native_key("c", "s", "f")
                != native_key("c2", "s", "f"))
        assert (native_key("c", "s", "f")
                != native_key("c", "s2", "f"))
        assert (native_key("c", "s", "f")
                != native_key("c", "s", "f2"))
        assert native_key("c", "s", "f") == native_key("c", "s", "f")

    @requires_cc
    def test_compiler_change_invalidates(self, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        lib = build_native_library(prog, cache=cache)
        monkeypatch.setattr(
            "repro.native.engine.compiler_fingerprint",
            lambda cc: "deadbeefdeadbeef")
        lib2 = build_native_library(
            TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                         mapping_dim=2),
            cache=cache)
        assert lib2.key != lib.key
        assert lib2.status == "miss"


class TestArtifactKernelDrift:
    """Geometry-equal artifact + edited kernels => refuse to load."""

    def test_restore_refuses_kernel_drift(self):
        from repro.artifacts.format import (
            ArtifactError,
            restore_program,
            snapshot_program,
        )

        app = sor.app(4, 6)
        h = sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        payload = snapshot_program(prog, 2)

        edited_nest = dataclasses.replace(
            app.nest,
            statements=tuple(
                dataclasses.replace(
                    s, expr=kexpr.KMul(kexpr.KConst(2.0), s.expr))
                for s in app.nest.statements))
        with pytest.raises(ArtifactError, match="kernel drift"):
            restore_program(edited_nest, h, payload)
