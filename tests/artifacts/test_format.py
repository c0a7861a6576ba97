"""Failure modes of the on-disk format: every defect is a clean miss.

The cache's contract is that a bad artifact can cost a recompile but
never an error and never a wrong program — corruption, truncation,
version skew and key mismatch must all be detected and demoted.
"""

import os
import threading

import pytest

from repro.apps import sor
from repro.artifacts import (
    ArtifactCache,
    ArtifactError,
    content_key,
    read_artifact,
)
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec

APP = sor.app(4, 6)
H = sor.h_rectangular(2, 3, 4)
MDIM = 2
SPEC = ClusterSpec()


def _store(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    prog = TiledProgram(APP.nest, H, mapping_dim=MDIM)
    path = cache.store(prog, MDIM)
    return cache, prog, path


class TestCorruption:
    def test_flipped_byte_is_rejected(self, tmp_path):
        cache, _, path = _store(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            read_artifact(path)
        assert cache.load(APP.nest, H, MDIM) is None
        assert cache.stats()["invalid"] == 1

    def test_truncated_file_is_rejected(self, tmp_path):
        cache, _, path = _store(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(ArtifactError):
            read_artifact(path)
        assert cache.load(APP.nest, H, MDIM) is None

    def test_empty_and_garbage_files_are_rejected(self, tmp_path):
        cache, _, path = _store(tmp_path)
        open(path, "wb").write(b"")
        assert cache.load(APP.nest, H, MDIM) is None
        open(path, "wb").write(b"not an artifact at all")
        assert cache.load(APP.nest, H, MDIM) is None

    def test_wrong_key_is_rejected(self, tmp_path):
        _, _, path = _store(tmp_path)
        with pytest.raises(ArtifactError, match="key mismatch"):
            read_artifact(path, expected_key="0" * 64)


class TestVersioning:
    def test_version_bump_falls_back_to_recompile(self, tmp_path,
                                                  monkeypatch):
        cache, _, path = _store(tmp_path)
        import repro.artifacts.format as fmt
        monkeypatch.setattr(fmt, "FORMAT_VERSION",
                            fmt.FORMAT_VERSION + 1)
        with pytest.raises(ArtifactError, match="format version"):
            read_artifact(path)
        # ...and the cache turns that into a working recompile.
        prog, status = cache.get_or_compile(APP.nest, H, MDIM)
        assert status == "miss"
        assert cache.stats()["invalid"] == 1
        assert DistributedRun(prog, SPEC).simulate().makespan > 0

    def test_cert_version_bump_drops_only_certificates(self, tmp_path,
                                                       monkeypatch):
        """A certificate-shape bump must not invalidate the geometry:
        the program still loads, just without pre-proved certificates."""
        cache = ArtifactCache(str(tmp_path))
        prog = TiledProgram(APP.nest, H, mapping_dim=MDIM)
        prog.hb_certificate()
        cache.store(prog, MDIM)
        import dataclasses

        from repro import stages
        entry = stages.TABLE["hb_certificates"]
        monkeypatch.setitem(
            stages.TABLE, "hb_certificates",
            dataclasses.replace(entry, version=entry.version + 1))
        loaded = cache.load(APP.nest, H, MDIM)
        assert loaded is not None
        # the proofs are gone, the geometry is not
        assert not loaded.stage("hb_certificates")
        assert loaded.stages.state("hb_certificates") == "built"
        assert loaded.stage("rank_plans") == prog.stage("rank_plans")
        assert loaded.stages.state("rank_plans") == "restored"


class TestRecovery:
    def test_corrupt_artifact_is_rewritten_on_next_compile(self,
                                                           tmp_path):
        cache, _, path = _store(tmp_path)
        open(path, "wb").write(b"garbage")
        prog, status = cache.get_or_compile(APP.nest, H, MDIM)
        assert status == "miss"
        prog2, status2 = cache.get_or_compile(APP.nest, H, MDIM)
        assert status2 == "hit"
        assert DistributedRun(prog, SPEC).simulate() == \
            DistributedRun(prog2, SPEC).simulate()


class TestConcurrency:
    def test_racing_writers_never_produce_torn_reads(self, tmp_path):
        """Two writers repeatedly replacing one cache entry while a
        reader loads it: every load must see a complete artifact (the
        atomic rename guarantees this), never a torn file."""
        cache = ArtifactCache(str(tmp_path))
        prog = TiledProgram(APP.nest, H, mapping_dim=MDIM)
        # Pre-build the payload once; writers then race on the file.
        from repro.artifacts.format import snapshot_program, write_artifact
        key = content_key(APP.nest, H, MDIM)
        payload = snapshot_program(prog, MDIM, key=key)
        path = cache.path_for(key)
        write_artifact(path, payload)  # entry exists before the race
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                try:
                    write_artifact(path, payload)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            loads = 0
            while loads < 20:
                loaded = cache.load(APP.nest, H, MDIM)
                assert loaded is not None, "torn read observed"
                loads += 1
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        assert cache.stats()["invalid"] == 0
        # No leaked temporary files from the racing writers.
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.endswith(".tmp")]
        assert leftovers == []

    def test_concurrent_get_or_compile_both_usable(self, tmp_path):
        """Two caches (as two processes would) racing get_or_compile on
        an empty directory: both must return working programs and the
        surviving artifact must be loadable."""
        c1 = ArtifactCache(str(tmp_path))
        c2 = ArtifactCache(str(tmp_path))
        results = {}

        def work(name, cache):
            results[name] = cache.get_or_compile(APP.nest, H, MDIM)

        t1 = threading.Thread(target=work, args=("a", c1))
        t2 = threading.Thread(target=work, args=("b", c2))
        t1.start(); t2.start(); t1.join(); t2.join()
        (pa, _), (pb, _) = results["a"], results["b"]
        assert DistributedRun(pa, SPEC).simulate() == \
            DistributedRun(pb, SPEC).simulate()
        c3 = ArtifactCache(str(tmp_path))
        assert c3.load(APP.nest, H, MDIM) is not None

    def test_racing_native_source_writers_do_not_collide(self, tmp_path,
                                                         monkeypatch):
        """Two processes missing the same native key both drop the
        emitted ``.c``: the second store lands inside the first's
        ``os.replace``.  With a shared ``<key>.c.tmp`` the first
        writer's rename found its file already renamed away
        (``FileNotFoundError`` out of ``build_native_library``, whose
        contract is "never raises")."""
        first = ArtifactCache(str(tmp_path))
        second = ArtifactCache(str(tmp_path))
        real_replace = os.replace
        interleaved = []
        pending = [second]

        def replace(src, dst):
            if pending:
                interleaved.append(
                    pending.pop().native_store_source("k", "two"))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        path = first.native_store_source("k", "one")
        assert interleaved == [path]
        assert open(path).read() == "one"       # last rename wins
        assert os.listdir(tmp_path) == ["k.c"]  # and no tmp file leaks
