"""Tuning records: content addressing, byte-identity, zero re-work.

Mirrors ``tests/artifacts/test_roundtrip.py``: the warm path must not
only return equal results — it must provably never run the pipeline
(legality proof, tile enumeration, costing, simulation), which the
tests enforce by monkeypatching those stages to explode.
"""

import json

from repro.apps import sor
from repro.artifacts import ArtifactCache
from repro.runtime.machine import ClusterSpec
from repro.tiling.transform import TilingTransformation
from repro.tuning import (
    TuneConfig,
    TuneRecordStore,
    h_from_doc,
    tune_key,
    tune_or_load,
)

SPEC = ClusterSpec()
CONFIG = TuneConfig()


def _tiny():
    return sor.app(6, 9), sor.h_rectangular(2, 3, 4)


def test_warm_retune_is_byte_identical(tmp_path):
    app, h = _tiny()
    report1, status1 = tune_or_load(
        app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
        baseline_h=h)
    assert status1 == "miss"
    key = tune_key(app.nest, app.mapping_dim, SPEC, CONFIG)
    path = TuneRecordStore(str(tmp_path)).path_for(key)
    blob1 = open(path, "rb").read()

    report2, status2 = tune_or_load(
        app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
        baseline_h=h)
    assert status2 == "hit"
    assert report1 == report2
    assert open(path, "rb").read() == blob1
    # The stored blob IS the canonical rendering of the report.
    assert json.loads(blob1.decode()) == report1


def test_warm_retune_runs_no_pipeline(tmp_path, monkeypatch):
    app, h = _tiny()
    tune_or_load(app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
                 baseline_h=h)

    def boom(*a, **k):
        raise AssertionError("compile/search pipeline ran on the "
                             "warm-tune path")

    monkeypatch.setattr("repro.runtime.executor.check_legal_tiling", boom)
    monkeypatch.setattr(TilingTransformation, "tile_space_bounds", boom)
    monkeypatch.setattr("repro.tuning.tuner.tune_tile_shape", boom)
    monkeypatch.setattr("repro.tuning.records.tune_tile_shape", boom)

    report, status = tune_or_load(
        app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
        baseline_h=h)
    assert status == "hit"
    assert report["winner"]["label"]


def test_winner_lands_in_the_program_artifact_cache(tmp_path):
    app, h = _tiny()
    report, _ = tune_or_load(
        app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
        baseline_h=h)
    winner_h = h_from_doc(report["winner"]["h"])
    cache = ArtifactCache(str(tmp_path))
    prog = cache.load(app.nest, winner_h, app.mapping_dim)
    assert prog is not None, "tuned winner missing from program cache"
    assert cache.hits == 1


def test_key_depends_on_every_semantic_input():
    app, _ = _tiny()
    base = tune_key(app.nest, app.mapping_dim, SPEC, CONFIG)
    assert base == tune_key(app.nest, app.mapping_dim, ClusterSpec(),
                            TuneConfig())
    other_app = sor.app(6, 10)
    assert base != tune_key(other_app.nest, app.mapping_dim, SPEC, CONFIG)
    assert base != tune_key(app.nest, 0, SPEC, CONFIG)
    assert base != tune_key(app.nest, app.mapping_dim,
                            ClusterSpec(net_latency=1e-3), CONFIG)
    assert base != tune_key(app.nest, app.mapping_dim, SPEC,
                            TuneConfig(stop_ratio=1.5))


def test_corrupt_record_demotes_to_retune(tmp_path):
    app, h = _tiny()
    tune_or_load(app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
                 baseline_h=h)
    key = tune_key(app.nest, app.mapping_dim, SPEC, CONFIG)
    store = TuneRecordStore(str(tmp_path))
    with open(store.path_for(key), "wb") as f:
        f.write(b'{"kind": "garbage"')
    report, status = tune_or_load(
        app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
        baseline_h=h)
    assert status == "miss"        # corruption -> clean re-tune
    assert report["winner"]["label"]
    # ... and the re-tune repaired the record on disk.
    repaired = TuneRecordStore(str(tmp_path))
    assert repaired.load(key) == report


def test_record_with_wrong_key_is_invalid(tmp_path):
    app, h = _tiny()
    report, _ = tune_or_load(
        app.nest, app.mapping_dim, SPEC, CONFIG, str(tmp_path),
        baseline_h=h)
    store = TuneRecordStore(str(tmp_path))
    other = "0" * 64
    store.store(other, report)     # stored under a key it doesn't match
    assert store.load(other) is None
    assert store.invalid == 1
