"""Content-addressed persistence of tuning runs.

A tuning run is as deterministic as a compile: the search trace and the
winner are a pure function of (nest, mapping dimension, cluster spec,
search config).  So tuning records are content-addressed exactly like
program artifacts — :func:`tune_key` hashes the canonical semantic
inputs, a record file is ``<key>.tune.json`` under the cache root, and
a warm re-tune is a byte-identical read with **zero** pipeline work: no
candidate generation, no legality checks, no cost certificates, no
simulation.  The winner's compiled program is stored in the *same*
root's :class:`~repro.artifacts.cache.ArtifactCache`, so after one cold
tune the whole (search + compile) pipeline is served from disk.

Like the artifact cache, any defect in a stored record — truncation,
corruption, key or format-version skew — demotes the hit to a clean
re-tune (and re-store), never an error; writes go through the
artifact layer's ``atomic_write``, so racing processes never tear a
record.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.artifacts.cache import ArtifactCache
from repro.artifacts.format import atomic_write
from repro.artifacts.hashing import canonical_nest
from repro.runtime.machine import ClusterSpec
from repro.tuning.tuner import (
    TUNE_FORMAT_VERSION,
    TuneConfig,
    TuneResult,
    h_from_doc,
    tune_tile_shape,
)

#: File extension for stored tuning records.
RECORD_SUFFIX = ".tune.json"


def _spec_doc(spec: ClusterSpec) -> Dict[str, Any]:
    doc = asdict(spec)
    if doc.get("node_speed_factors") is not None:
        doc["node_speed_factors"] = list(doc["node_speed_factors"])
    return doc


def tune_key(nest: Any, mapping_dim: int, spec: ClusterSpec,
             config: TuneConfig) -> str:
    """SHA-256 hex key of one tuning request.

    Hashes the same canonical nest rendering as program artifacts plus
    everything the search outcome depends on: mapping dimension, every
    timing parameter of the cluster model, the full search config, and
    the record format version (bumped on any semantic change, so stale
    records become misses, not wrong answers).
    """
    doc = {
        "tune_format_version": TUNE_FORMAT_VERSION,
        "nest": canonical_nest(nest),
        "mapping_dim": mapping_dim,
        "cluster": _spec_doc(spec),
        "config": config.to_dict(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def canonical_report_bytes(report: Dict[str, Any]) -> bytes:
    """The one true serialization of a report (byte-identical reloads)."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode(
        "utf-8")


class TuneRecordStore:
    """A directory of content-addressed tuning records."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + RECORD_SUFFIX)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
        }

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored report for ``key``, or ``None`` (a miss).

        A record that exists but is unreadable, fails schema
        validation, or carries the wrong key/format version counts as
        invalid and is treated as a miss — a corrupted cache can slow
        a re-tune down, never make it wrong.
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            with open(path, "rb") as f:
                report = json.loads(f.read().decode("utf-8"))
            from repro.tuning.schema import validate_report
            validate_report(report)
            if (report.get("key") != key
                    or report.get("format_version") != TUNE_FORMAT_VERSION):
                raise ValueError("key or format-version skew")
        except (ValueError, OSError):
            self.invalid += 1
            self.misses += 1
            return None
        self.hits += 1
        return report

    def store(self, key: str, report: Dict[str, Any]) -> str:
        """Atomically write ``report`` under ``key``; returns the path."""
        path = self.path_for(key)
        blob = canonical_report_bytes(report)
        atomic_write(path, blob)
        self.stores += 1
        return path


def tune_or_load(
    nest: Any,
    mapping_dim: int,
    spec: ClusterSpec,
    config: TuneConfig,
    cache_dir: str,
    baseline_h: Optional[Any] = None,
    init_value: Optional[Callable[..., float]] = None,
) -> Tuple[Dict[str, Any], str]:
    """Return ``(report, "hit" | "miss")`` for a tuning request.

    On a miss the full search runs (:func:`~repro.tuning.tuner.
    tune_tile_shape`), the report is stored under its tune key, and the
    winning shape is compiled into the same root's program artifact
    cache so ``repro serve``/``get_or_compile`` hit on it too.  On a
    hit the stored report is returned as-is — no ``TiledProgram`` is
    ever constructed.
    """
    store = TuneRecordStore(cache_dir)
    key = tune_key(nest, mapping_dim, spec, config)
    cached = store.load(key)
    if cached is not None:
        return cached, "hit"
    result: TuneResult = tune_tile_shape(
        nest, mapping_dim, spec=spec, config=config,
        baseline_h=baseline_h, init_value=init_value)
    result.key = key
    report = result.to_dict()
    store.store(key, report)
    # The winner lands in the program cache next to the record, so the
    # follow-up compile of the tuned shape is a hit as well.
    ArtifactCache(cache_dir).get_or_compile(
        nest, h_from_doc(report["winner"]["h"]), mapping_dim)
    return report, "miss"
