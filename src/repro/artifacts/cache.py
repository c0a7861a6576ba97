"""Content-addressed on-disk cache of compiled programs.

``ArtifactCache`` maps a :func:`~repro.artifacts.hashing.content_key`
to one artifact file under a root directory.  ``get_or_compile`` is the
single entry point callers need: a hit reconstructs the program from
disk without re-running the pipeline; a miss compiles, stores, and
returns the fresh program.  Any defect in a stored artifact —
truncation, corruption, format-version skew, geometry drift — demotes
the hit to a clean recompile (and re-store), never an error.

Writes are atomic (:func:`~repro.artifacts.format.atomic_write`: a
private tmp file + ``os.replace``), so concurrent processes
racing on one cache entry are safe: each writes a complete file and the
last rename wins; readers never observe a torn artifact.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.artifacts.format import (
    ArtifactError,
    atomic_write,
    read_artifact,
    restore_program,
    snapshot_program,
    write_artifact,
)
from repro.artifacts.hashing import content_key
from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.runtime.executor import TiledProgram

#: File extension for stored artifacts ("tiled program artifact").
ARTIFACT_SUFFIX = ".tpa"

#: File extension for cached native shared objects (see repro.native).
NATIVE_SUFFIX = ".so"


class ArtifactCache:
    """A directory of content-addressed :class:`TiledProgram` artifacts.

    The same directory also holds the native backend's compiled shared
    objects (``<key>.so`` plus the emitted ``<key>.c`` for
    debuggability).  Their keys are *not* plain content keys: the
    native build folds the emitted kernel-source hash and the compiler
    fingerprint into the digest (``repro.native.engine.native_key``),
    because kernel arithmetic is deliberately outside
    :func:`~repro.artifacts.hashing.content_key` — an edited kernel or
    upgraded compiler therefore misses and rebuilds instead of loading
    a stale object.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: artifacts rejected as corrupt/stale and recompiled
        self.invalid = 0
        self.native_hits = 0
        self.native_misses = 0
        self.native_stores = 0
        #: cached shared objects that did not load and were rebuilt
        self.native_invalid = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + ARTIFACT_SUFFIX)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "native_hits": self.native_hits,
            "native_misses": self.native_misses,
            "native_stores": self.native_stores,
            "native_invalid": self.native_invalid,
        }

    # -- native shared objects ------------------------------------------------

    def native_path(self, key: str) -> str:
        return os.path.join(self.root, key + NATIVE_SUFFIX)

    def native_lookup(self, key: str) -> Optional[str]:
        """Path of a cached ``.so`` for ``key``, or ``None``.

        A hit means the compiler never runs for this program again
        (warm path); hit/miss counts are tracked separately from the
        program-artifact counters.
        """
        path = self.native_path(key)
        if os.path.exists(path):
            self.native_hits += 1
            return path
        self.native_misses += 1
        return None

    def native_reject(self) -> None:
        """The ``.so`` a lookup just served does not load: recount the
        hit as an invalid miss (the caller rebuilds over it)."""
        self.native_hits -= 1
        self.native_misses += 1
        self.native_invalid += 1

    def native_store_source(self, key: str, source: str) -> str:
        """Atomically drop the emitted ``.c`` next to the ``.so``."""
        path = os.path.join(self.root, key + ".c")
        atomic_write(path, source.encode())
        self.native_stores += 1
        return path

    # -- primitive operations -------------------------------------------------

    def load(self, nest: LoopNest, h: RatMat,
             mapping_dim: Optional[int] = None
             ) -> Optional[TiledProgram]:
        """Reconstruct the cached program for a compile request.

        Returns ``None`` (recording a miss) when no artifact exists or
        the stored one is unusable for any reason.
        """
        key = content_key(nest, h, mapping_dim)
        path = self.path_for(key)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            payload = read_artifact(path, expected_key=key)
            prog = restore_program(nest, h, payload)
        except ArtifactError:
            self.invalid += 1
            self.misses += 1
            return None
        self.hits += 1
        return prog

    def store(self, prog: TiledProgram,
              mapping_dim: Optional[int] = None) -> str:
        """Snapshot ``prog`` into the cache; returns the artifact path.

        ``mapping_dim`` must be the *requested* mapping dimension of
        the original compile (it is part of the content key).
        """
        key = content_key(prog.nest, prog.tiling.h, mapping_dim)
        path = self.path_for(key)
        write_artifact(path, snapshot_program(prog, mapping_dim, key=key))
        self.stores += 1
        return path

    # -- the main entry point -------------------------------------------------

    def get_or_compile(self, nest: LoopNest, h: RatMat,
                       mapping_dim: Optional[int] = None,
                       verify: bool = False,
                       store_on_miss: bool = True,
                       ) -> Tuple[TiledProgram, str]:
        """Return ``(program, "hit" | "miss")`` for a compile request.

        On a miss the program is compiled (with ``verify=True`` running
        the static verifier ``verify_program`` — legality, races, eager
        deadlock, halo bounds — once, at artifact-creation time) and, by
        default, stored — subsequent loads then skip both the compile
        *and* the verification, which the content hash makes sound.
        """
        cached = self.load(nest, h, mapping_dim)
        if cached is not None:
            return cached, "hit"
        prog = TiledProgram(nest, h, mapping_dim, verify=verify)
        if store_on_miss:
            self.store(prog, mapping_dim)
        return prog, "miss"


def cache_from_env(default_root: Optional[str] = None,
                   env_var: str = "REPRO_CACHE_DIR",
                   ) -> Optional[ArtifactCache]:
    """Build a cache from ``$REPRO_CACHE_DIR`` or an explicit root."""
    root: Optional[Any] = default_root or os.environ.get(env_var)
    if not root:
        return None
    return ArtifactCache(str(root))
