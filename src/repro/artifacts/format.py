"""Versioned on-disk format for compiled :class:`TiledProgram` state.

An artifact snapshots everything the compile pipeline *derives* from
``(nest, H, mapping_dim)``: the enumerated tile space and per-tile
classification, partial-tile masks, per-tile point counts, the tile
dependence sets ``D^S``, the frozen lexicographic payload order, the
dense engine's wavefront vector and full-tile level batches, the
prewarmed communication region counts, the per-rank schedule plans,
any overlap (boundary/interior) splits, and any HB/cost certificates
computed before the snapshot.  Loading seeds these straight into the
caches of a freshly shelled :class:`TiledProgram` (via
:meth:`TiledProgram.from_compiled_state`), so none of the expensive
pipeline stages — the legality proof, the Fourier-Motzkin tile
enumeration, the lattice sweeps, the schedule replays — re-run.

Every stored value is a deterministic function of the content key's
inputs, so a loaded program is *bitwise-equivalent* to a fresh compile:
identical ``simulate()`` RunStats and identical ``execute_dense()``
fields at tol=0.0.  Cheap derived invariants (TTIS box, strides, HNF
diagonal, CC vector, LDS offsets) are re-derived at load time and
compared against the stored copies — a drifted compiler rejects the
artifact instead of trusting stale geometry.

File layout (single file, written atomically via rename)::

    MAGIC (10 bytes)  "REPROART" 0x01 '\\n'
    sha256 hex digest of the body (64 bytes) + '\\n'
    body: pickle of the payload dict

The digest catches truncation and bit corruption; any failure to
decode, any version or key mismatch, raises :class:`ArtifactError`,
which the cache layer translates into a clean recompile.  Artifacts are
a *trusted local cache* (they embed pickle); do not load artifacts from
untrusted sources.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from hashlib import sha256
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.artifacts.hashing import FORMAT_VERSION, content_key
from repro.linalg.ratmat import RatMat
from repro.loops.kexpr import kernel_fingerprint
from repro.loops.nest import LoopNest
from repro.runtime.executor import TiledProgram
from repro.tiling.transform import TilingTransformation

MAGIC = b"REPROART\x01\n"

Tile = Tuple[int, ...]


class ArtifactError(ValueError):
    """A corrupt, truncated, version-skewed or mismatched artifact."""


class _LazyMaskCache(dict):
    """Tile-mask cache backed by bit-packed rows from an artifact.

    Masks dominate an artifact's byte size, so they stay packed on load
    and each tile's row is unpacked at most once, on first use — the
    hot path (``dict.get``) only pays the unpack for tiles an execution
    actually touches.  Entries for new tiles are stored normally.
    """

    def __init__(self, rows: Dict[Tile, int], packed: np.ndarray,
                 nbits: int):
        super().__init__()
        self._rows = rows
        self._packed = packed
        self._nbits = nbits

    def get(self, key, default=None):
        val = dict.get(self, key)
        if val is None:
            row = self._rows.get(key)
            if row is None:
                return default
            val = np.unpackbits(
                self._packed[row], count=self._nbits).view(np.bool_)
            self[key] = val
        return val


def _precompile(prog: TiledProgram) -> None:
    """Drive every deterministic compile-time stage an artifact stores.

    Idempotent: each stage is already cached on the program, so
    snapshotting a program that has been executed or certified simply
    reuses (and additionally captures) what exists.
    """
    from repro.runtime.rankstep import build_rank_plans

    prog.dense_schedule_vector()
    prog.dense_lex_order()
    prog.dense_level_batches(prog.dist.tiles[0])
    prog.prewarm_region_counts()
    for tile in prog.dist.tiles:
        prog.tile_point_count(tile)
        if prog.tiling.classify_tile(tile) == "partial":
            prog.tiling.tile_mask(tile)
    build_rank_plans(prog)


def _deps_key(nest: LoopNest) -> Tuple[Tile, ...]:
    return tuple(tuple(int(x) for x in d) for d in nest.dependences)


def snapshot_program(prog: TiledProgram,
                     mapping_dim: Optional[int] = None,
                     key: Optional[str] = None) -> Dict[str, Any]:
    """Serialize ``prog``'s derived state into an artifact payload.

    ``mapping_dim`` is the *requested* mapping dimension of the compile
    (part of the content key); the resolved dimension is stored in the
    payload so loading does not re-run the span-based resolution.
    """
    from repro.analysis.certstate import dump_certificates
    from repro.runtime.rankstep import build_rank_plans

    _precompile(prog)
    tiling = prog.tiling
    ttis = tiling.ttis
    tiles = prog.dist.tiles
    n = prog.n

    classes = np.zeros(len(tiles), dtype=np.uint8)
    masks: List[np.ndarray] = []
    # Partial-tile mask rows are stored in tile-enumeration order, so
    # the row index is recoverable from `classes` alone at load time.
    for i, t in enumerate(tiles):
        if tiling.classify_tile(t) == "partial":
            classes[i] = 1
            masks.append(tiling.tile_mask(t))
    nlat = len(ttis.lattice_points_np())
    if masks:
        packed = np.packbits(
            np.asarray(masks, dtype=np.uint8), axis=1)
    else:
        packed = np.zeros((0, (nlat + 7) // 8), dtype=np.uint8)

    return {
        "format_version": FORMAT_VERSION,
        "key": key if key is not None
        else content_key(prog.nest, tiling.h, mapping_dim),
        "meta": {
            "nest": prog.nest.name,
            "n": n,
            "mapping_dim_request": mapping_dim,
            "mapping_dim": prog.dist.m,
            "num_processors": prog.num_processors,
            "num_tiles": len(tiles),
            # Kernel content is deliberately outside the content key
            # (geometry never depends on it), so it is pinned here
            # instead: load-time drift in this fingerprint rejects the
            # artifact, and the native backend folds it into its own
            # ``.so`` key — an edited app kernel can never be served a
            # stale snapshot or shared object.
            "kernel_fingerprint": kernel_fingerprint(prog.nest),
        },
        # Cheap re-derivable invariants, compared at load time.
        "check": {
            "v": ttis.v,
            "c": ttis.c,
            "hnf": ttis.hnf.to_int_rows(),
            "cc": prog.comm.cc,
            "offsets": prog.comm.offsets,
            "d_m": prog.comm.d_m,
        },
        "geometry": {
            "tiles": np.asarray(tiles, dtype=np.int64),
            "classes": classes,
            "points": np.asarray(
                [prog.tile_point_count(t) for t in tiles],
                dtype=np.int64),
            "masks_packed": packed,
            "nlat": nlat,
            "d_s": prog.comm.d_s,
            "lex_order": prog.dense_lex_order(),
            "dense_s": prog.dense_schedule_vector(),
            "dense_batches": list(prog._dense_full_batches or []),
            "region_full": dict(prog._full_region_cache),
            "region_counts": dict(prog._region_cache),
        },
        "plans": {
            # Nested pickle: the plans are a large forest of small
            # dataclasses, and decoding them dominates cache-hit load
            # latency — so they ship as an opaque blob that
            # build_rank_plans() decodes lazily on first use.
            "rank_plans_blob": pickle.dumps(
                build_rank_plans(prog), protocol=pickle.HIGHEST_PROTOCOL),
            "overlap": dict(prog._overlap_cache),
        },
        "certificates": dump_certificates(prog),
    }


def _check_equal(name: str, stored: Any, derived: Any) -> None:
    if stored != derived:
        raise ArtifactError(
            f"artifact geometry drift: stored {name} = {stored!r} but "
            f"this compiler derives {derived!r}; refusing to load")


def restore_program(nest: LoopNest, h: RatMat,
                    payload: Dict[str, Any]) -> TiledProgram:
    """Reconstruct a :class:`TiledProgram` from an artifact payload.

    The returned program is bitwise-equivalent to a fresh
    ``TiledProgram(nest, h, mapping_dim)`` compile — same ``simulate()``
    RunStats, same ``execute_dense()`` fields at tol=0.0 — with the
    expensive pipeline stages replaced by cache seeding.
    """
    from repro.analysis.certstate import load_certificates

    geo = payload["geometry"]
    check = payload["check"]
    meta = payload["meta"]

    stored_kh = meta.get("kernel_fingerprint")
    live_kh = kernel_fingerprint(nest)
    if stored_kh != live_kh:
        raise ArtifactError(
            f"artifact kernel drift: stored kernel fingerprint "
            f"{stored_kh!r} != this nest's {live_kh!r} (geometry-equal "
            f"nest with edited kernels); refusing to load")

    tiling = TilingTransformation(h, nest.domain)
    ttis = tiling.ttis
    _check_equal("V", check["v"], ttis.v)
    _check_equal("strides c", check["c"], ttis.c)
    _check_equal("HNF", check["hnf"], ttis.hnf.to_int_rows())

    tiles: List[Tile] = list(map(tuple, geo["tiles"].tolist()))
    classes = geo["classes"].tolist()
    tiling._tiles_cache = tiles
    tiling._classify_cache = {
        t: ("partial" if c else "full")
        for t, c in zip(tiles, classes)
    }
    partial_rows = {t: i for i, t in
                    enumerate(t for t, c in zip(tiles, classes) if c)}
    tiling._mask_cache = _LazyMaskCache(
        partial_rows, geo["masks_packed"], int(geo["nlat"]))
    tiling._dS_cache[_deps_key(nest)] = geo["d_s"]

    prog = TiledProgram.from_compiled_state(
        nest, tiling, int(meta["mapping_dim"]))
    _check_equal("CC", check["cc"], prog.comm.cc)
    _check_equal("LDS offsets", check["offsets"], prog.comm.offsets)
    _check_equal("D^m", check["d_m"], prog.comm.d_m)

    prog._points_cache = dict(zip(tiles, geo["points"].tolist()))
    prog._lex_order = geo["lex_order"]
    prog._dense_s = tuple(int(x) for x in geo["dense_s"])
    prog._dense_full_batches = list(geo["dense_batches"])
    prog._full_region_cache = dict(geo["region_full"])
    prog._region_cache = dict(geo["region_counts"])
    prog._region_prewarmed = True
    prog._rank_plans_blob = payload["plans"]["rank_plans_blob"]
    prog._overlap_cache = dict(payload["plans"]["overlap"])
    blob = payload.get("certificates")
    if blob:
        load_certificates(prog, blob)
    return prog


# -- file I/O -----------------------------------------------------------------


def write_artifact(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + rename).

    Concurrent writers racing on one path each write their own
    temporary file and the final ``os.replace`` is atomic, so readers
    only ever observe a complete artifact — never a torn write.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = sha256(body).hexdigest().encode("ascii")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(digest)
            fh.write(b"\n")
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_artifact(path: str,
                  expected_key: Optional[str] = None) -> Dict[str, Any]:
    """Read and validate an artifact file.

    Raises :class:`ArtifactError` on a missing/corrupt/truncated file,
    a checksum mismatch, a format-version skew, or (when
    ``expected_key`` is given) a content-key mismatch.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC))
            if head != MAGIC:
                raise ArtifactError(f"{path}: not a repro artifact")
            digest = fh.read(65)
            if len(digest) != 65 or digest[64:] != b"\n":
                raise ArtifactError(f"{path}: truncated header")
            body = fh.read()
    except OSError as exc:
        raise ArtifactError(f"{path}: {exc}") from exc
    if sha256(body).hexdigest().encode("ascii") != digest[:64]:
        raise ArtifactError(f"{path}: checksum mismatch (corrupt or "
                            "truncated artifact)")
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise ArtifactError(f"{path}: undecodable body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path}: unexpected payload type")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: format version {version} != {FORMAT_VERSION}")
    if expected_key is not None and payload.get("key") != expected_key:
        raise ArtifactError(
            f"{path}: content key mismatch ({payload.get('key')!r} != "
            f"{expected_key!r})")
    return payload
