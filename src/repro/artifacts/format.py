"""Versioned on-disk format for compiled :class:`TiledProgram` state.

An artifact snapshots everything the compile pipeline *derives* from
``(nest, H, mapping_dim)``.  Which products those are, how each is
built, and how each is stored is the business of the stage table
(:mod:`repro.stages`; ``docs/ARTIFACTS.md`` lists it): this module
walks that table and names no stage.  Loading parks the stored forms on
a freshly shelled :class:`TiledProgram` (via
:meth:`TiledProgram.from_compiled_state`), so none of the expensive
pipeline stages — the legality proof, the Fourier-Motzkin tile
enumeration, the lattice sweeps, the schedule replays — re-run; each
stage is decoded by its first use.

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
from typing import Any, Dict, Optional

from repro import stages
from repro.artifacts.hashing import FORMAT_VERSION, content_key
from repro.linalg.ratmat import RatMat
from repro.loops.kexpr import kernel_fingerprint
from repro.loops.nest import LoopNest
from repro.runtime.executor import TiledProgram
from repro.tiling.transform import TilingTransformation

MAGIC = b"REPROART\x01\n"


class ArtifactError(ValueError):
    """A corrupt, truncated, version-skewed or mismatched artifact."""


def snapshot_program(prog: TiledProgram,
                     mapping_dim: Optional[int] = None,
                     key: Optional[str] = None) -> Dict[str, Any]:
    """Serialize ``prog``'s derived state into an artifact payload.

    ``mapping_dim`` is the *requested* mapping dimension of the compile
    (part of the content key); the resolved dimension is stored in the
    payload so loading does not re-run the span-based resolution.
    Every persisted stage is forced first, so snapshotting a program
    that has been executed or certified simply reuses (and additionally
    captures) what exists.
    """
    tiling = prog.tiling
    ttis = tiling.ttis
    return {
        "format_version": FORMAT_VERSION,
        "key": key if key is not None
        else content_key(prog.nest, tiling.h, mapping_dim),
        "meta": {
            "nest": prog.nest.name,
            "n": prog.n,
            "mapping_dim_request": mapping_dim,
            "mapping_dim": prog.dist.m,
            "num_processors": prog.num_processors,
            "num_tiles": len(prog.dist.tiles),
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
        "stages": stages.snapshot(tiling, prog),
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
    expensive pipeline stages replaced by their stored forms.
    """
    check = payload["check"]
    meta = payload["meta"]
    stored = payload.get("stages")
    if not isinstance(stored, dict):
        raise ArtifactError("artifact has no stage section")

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
    stages.park(tiling, stored)

    prog = TiledProgram.from_compiled_state(
        nest, tiling, int(meta["mapping_dim"]))
    _check_equal("CC", check["cc"], prog.comm.cc)
    _check_equal("LDS offsets", check["offsets"], prog.comm.offsets)
    _check_equal("D^m", check["d_m"], prog.comm.d_m)
    stages.park(prog, stored)
    return prog


# -- file I/O -----------------------------------------------------------------


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so that no reader and no racing writer
    ever sees a partial file: a private ``mkstemp`` file in the target
    directory, fsync, then ``os.replace``.  Writers racing on one path
    each rename their own complete file; the last one wins."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_artifact(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` atomically (:func:`atomic_write`)."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = sha256(body).hexdigest().encode("ascii")
    atomic_write(path, b"".join((MAGIC, digest, b"\n", body)))


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
