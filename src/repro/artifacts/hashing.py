"""Content addressing of compiled programs.

An artifact is keyed by a SHA-256 over the *canonical semantic inputs*
of the compile pipeline: the loop nest (domain, access structure,
dependence matrix), the tiling matrix ``H`` as exact rationals, the
requested mapping dimension, and the on-disk format version.  Every
derived quantity stored in an artifact is a deterministic function of
exactly these inputs, so equal keys imply bitwise-equal programs.

Deliberately *not* hashed:

* statement ``expr`` bodies — the compiled
  geometry (tiles, communication sets, LDS layout, schedules) never
  depends on the arithmetic inside the loop body, and loaded programs
  always take their kernels from the caller's nest.  Anything that
  *does* depend on kernel content must carry its own hash on top of
  the content key: artifact payloads record a
  ``kernel_fingerprint`` in their metadata (checked at load, so a
  geometry-identical nest with edited kernels can never be served a
  stale snapshot), and the native backend keys its shared objects by
  (content key, emitted C source hash, compiler fingerprint) — see
  ``repro.native``;
* the nest's display ``name`` — two differently-named but structurally
  identical nests compile to the same program.

The hash is computed over a canonical JSON rendering (sorted keys, no
whitespace), so it is stable across processes, ``PYTHONHASHSEED``
values and platforms.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.loops.reference import ArrayRef

#: Version of the on-disk artifact format.  Bump on ANY change to the
#: payload schema or to the semantics of a stored field; old artifacts
#: are then treated as misses and transparently recompiled.
#: v2: payload meta gained the mandatory ``kernel_fingerprint`` field.
#: v3: the pickled rank plans are ``repro.runtime.rankstep`` classes.
#: v4: the payload is ``meta``/``check``/``stages`` (the stage table).
FORMAT_VERSION = 4


def _frac(x: Fraction) -> List[int]:
    return [x.numerator, x.denominator]


def _ratmat(m: RatMat) -> List[List[List[int]]]:
    return [[_frac(x) for x in row] for row in m.rows()]


def _ref(r: ArrayRef) -> Dict[str, Any]:
    return {
        "array": r.array,
        "offset": list(r.offset),
        "matrix": None if r.matrix is None else _ratmat(r.matrix),
    }


def canonical_nest(nest: LoopNest) -> Dict[str, Any]:
    """The nest as a canonical, JSON-serializable structure.

    The domain is normalized (primitive integer coefficients, trivial
    constraints dropped, duplicates merged) and its constraints sorted,
    so structurally equal iteration spaces hash equally regardless of
    how their half-spaces were spelled.  Statement order is preserved —
    it is semantically meaningful.
    """
    constraints = sorted(
        ([_frac(a) for a in c.a], _frac(c.b))
        for c in nest.domain.normalized().constraints
    )
    return {
        "depth": nest.depth,
        "domain": [[a, b] for a, b in constraints],
        "statements": [
            {"write": _ref(s.write), "reads": [_ref(r) for r in s.reads]}
            for s in nest.statements
        ],
        "dependences": [list(d) for d in nest.dependences],
    }


def content_key(nest: LoopNest, h: RatMat,
                mapping_dim: Optional[int] = None) -> str:
    """SHA-256 hex key of one (nest, H, mapping_dim) compile request."""
    doc = {
        "format_version": FORMAT_VERSION,
        "nest": canonical_nest(nest),
        "h": _ratmat(h),
        "mapping_dim": mapping_dim,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
