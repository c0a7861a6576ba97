"""The tiling transformation: ``H``, ``P = H^{-1}``, tile space, ``D^S``.

Definitions follow paper §2.2:

* tiles are the preimages of points under ``j^S = floor(H j)``;
* the Tile Iteration Space (TIS) is the tile at the origin;
* the Tile Space ``J^S`` is the set of nonempty tiles of ``J^n``;
* the tile dependence matrix ``D^S = { floor(H (j + d)) : d in D,
  j in TIS }`` captures inter-tile dependencies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.linalg.ratmat import RatMat
from repro.polyhedra.fourier_motzkin import (
    LoopBound,
    loop_bounds,
    project_onto_prefix,
)
from repro.polyhedra.halfspace import Halfspace, Polyhedron
from repro.polyhedra.integer_points import int_constraints, sweep
from repro.stages import (
    LazyEntries,
    Stage,
    StageHolder,
    StageMemo,
    copied,
    on_demand,
    register,
)
from repro.tiling.ttis import TTIS

Tile = Tuple[int, ...]


#: The most booleans one batch of partial-candidate masks spans (``batch
#: x lattice points``) while the tile space is enumerated.  Kept under
#: the allocator's 128 KiB mmap threshold: with 1 MiB batches, compiling
#: the benchmark's three ADI programs in one process left it 4-9 MiB
#: more resident than one candidate per batch, for the same kept masks.
MASK_BATCH = 1 << 16


class TilingTransformation(StageHolder):
    """A parallelepiped tiling of an iteration space.

    ``h`` is the tiling matrix (rows are the hyperplane normals, scaled
    so ``1/row`` magnitudes give tile extents); ``p = h^{-1}`` must be an
    integer matrix — its columns are the tile's side vectors.  What it
    derives lazily is held in ``self.stages`` (table: end of module).
    """

    stage_owner = "tiling"

    def __init__(self, h: RatMat, domain: Polyhedron) -> None:
        if h.nrows != domain.dim:
            raise ValueError("tiling matrix dimension must match the domain")
        self.h = h
        self.p = h.inverse()
        if not self.p.is_integer():
            raise ValueError(
                "P = H^{-1} must be an integer matrix (tile side vectors "
                f"must be integral); got {self.p!r}"
            )
        self.domain = domain
        self.n = h.nrows
        self.ttis = TTIS(h)
        self._p_int = np.array(self.p.to_int_rows(), dtype=np.int64)
        self._amat, self._bvec = int_constraints(domain)
        self._shift = (self._amat @ self._p_int).T      # j^S -> A P j^S
        self.stages = StageMemo()

    # -- basic maps --------------------------------------------------------------

    def tile_of(self, j: Sequence[int]) -> Tuple[int, ...]:
        """``j^S = floor(H j)`` (exact)."""
        img = self.h.matvec(j)
        return tuple(math.floor(x) for x in img)

    def tile_origin(self, j_s: Sequence[int]) -> Tuple[int, ...]:
        """``P j^S`` — the anchor point of tile ``j^S`` in ``J^n``
        (``P`` is integral, so the int64 product is the exact one)."""
        origin = self._p_int @ np.asarray(j_s, dtype=np.int64)
        return tuple(origin.tolist())

    def tile_volume(self) -> int:
        return self.ttis.tile_volume

    # -- tile contents --------------------------------------------------------------

    def _tis_constraints(
            self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A @ p^T`` over the base TIS points, with its per-constraint
        minimum and maximum.

        The extremes let :meth:`classify_tile` decide full/empty/partial
        from the tile origin alone — O(constraints), not O(tile volume):
        only the O(surface) boundary tiles ever need a point-level mask,
        which is then an add-and-compare of the values against a
        translated right-hand side, no per-tile matmul.
        """
        vals = self._amat @ self.ttis.tis_points_np().T
        return vals, vals.min(axis=1), vals.max(axis=1)

    def classify_tile(self, j_s: Sequence[int]) -> str:
        """``"full"`` (entirely inside the domain), ``"empty"``, or
        ``"partial"`` (needs an exact mask).  Cached per tile: the
        schedule replay and the static verifier re-ask for the same
        tiles thousands of times."""
        key = tuple(int(x) for x in j_s)
        classes: Dict[Tile, str] = self.stage("classes")
        cls = classes.get(key)
        if cls is None:
            full, partial = self._verdicts(np.array([key], dtype=np.int64))
            cls = classes[key] = ("full" if full[0] else
                                  "partial" if partial[0] else "empty")
        return cls

    def _verdicts(self, tiles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """For each row of the ``(M, n)`` tile array: is the tile full,
        and is it partial?  ``A P j^S`` against the TIS constraint
        extremes: full when every constraint holds at its maximum, empty
        when one fails at its minimum, partial otherwise."""
        _vals, lo, hi = self.stage("tis_constraints")
        base = tiles @ self._shift
        full = np.all(base + hi <= self._bvec, axis=1)
        return full, ~full & np.all(base + lo <= self._bvec, axis=1)

    def _masks(self, tiles: np.ndarray) -> np.ndarray:
        """``(M, S)`` booleans: row ``i`` is :meth:`tile_mask` of tile
        ``tiles[i]``, the TIS values against the translated right-hand
        side ``b - A P j^S``."""
        vals = self.stage("tis_constraints")[0]
        rhs = self._bvec - tiles @ self._shift
        inside = np.ones((len(tiles), vals.shape[1]), dtype=bool)
        for row, bound in zip(vals, rhs.T):
            inside &= row <= bound[:, None]
        return inside

    def tile_mask(self, j_s: Sequence[int]) -> np.ndarray:
        """Boolean mask over ``ttis.lattice_points_np()`` rows marking the
        lattice points whose global images fall inside the domain.

        The mask aligns TTIS-lattice-indexed data (communication regions,
        computed-point sets) across modules without re-deriving point
        lists.  Masks are cached per tile; a tile that already is a key
        (every pack and unpack asks) skips the key normalization.
        """
        masks: Dict[Tile, np.ndarray] = self.stage("masks")
        try:
            return masks[j_s]
        except (KeyError, TypeError):
            key = tuple(int(x) for x in j_s)
        try:
            mask = masks[key]
        except KeyError:
            mask = masks[key] = self._masks(
                np.array([key], dtype=np.int64))[0]
        return mask

    def tile_points_np(self, j_s: Sequence[int]) -> np.ndarray:
        """Iteration points of tile ``j^S`` clipped to the domain.

        Vectorized: the tile at the origin (TIS) is precomputed once;
        tile contents are its translate by ``P j^S`` filtered through the
        domain's integer constraint system.
        """
        base = self.ttis.tis_points_np()
        origin = self._p_int @ np.asarray(j_s, dtype=np.int64)
        pts = base + origin
        mask = np.all(self._amat @ pts.T <= self._bvec[:, None], axis=0)
        return pts[mask]

    def tile_point_count(self, j_s: Sequence[int]) -> int:
        """Number of domain points in tile ``j^S`` (0 for empty tiles).
        Kept per tile: a partial tile pays one mask reduction ever (the
        walk, the schedule model and the rank-volume pass all ask
        repeatedly)."""
        points: Dict[Tile, int] = self.stage("points")
        try:
            return points[j_s]
        except (KeyError, TypeError):
            key = tuple(int(x) for x in j_s)
        cls = self.classify_tile(key)
        count = points[key] = (
            self.ttis.tile_volume if cls == "full" else 0 if cls == "empty"
            else int(self.tile_mask(key).sum()))
        return count

    def tile_is_full(self, j_s: Sequence[int]) -> bool:
        """True when no domain boundary cuts through tile ``j^S``."""
        return self.tile_point_count(j_s) == self.ttis.tile_volume

    # -- tile space --------------------------------------------------------------

    def joint_polyhedron(self) -> Polyhedron:
        """Constraints over ``(j^S, j)`` tying tiles to their points.

        ``floor(H j) = j^S``  <=>  ``0 <= H' j - V j^S <= V 1 - 1``
        (componentwise, integer form), intersected with ``j in J^n``.
        Variables are ordered ``j^S`` first so Fourier-Motzkin projection
        onto the prefix yields the tile-space loop bounds of ref [7].
        """
        n = self.n
        hp = self.ttis.h_prime
        v = self.ttis.v
        cs: List[Halfspace] = []
        # Domain constraints on j (padded with zeros on the j^S block).
        for c in self.domain.constraints:
            cs.append(Halfspace(tuple([Fraction(0)] * n) + c.a, c.b))
        for k in range(n):
            hk = hp.row(k)
            ek = [Fraction(0)] * n
            ek[k] = Fraction(v[k])
            # v_k j^S_k - (H' j)_k <= 0
            cs.append(Halfspace(tuple(ek) + tuple(-x for x in hk),
                                Fraction(0)))
            # (H' j)_k - v_k j^S_k <= v_k - 1
            cs.append(Halfspace(tuple(-x for x in ek) + tuple(hk),
                                Fraction(v[k] - 1)))
        return Polyhedron(cs)

    def tile_space_bounds(self) -> List[LoopBound]:
        """Loop bounds ``l^S_k .. u^S_k`` for the ``n`` tile loops."""
        joint = self.joint_polyhedron()
        proj = project_onto_prefix(joint, self.n)
        return loop_bounds(proj)

    def enumerate_tiles(self) -> List[Tuple[int, ...]]:
        """All nonempty tiles, lexicographically sorted (the ``tiles``
        stage)."""
        tiles: List[Tuple[int, ...]] = self.stage("tiles")
        return tiles

    def _enumerate_tiles(self) -> List[Tuple[int, ...]]:
        """Fourier-Motzkin bounds give a superset of candidates (the
        rational shadow); each candidate is validated by an exact
        emptiness check, which is the paper's boundary correction.

        Exactness: the candidates are the integer points of the tile
        space's loop bounds, each level's ``max(ceil) .. min(floor)``
        evaluated as integer floor divisions of the scaled bound rows
        (:meth:`LoopBound.integer_bound`) — the same set, in the same
        lexicographic order, that :meth:`LoopBound.evaluate` walks.
        Every candidate is then filtered by :meth:`_verdicts`, the test
        :meth:`classify_tile` runs, and a partial one by :meth:`_masks`,
        the one :meth:`tile_mask` runs, both in int64 where every value
        is an exact integer.  The verdicts of the kept tiles are
        recorded in the ``classes`` and ``masks`` stages (each mask its
        own array); a rejected candidate leaves nothing behind.
        """
        vals = self.stage("tis_constraints")[0]
        batch = max(1, MASK_BATCH // max(1, vals.shape[1]))
        levels = [b.integer_bound() for b in self.tile_space_bounds()]
        tiles: List[Tile] = []
        full_flags: List[bool] = []
        masks: Dict[Tile, np.ndarray] = {}
        for cand in sweep(levels):
            full, partial = self._verdicts(cand)
            keep = full.copy()
            partial = np.flatnonzero(partial)
            for at in range(0, len(partial), batch):
                rows = partial[at:at + batch]
                inside = self._masks(cand[rows])
                hit = inside.any(axis=1)
                keep[rows[hit]] = True
                for i in np.flatnonzero(hit).tolist():
                    masks[tuple(cand[rows[i]].tolist())] = inside[i].copy()
            tiles += map(tuple, cand[keep].tolist())
            full_flags += full[keep].tolist()
        self.stage("classes").update(
            (t, "full" if f else "partial")
            for t, f in zip(tiles, full_flags))
        self.stage("masks").update(masks)
        return tiles

    # -- tile dependencies ------------------------------------------------------------

    def tile_dependences(
        self, deps: Sequence[Sequence[int]]
    ) -> Tuple[Tuple[int, ...], ...]:
        """``D^S``: distinct nonzero values of ``floor(H (j + d)) - floor(H j)``
        over ``j`` in the TIS.

        Computed on the TTIS lattice: for a tile-origin point with TTIS
        image ``j'``, the tile displacement of ``j + d`` is
        ``floor((j' + H' d) / v)`` componentwise.
        """
        key = tuple(tuple(int(x) for x in d) for d in deps)
        known: Dict[Tuple[Tile, ...], Tuple[Tile, ...]] = \
            self.stage("tile_deps")
        if key in known:
            return known[key]
        lat = self.ttis.lattice_points_np()
        v = np.array(self.ttis.v, dtype=np.int64)
        found = set()
        for d in key:
            dp = np.array(self.ttis.to_ttis(d), dtype=np.int64)
            shifted = (lat + dp) // v  # floor division, elementwise
            for row in np.unique(shifted, axis=0):
                t = tuple(int(x) for x in row)
                if any(t):
                    found.add(t)
        result = known[key] = tuple(sorted(found))
        return result

    def __repr__(self) -> str:
        return f"TilingTransformation(n={self.n}, volume={self.tile_volume()})"


# -- the tiling rows of the stage table ------------------------------------------


def _partial_tiles(tiling: TilingTransformation) -> List[Tile]:
    return [t for t in tiling.enumerate_tiles()
            if tiling.classify_tile(t) == "partial"]


def _encode_classes(tiling: TilingTransformation,
                    _classes: Dict[Tile, str]) -> np.ndarray:
    """1 = partial, 0 = full, aligned with the enumerated tiles (the
    verdicts on rejected candidates are not kept)."""
    return np.array([tiling.classify_tile(t) == "partial"
                     for t in tiling.enumerate_tiles()], dtype=np.uint8)


def _decode_classes(tiling: TilingTransformation,
                    stored: np.ndarray) -> Dict[Tile, str]:
    return {t: "partial" if c else "full"
            for t, c in zip(tiling.enumerate_tiles(), stored.tolist())}


def _encode_masks(tiling: TilingTransformation,
                  _masks: Dict[Tile, np.ndarray]) -> Tuple[np.ndarray, int]:
    """Bit-packed rows, one per partial tile in enumeration order."""
    nlat = len(tiling.ttis.lattice_points_np())
    rows = [tiling.tile_mask(t) for t in _partial_tiles(tiling)]
    return np.packbits(np.asarray(rows, dtype=np.uint8).reshape(
        len(rows), nlat), axis=1), nlat


def _decode_masks(tiling: TilingTransformation,
                  stored: Tuple[np.ndarray, int]) -> Dict[Tile, np.ndarray]:
    """Masks dominate an artifact's size, so the rows stay packed and
    each is unpacked at most once, by the first ``tile_mask`` of its
    tile."""
    packed, nlat = stored

    def unpack(row: int) -> np.ndarray:
        return np.unpackbits(packed[row], count=nlat).view(np.bool_)

    return LazyEntries(
        {t: i for i, t in enumerate(_partial_tiles(tiling))}, unpack)


def _encode_points(tiling: TilingTransformation,
                   _points: Dict[Tile, int]) -> np.ndarray:
    return np.array([tiling.tile_point_count(t)
                     for t in tiling.enumerate_tiles()], dtype=np.int64)


def _decode_points(tiling: TilingTransformation,
                   stored: np.ndarray) -> Dict[Tile, int]:
    return dict(zip(tiling.enumerate_tiles(), stored.tolist()))


register(
    Stage("tis_constraints", "tiling",
          TilingTransformation._tis_constraints),
    Stage("classes", "tiling", on_demand, persisted=True,
          encode=_encode_classes, decode=_decode_classes),
    Stage("masks", "tiling", on_demand, persisted=True,
          encode=_encode_masks, decode=_decode_masks),
    Stage("tiles", "tiling", TilingTransformation._enumerate_tiles,
          persisted=True),
    Stage("tile_deps", "tiling", on_demand, persisted=True,
          encode=copied, decode=copied),
    Stage("points", "tiling", on_demand, persisted=True,
          encode=_encode_points, decode=_decode_points),
)
