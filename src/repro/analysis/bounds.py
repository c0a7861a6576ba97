"""Halo/bounds sanitizer: every LDS address stays in the rectangle.

Symbolically walks the TTIS lattice and proves that every address the
generated node program can form — computation writes ``map(j', t)``,
intra/inter-tile reads ``map(j' - d', t)``, and halo unpack slots
``map(j', t) - d^S_k v_kk / c_k`` — lands inside the allocated LDS
box ``shape_k = off_k + |t| v_kk / c_k`` (mapping dim) or
``off_k + v_kk / c_k`` (others), where ``off_k = ceil(max_l d'_kl /
c_k)`` and ``off_m = v_mm / c_m`` (paper §3.1-3.2, Figure 3).

Checks are vectorized over the full lattice (the geometric worst case;
boundary tiles touch subsets) at the extreme chain steps ``t = 0`` and
``t = |t| - 1`` — the address maps are monotone in ``t`` so the
extremes bound every step.  Additionally:

* ``HALO03`` — ``map``/``map⁻¹`` must round-trip on lattice points
  (exercises the HNF-coefficient phase reconstruction of Table 2);
* ``HALO04`` — halo aliasing: the slot where a received value is
  unpacked must be exactly the cell the consumer's read resolves to,
  for every receive-side tile dependence that could carry it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.analysis.races import _occupied_keys
from repro.distribution.data import LocalDataSpace

PASS = "bounds"
_EQ_OFF = "off_k = ceil(max_l d'_kl / c_k) for k != m, " \
    "off_m = v_mm / c_m (§3.2)"


def _map_cells(points: np.ndarray, t: int, c: np.ndarray, v: np.ndarray,
               off: np.ndarray, m: int) -> np.ndarray:
    """Vectorized mirror of :meth:`LocalDataSpace.map`."""
    cells = points // c + off
    cells[:, m] = (t * v[m] + points[:, m]) // c[m] + off[m]
    return cells


def _bounds_violations(cells: np.ndarray, shape: np.ndarray) -> np.ndarray:
    return np.any((cells < 0) | (cells >= shape), axis=1)


def _cells_in_box(pmin: np.ndarray, pmax: np.ndarray, t: int,
                  c: np.ndarray, v: np.ndarray, off: np.ndarray, m: int,
                  shape: np.ndarray, shift: np.ndarray) -> bool:
    """Exact O(n) containment check for a whole point set.

    Each cell coordinate ``map(p, t)_k`` depends only on ``p_k`` and is
    monotone in it (floor division by a positive stride), so the per-dim
    extremes of the mapped set are the images of the per-dim extremes of
    the points.  ``shift`` is subtracted from the cells (the halo-slot
    displacement; zero for plain writes/reads).
    """
    lo = _map_cells(pmin[None, :], t, c, v, off, m)[0] - shift
    hi = _map_cells(pmax[None, :], t, c, v, off, m)[0] - shift
    return bool(np.all(lo >= 0) and np.all(hi < shape))


def check_bounds(program, roundtrip_sample: int = 128) -> List[Diagnostic]:
    """All bounds findings for one compiled program."""
    comm, dist = program.comm, program.dist
    ttis = program.tiling.ttis
    n = program.n
    m = dist.m
    lat = ttis.lattice_points_np()
    c = np.array(ttis.c, dtype=np.int64)
    v = np.array(ttis.v, dtype=np.int64)
    rows = np.array(ttis.rows_per_dim, dtype=np.int64)
    off = np.array(comm.offsets, dtype=np.int64)
    deps = tuple(tuple(int(x) for x in d)
                 for d in program.nest.dependences)
    d_prime = sorted(set(ttis.transformed_dependences(deps)))
    cross = [ds for ds in comm.d_s if not comm.is_intra_processor(ds)]
    diags: List[Diagnostic] = []

    # Per-direction pack-region selections are t/length independent.
    region_pts = []
    for ds in cross:
        lbs = comm.pack_lower_bounds(ds)
        mask = np.ones(len(lat), dtype=bool)
        for k in range(n):
            if lbs[k] > 0:
                mask &= lat[:, k] >= lbs[k]
        if mask.any():
            region = lat[mask]
            region_pts.append((ds, region,
                               region.min(axis=0), region.max(axis=0)))

    lat_min = lat.min(axis=0)
    lat_max = lat.max(axis=0)
    zero = np.zeros(n, dtype=np.int64)

    # The address maps are monotone in t and the LDS box in the chain
    # length, so the extreme lengths bound every processor's chain.
    # Containment is decided from per-dim extremes (O(n) per case);
    # the full lattice is only rescanned to name an offending point.
    all_lengths = {dist.chain_length(pid) for pid in dist.processors}
    lengths = sorted({min(all_lengths), max(all_lengths)})
    for num_tiles in lengths:
        shape = off + rows
        shape = shape.copy()
        shape[m] = off[m] + num_tiles * rows[m]
        steps = sorted({0, num_tiles - 1})
        for t in steps:
            # computation writes
            if not _cells_in_box(lat_min, lat_max, t, c, v, off, m,
                                 shape, zero):
                cells = _map_cells(lat, t, c, v, off, m)
                bad = _bounds_violations(cells, shape)
                i = int(np.nonzero(bad)[0][0])
                diags.append(_escape(
                    "HALO01", "computation write",
                    tuple(int(x) for x in lat[i]),
                    tuple(int(x) for x in cells[i]),
                    tuple(int(x) for x in shape), t, num_tiles))
            # reads through each transformed dependence
            for dp in d_prime:
                dp_arr = np.array(dp, dtype=np.int64)
                if _cells_in_box(lat_min - dp_arr, lat_max - dp_arr, t,
                                 c, v, off, m, shape, zero):
                    continue
                src = lat - dp_arr
                cells = _map_cells(src, t, c, v, off, m)
                bad = _bounds_violations(cells, shape)
                i = int(np.nonzero(bad)[0][0])
                diags.append(_escape(
                    "HALO01", f"read through d'={dp}",
                    tuple(int(x) for x in lat[i]),
                    tuple(int(x) for x in cells[i]),
                    tuple(int(x) for x in shape), t, num_tiles))
                break       # one example per step is enough
            # halo unpack slots per crossing tile dependence
            for ds, region, rmin, rmax in region_pts:
                shift = np.array(ds, dtype=np.int64) * rows
                if _cells_in_box(rmin, rmax, t, c, v, off, m,
                                 shape, shift):
                    continue
                slots = _map_cells(region, t, c, v, off, m) - shift
                bad = _bounds_violations(slots, shape)
                if bad.any():
                    i = int(np.nonzero(bad)[0][0])
                    diags.append(Diagnostic(
                        code="HALO02", severity=ERROR, pass_name=PASS,
                        message=f"halo unpack slot "
                                f"{tuple(int(x) for x in slots[i])} for "
                                f"TTIS point "
                                f"{tuple(int(x) for x in region[i])} "
                                f"across d^S={tuple(ds)} at step {t} "
                                f"escapes the LDS box "
                                f"{tuple(int(x) for x in shape)}",
                        equation="slot = map(j', t) - d^S_k v_kk / c_k "
                                 "(RECEIVE); " + _EQ_OFF,
                        subject=(("ds", tuple(ds)), ("step", t),
                                 ("point", tuple(int(x) for x in region[i])),
                                 ("cell", tuple(int(x) for x in slots[i])),
                                 ("shape", tuple(int(x) for x in shape))),
                        suggestion="halo offsets too small for this "
                                   "dependence; recompute off_k",
                    ))
                    break
        if diags:
            break       # geometry is broken; deeper checks would repeat

    # map/map_inv round trip on an actual LocalDataSpace instance.
    diags += _check_roundtrip(program, lat, roundtrip_sample)
    # halo aliasing identity (geometry only, chain-length independent).
    diags += _check_halo_alias(program, lat, c, v, rows, off)
    return diags


def _escape(code: str, what: str, point, cell, shape, t: int,
            num_tiles: int) -> Diagnostic:
    return Diagnostic(
        code=code, severity=ERROR, pass_name=PASS,
        message=f"{what} at TTIS point {point}, chain step {t} "
                f"(chain length {num_tiles}) addresses LDS cell {cell} "
                f"outside the allocated box {shape}",
        equation=_EQ_OFF,
        subject=(("point", point), ("cell", cell), ("step", t),
                 ("shape", shape)),
        suggestion="LDS allocation and halo offsets disagree with the "
                   "address map; recompute off_k and the LDS shape",
    )


def _check_roundtrip(program, lat: np.ndarray,
                     sample: int) -> List[Diagnostic]:
    comm, dist = program.comm, program.dist
    num = max(dist.chain_length(pid) for pid in dist.processors)
    lds = LocalDataSpace(comm, num)
    stride = max(1, len(lat) // max(1, sample))
    diags: List[Diagnostic] = []
    for t in sorted({0, num - 1}):
        for i in range(0, len(lat), stride):
            j_prime = tuple(int(x) for x in lat[i])
            cell = lds.map(j_prime, t)
            try:
                back, t_back = lds.map_inv(cell)
            except ValueError as exc:
                diags.append(Diagnostic(
                    code="HALO03", severity=ERROR, pass_name=PASS,
                    message=f"map_inv(map({j_prime}, {t})) failed: {exc}",
                    equation="Table 2: loc⁻¹ reconstructs the stride "
                             "phase from the HNF coefficients",
                    subject=(("point", j_prime), ("step", t),
                             ("cell", cell)),
                    suggestion="HNF phase reconstruction out of sync "
                               "with map",
                ))
                break
            if back != j_prime or t_back != t:
                diags.append(Diagnostic(
                    code="HALO03", severity=ERROR, pass_name=PASS,
                    message=f"map/map⁻¹ round trip broken: ({j_prime}, "
                            f"{t}) -> cell {cell} -> ({back}, {t_back})",
                    equation="Table 2: loc⁻¹ ∘ loc = id on computation "
                             "cells",
                    subject=(("point", j_prime), ("step", t),
                             ("cell", cell)),
                    suggestion="map and map_inv disagree; check strides "
                               "c_k and offsets",
                ))
                break
    return diags


def _check_halo_alias(program, lat: np.ndarray, c: np.ndarray,
                      v: np.ndarray, rows: np.ndarray,
                      off: np.ndarray) -> List[Diagnostic]:
    """HALO04: unpack slots alias exactly the consumer's read cells.

    For a read at TTIS point ``j''`` through transformed dependence
    ``d'`` whose source falls in tile displacement ``-d^S`` (producer
    side ``d^S >= 0``), the consumer resolves ``map(j'' - d', t)``.
    The value arrived in the message from the producer tile and was
    unpacked — at the first valid successor, across some ``d^S_0`` with
    the same projection ``d^m`` — at slot ``map(j'_src, t_first) -
    d^S_0 v/c`` with ``j'_src = j'' - d' + V d^S`` and ``t_first =
    t - d^S_m + d^S_0m``.  These must coincide for every candidate
    ``d^S_0``, otherwise received data is read from the wrong cell.
    """
    comm, dist = program.comm, program.dist
    ttis = program.tiling.ttis
    n = program.n
    m = dist.m
    deps = tuple(tuple(int(x) for x in d)
                 for d in program.nest.dependences)
    d_prime = ttis.transformed_dependences(deps)
    t0 = 2      # generous interior step; t_first stays >= 0
    diags: List[Diagnostic] = []
    lat_min = lat.min(axis=0)
    lat_max = lat.max(axis=0)
    # int32 for the displacement classification: coordinates are tiny
    # and the floor divisions dominate; see check_point_coverage.
    lat32 = lat.astype(np.int32)
    v32 = v.astype(np.int32)
    for d, dp in zip(deps, d_prime):
        dp_arr = np.array(dp, dtype=np.int64)
        # O(1) displacement range from per-dim lattice extremes.
        if np.min((lat_min - dp_arr) // v) < -4 or \
                np.max((lat_max - dp_arr) // v) > 4:
            continue                # LEG02 territory, reported there
        src = lat - dp_arr
        # -d^S per point (consumer view), grouped by displacement class
        # in one vectorized pass.
        disp = (lat32 - dp_arr.astype(np.int32)) // v32
        mult = 9 ** np.arange(n - 1, -1, -1, dtype=np.int32)
        keys = (disp + 4) @ mult
        zero_key = int(sum(4 * 9 ** k for k in range(n)))
        for key in _occupied_keys(keys, n):
            if int(key) == zero_key:
                continue
            rem, t_row = int(key), []
            for _ in range(n):
                t_row.append(rem % 9 - 4)
                rem //= 9
            t_row = tuple(reversed(t_row))
            ds = tuple(-x for x in t_row)     # producer-side displacement
            dm = comm.project(ds)
            if not any(dm):
                continue
            candidates = comm.ds_of_dm(dm)
            if ds not in candidates:
                continue            # RACE01 territory, reported there
            sel = np.nonzero(keys == key)[0]
            read_cells = _map_cells(src[sel], t0, c, v, off, m)
            j_src = src[sel] + np.array(ds, dtype=np.int64) * v
            for ds0 in candidates:
                t_first = t0 - ds[m] + ds0[m]
                slots = _map_cells(j_src, t_first, c, v, off, m) \
                    - np.array(ds0, dtype=np.int64) * rows
                mismatch = np.any(read_cells != slots, axis=1)
                if mismatch.any():
                    i = int(np.nonzero(mismatch)[0][0])
                    diags.append(Diagnostic(
                        code="HALO04", severity=ERROR, pass_name=PASS,
                        message=f"halo aliasing broken for dependence "
                                f"{d} across d^S={ds} (unpacked via "
                                f"d^S_0={tuple(ds0)}): read resolves to "
                                f"{tuple(int(x) for x in read_cells[i])} "
                                f"but the value was unpacked at "
                                f"{tuple(int(x) for x in slots[i])}",
                        equation="map(j''-d', t) = map(j''-d'+V d^S, "
                                 "t-d^S_m+d^S_0m) - d^S_0 v/c "
                                 "(RECEIVE aliasing)",
                        subject=(("dep", d), ("ds", ds),
                                 ("ds0", tuple(ds0)),
                                 ("point", tuple(int(x)
                                                 for x in lat[sel][i]))),
                        suggestion="halo_slot shift and the read address "
                                   "map diverged; check v_kk / c_k "
                                   "condensation",
                    ))
                    break
    return diags
