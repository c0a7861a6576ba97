"""Race detector: every cross-processor dependence must be communicated.

Under the paper's linear schedule ``Pi = [1, ..., 1]`` and mapping
dimension ``m``, a value produced at iteration ``j'`` of tile ``j^S``
and consumed across tile dependence ``d^S`` with nonzero processor
projection ``d^m`` travels by message.  The pass re-derives, from first
principles (the nest's dependence vectors and floor arithmetic on the
TTIS lattice — *not* the ``CommunicationSpec`` under test), which
(point, dependence) pairs cross tiles, and proves each one is covered:

* the crossing class ``d^S`` must appear in ``D^S`` with its projection
  in ``D^m`` (else ``RACE01``);
* every crossing iteration must satisfy the communication-point
  criterion ``j'_k >= cc_k`` of the pack region, so the produced value
  is actually inside the message (else ``RACE02``);
* the tile dependence must be strictly positive under the schedule
  (``sum(d^S) >= 1``) so producer executes before consumer
  (else ``RACE03``);
* at tile granularity, the producing tile must issue the send and some
  tile at-or-before the consumer on the receiving processor must post
  the recv (else ``RACE01``);
* no two writers (two unpacked messages, or an unpacked message and the
  local computation) may touch the same LDS cell in an unordered way
  (else ``RACE04``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.runtime.rankstep import build_rank_plans

PASS = "races"
_EQ_CC = "communication points satisfy j'_k >= cc_k = v_kk - max_l d'_kl " \
    "(§3.2)"
_EQ_DS = "D^S = { floor(H(j+d)) - floor(H j) }, D^m its nonzero " \
    "projections (§2.2, §3.2)"
_EQ_PI = "the linear schedule Pi = [1,...,1] must be strictly positive " \
    "on every tile dependence (§2.4)"


def _encode(rows: np.ndarray) -> np.ndarray:
    """Pack small-integer displacement rows into scalar keys.

    Keys stay within ``rows.dtype`` (9^n < 2^31 for n <= 9), so int32
    inputs keep the whole pass in int32.
    """
    n = rows.shape[1]
    mult = 9 ** np.arange(n - 1, -1, -1, dtype=rows.dtype)
    return (rows + 4) @ mult               # components are in [-4, 4]


def _decode(key: int, n: int) -> Tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(int(key % 9) - 4)
        key //= 9
    return tuple(reversed(out))


def _occupied_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Distinct encoded keys, via a counting pass over the (tiny) key
    space — 9^n bins — instead of a sort-based ``np.unique``."""
    if n > 6:                       # bin table would dwarf the data
        return np.unique(keys)
    return np.nonzero(np.bincount(keys, minlength=9 ** n))[0]


def check_point_coverage(program) -> List[Diagnostic]:
    """Lattice-level checks: RACE01/RACE02/RACE03 per crossing class."""
    comm = program.comm
    ttis = program.tiling.ttis
    n = program.n
    m = program.dist.m
    lat = ttis.lattice_points_np()
    v = np.array(ttis.v, dtype=np.int64)
    deps = tuple(tuple(int(x) for x in d)
                 for d in program.nest.dependences)
    d_prime = ttis.transformed_dependences(deps)
    diags: List[Diagnostic] = []
    lat_min = lat.min(axis=0)
    lat_max = lat.max(axis=0)
    # The displacement classification runs in int32: coordinates are
    # tiny, and halving the word size roughly halves the cost of the
    # floor divisions that dominate this pass.
    lat32 = lat.astype(np.int32)
    v32 = v.astype(np.int32)
    for d, dp in zip(deps, d_prime):
        dp_arr = np.array(dp, dtype=np.int64)
        # Tile-displacement range per dim from the lattice extremes
        # (floor division is monotone per coordinate): a dependence
        # reaching beyond +-4 tiles is already a LEG02 error; don't let
        # the key encoding silently alias.
        if np.min((lat_min + dp_arr) // v) < -4 or \
                np.max((lat_max + dp_arr) // v) > 4:
            continue
        shifted = (lat32 + dp_arr.astype(np.int32)) // v32
        keys = _encode(shifted)
        for key in _occupied_keys(keys, n):
            ds = _decode(int(key), n)
            if not any(ds):
                continue                      # intra-tile, no schedule edge
            dm = comm.project(ds)
            positive = sum(ds) > 0
            if positive and not any(dm):
                continue                      # chain dependence, in order
            covered = positive and tuple(ds) in comm.ds_of_dm(dm)
            if covered:
                lbs = comm.pack_lower_bounds(ds)
                if not any(lbs[k] > 0 for k in range(n) if k != m):
                    continue                  # nothing left to check
            sel = keys == key
            if not positive:
                i = int(np.argmax(sel))
                example = tuple(int(x) for x in lat[i])
                diags.append(Diagnostic(
                    code="RACE03", severity=ERROR, pass_name=PASS,
                    message=f"tile dependence {ds} (from dependence {d}) "
                            f"is not strictly positive under "
                            f"Pi = [1,...,1]: the consumer tile executes "
                            f"no later than the producer",
                    equation=_EQ_PI,
                    subject=(("dep", d), ("ds", ds), ("point", example)),
                    suggestion="the tiling does not respect the "
                               "dependence; skew the loop or pick rows "
                               "from the tiling cone",
                ))
                continue
            if not covered:
                i = int(np.argmax(sel))
                example = tuple(int(x) for x in lat[i])
                diags.append(Diagnostic(
                    code="RACE01", severity=ERROR, pass_name=PASS,
                    message=f"cross-processor tile dependence {ds} "
                            f"(projection d^m={dm}, from dependence {d}) "
                            f"is not covered by the communication spec: "
                            f"no message carries it",
                    equation=_EQ_DS,
                    subject=(("dep", d), ("ds", ds), ("dm", dm),
                             ("point", example)),
                    suggestion="D^S/D^m derivation dropped this "
                               "dependence; regenerate the "
                               "CommunicationSpec",
                ))
                continue
            bad = np.zeros(len(lat), dtype=bool)
            for k in range(n):
                if k != m and lbs[k] > 0:
                    bad |= lat32[:, k] < lbs[k]
            bad &= sel
            if bad.any():
                j_bad = tuple(int(x) for x in lat[int(np.argmax(bad))])
                diags.append(Diagnostic(
                    code="RACE02", severity=ERROR, pass_name=PASS,
                    message=f"iteration j'={j_bad} crosses processors via "
                            f"{ds} (dependence {d}) but lies outside the "
                            f"pack region (lower bounds {lbs}): its value "
                            f"is never put into the message",
                    equation=_EQ_CC,
                    subject=(("dep", d), ("ds", ds), ("point", j_bad),
                             ("pack_lower_bounds", lbs)),
                    suggestion="the CC vector under-approximates the "
                               "communication set; recompute cc_k = "
                               "v_kk - max_l d'_kl",
                ))
    return diags


def check_tile_coverage(program) -> List[Diagnostic]:
    """Tile-level checks: every fed cross-processor successor has a send
    from its producer and a recv posted at-or-before it (RACE01)."""
    comm, dist = program.comm, program.dist
    # Index the frozen schedule once.
    sends_by: Set[Tuple[int, int, Tuple[int, ...]]] = set()
    recv_step: Dict[Tuple[int, int, int, Tuple[int, ...]], int] = {}
    for rank, plan in build_rank_plans(program).items():
        for step, tile in enumerate(plan.tiles):
            for s in plan.sends[step]:
                sends_by.add((rank, s.tag, tile))
            for r in plan.recvs[step]:
                recv_step[(rank, r.src_rank, r.tag, r.pred)] = step
    diags: List[Diagnostic] = []
    cross = [ds for ds in comm.d_s if not comm.is_intra_processor(ds)]
    tset = dist._tile_set
    rank_of = program.rank_of
    region_count = program.region_count
    pid_of = dist.pid_of
    chain_index = dist.chain_index
    # Per-tile context and per-ds invariants, hoisted out of the
    # quadratic (tile x dependence) sweep.
    tile_ctx = [(tile, rank_of[pid_of(tile)], chain_index(tile))
                for tile in dist.tiles]
    ds_ctx = []
    for ds in cross:
        dm = comm.project(ds)
        ds_ctx.append((tuple(ds), dm, program.message_tag(dm)))
    for tile, src_rank, step in tile_ctx:
        for ds, dm, tag in ds_ctx:
            succ = tuple([a + b for a, b in zip(tile, ds)])
            if succ not in tset:
                continue
            if region_count(tile, ds) == 0:
                continue              # nothing in-domain crosses here
            dst_rank = rank_of[pid_of(succ)]
            if (src_rank, tag, tile) not in sends_by:
                diags.append(Diagnostic(
                    code="RACE01", severity=ERROR, pass_name=PASS,
                    message=f"tile {tile} (rank {src_rank}, step {step}) "
                            f"feeds tile {succ} on rank {dst_rank} via "
                            f"d^S={ds} but never sends toward "
                            f"d^m={dm}",
                    equation=_EQ_DS,
                    subject=(("tile", tile), ("ds", ds), ("step", step),
                             ("dest_rank", dst_rank)),
                    suggestion="send_plan dropped a successor processor; "
                               "check valid()/minsucc aggregation",
                ))
                continue
            got = recv_step.get((dst_rank, src_rank, tag, tile))
            succ_step = dist.chain_index(succ)
            if got is None or got > succ_step:
                where = "never posted" if got is None else \
                    f"posted only at step {got} > consumer step {succ_step}"
                diags.append(Diagnostic(
                    code="RACE01", severity=ERROR, pass_name=PASS,
                    message=f"tile {succ} (rank {dst_rank}, step "
                            f"{succ_step}) consumes data of tile {tile} "
                            f"via d^S={ds} but the matching receive is "
                            f"{where}: the halo is read before it is "
                            f"written",
                    equation="RECEIVE runs at minsucc(d^m), the first "
                             "valid successor in chain order (§3.2)",
                    subject=(("tile", succ), ("ds", ds),
                             ("step", succ_step), ("src_rank", src_rank)),
                    suggestion="receive_plan must post the recv at the "
                               "minimum valid successor tile",
                ))
    return diags


def check_lds_write_overlap(program) -> List[Diagnostic]:
    """RACE04: unpack/unpack and unpack/compute LDS cell disjointness.

    Verified on a representative chain step (the invariant is
    translation-equivariant along the mapping dimension): unpacked halo
    slots of distinct messages must be pairwise disjoint, and disjoint
    from the computation cells of the current and previous steps, which
    are still live.
    """
    comm, dist = program.comm, program.dist
    ttis = program.tiling.ttis
    n = program.n
    m = dist.m
    lat = ttis.lattice_points_np().astype(np.int32)
    c = np.array(ttis.c, dtype=np.int32)
    v = np.array(ttis.v, dtype=np.int32)
    rows = np.array(ttis.rows_per_dim, dtype=np.int32)
    off = np.array(comm.offsets, dtype=np.int32)
    cross = [ds for ds in comm.d_s if not comm.is_intra_processor(ds)]
    if not cross:
        return []
    t0 = 1                                  # generic interior step
    num_tiles = t0 + 2                      # room for blocks t0-1 .. t0+?

    def map_cells(points: np.ndarray, t: int) -> np.ndarray:
        cells = points // c + off
        cells[:, m] = (t * v[m] + points[:, m]) // c[m] + off[m]
        return cells

    raw: List[Tuple[str, object, np.ndarray]] = []
    raw.append(("compute", t0, map_cells(lat, t0)))
    if t0 > 0:
        raw.append(("compute", t0 - 1, map_cells(lat, t0 - 1)))
    for ds in cross:
        lbs = comm.pack_lower_bounds(ds)
        mask = np.ones(len(lat), dtype=bool)
        for k in range(n):
            if lbs[k] > 0:
                mask &= lat[:, k] >= lbs[k]
        if not mask.any():
            continue
        slots = map_cells(lat[mask], t0) - np.array(ds, dtype=np.int32) * rows
        raw.append(("unpack", tuple(ds), slots))

    # Encode cells as linear indices of the tight bounding box of every
    # cell seen (halo slots may be negative; the box absorbs them).
    mins = np.min([cells.min(axis=0) for _, _, cells in raw], axis=0)
    dims = np.max([cells.max(axis=0) for _, _, cells in raw],
                  axis=0) - mins + 1

    def linear(cells: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(cells), dtype=np.int64)
        for k in range(n):
            idx = idx * int(dims[k]) + (cells[:, k] - mins[k])
        return idx

    writers = [(kind, who, linear(cells)) for kind, who, cells in raw]
    # Fast path: each writer's cells are internally distinct (map is
    # injective per block — HALO03 territory otherwise), so global
    # uniqueness of the concatenation proves pairwise disjointness —
    # decided by a boolean occupancy scatter over the (bounded) index
    # range, falling back to a sort when the range is too sparse.
    allcells = np.concatenate([idx for _, _, idx in writers])
    mn = int(allcells.min())
    rng = int(allcells.max()) - mn + 1
    if rng <= max(64 * len(allcells), 1 << 22):
        occ = np.zeros(rng, dtype=bool)
        occ[allcells - mn] = True
        distinct = int(np.count_nonzero(occ))
    else:
        distinct = len(np.unique(allcells))
    if distinct == len(allcells):
        return []
    diags: List[Diagnostic] = []
    for i in range(len(writers)):
        kind_i, who_i, idx_i = writers[i]
        for j in range(i + 1, len(writers)):
            kind_j, who_j, idx_j = writers[j]
            if kind_i == "compute" and kind_j == "compute":
                continue    # distinct steps write distinct blocks by map
            common = np.intersect1d(idx_i, idx_j)
            if len(common):
                diags.append(Diagnostic(
                    code="RACE04", severity=ERROR, pass_name=PASS,
                    message=f"{kind_i}({who_i}) and {kind_j}({who_j}) "
                            f"write {len(common)} common LDS cell(s) at "
                            f"the same chain step: unordered touch",
                    equation="unpack slots map(j',t) - d^S_k v_kk/c_k "
                             "must be disjoint from computation cells "
                             "and from each other (RECEIVE, §3.1-3.2)",
                    subject=(("writer_a", (kind_i, who_i)),
                             ("writer_b", (kind_j, who_j)),
                             ("overlap_cells", int(len(common)))),
                    suggestion="halo offsets off_k too small or the "
                               "unpack shift is wrong; recompute "
                               "off_k = ceil(max_l d'_kl / c_k)",
                ))
    return diags


def check_races(program) -> List[Diagnostic]:
    """All race findings for one compiled program."""
    diags = check_point_coverage(program)
    diags += check_tile_coverage(program)
    diags += check_lds_write_overlap(program)
    return diags
