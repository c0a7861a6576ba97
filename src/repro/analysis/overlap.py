"""Overlap-plan verification pass (OV01-OV03).

The overlapped runtime schedule (``run_parallel(..., overlap=True)``)
leans entirely on the compile-time :class:`~repro.runtime.dense.
TileOverlapPlan`: ``order``/``cuts`` must be a within-level reorder of
the tile's wavefront batches with every pack-region point in a boundary
segment, each message must be the blocking payload and complete when
its phase publishes it, and every halo must be in before its first
reader.  This pass recomputes those invariants from the program's own
region masks and level batches — independently of the plan builder —
and holds the frozen phase table against them, so a bug in
``build_overlap_split`` surfaces as a compile-time diagnostic instead
of a corrupted halo at runtime.  ``docs/ANALYSIS.md`` has the
soundness argument.

The pass is *opt-in* (``analyze_program(..., overlap=True)`` or
``repro analyze --overlap``): it touches every tile's plan, which the
default construction-time guard must not pay for.

========  =======================================================
``OV01``   pack schedule does not reproduce the blocking payload
           (direction or count disagree with the pack region in
           lex order, which the blocking gather packs)
``OV02``   a message's commit level is wrong, or its phase
           publishes it anywhere but between the boundary and the
           interior of that level — some region point becomes
           final only after the publish
``OV03``   ``order``/``cuts`` do not partition every wavefront
           level into boundary and interior, the phases do not
           walk the segments in order, or a receive (its frozen
           level, or the phase that takes it) lands after the
           halo's first reader
========  =======================================================
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.runtime.dense import overlap_plan, tile_levels
from repro.runtime.rankstep import build_rank_plans, region_mask

PASS_OVERLAP = "overlap"


def _diag(code: str, message: str, equation: str,
          subject: Tuple[Tuple[str, Any], ...],
          suggestion: str) -> Diagnostic:
    return Diagnostic(code=code, severity=ERROR, pass_name=PASS_OVERLAP,
                      message=message, equation=equation,
                      subject=subject, suggestion=suggestion)


def check_overlap(program: Any) -> List[Diagnostic]:
    """OV01/OV02/OV03 findings over every tile's overlap plan."""
    diags: List[Diagnostic] = []
    max_dp = program.comm.max_dp
    lat = program.tiling.ttis.lattice_points_np()
    seen: Set[int] = set()
    for rplan in build_rank_plans(program).values():
        for t in range(len(rplan.tiles)):
            plan = overlap_plan(program, rplan, t)
            if id(plan) in seen:        # full tiles share one plan
                continue
            seen.add(id(plan))
            diags.extend(_check_tile(program, rplan, t, plan, lat, max_dp))
    return diags


def _check_tile(program: Any, rplan: Any, t: int, plan: Any,
                lat: np.ndarray, max_dp: Any) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    tile = rplan.tiles[t]
    sends = tuple(s.direction for s in rplan.sends[t])
    recvs = tuple(r.ds for r in rplan.recvs[t])
    batches = tile_levels(program, tile)
    nlev = len(batches)
    executed = (np.concatenate(batches) if nlev
                else np.zeros(0, dtype=np.int64))
    level_of = np.full(len(lat), -1, dtype=np.int64)
    level_of[executed] = np.repeat(
        np.arange(nlev), np.fromiter(map(len, batches), np.int64, nlev))
    bmask = np.zeros(len(lat), dtype=bool)
    # where each message's phase must publish it / take it at the latest
    pub_cut: List[int] = []
    take_cut: List[int] = []
    # OV01: the message is gathered by the blocking pack at its commit
    # level, so only its identity can be wrong: direction and count.
    if len(plan.packs) != len(sends):
        diags.append(_diag(
            "OV01",
            f"overlap plan at tile {tile} packs {len(plan.packs)} "
            f"messages, the rank plan sends {len(sends)}",
            "one pack per planned send, plan order",
            (("tile", tile),),
            "rebuild the overlap plan from the frozen rank plan"))
    gate = 0
    for direction, pack in zip(sends, plan.packs):
        region = region_mask(program, tile, direction)
        bmask |= region
        lv = level_of[region]
        if pack.count != len(lv) or tuple(pack.direction) != direction:
            diags.append(_diag(
                "OV01",
                f"zero-copy pack schedule for direction {direction} "
                f"at tile {tile} does not reproduce the blocking "
                f"payload (region has {len(lv)} points, plan covers "
                f"{pack.count})",
                "payload = concat_a(local[a][region in lex order]), "
                "gathered once by the blocking pack at the commit "
                "level (§3.2 pack regions)",
                (("tile", tile), ("direction", direction)),
                "rebuild the overlap plan; direction and count must "
                "be those of the lex-ordered region"))
        # OV02: a message publishes at commit_level; every region value
        # must be final (computed) at some level <= commit_level.
        want = int(lv.max()) if len(lv) else -1
        if pack.commit_level != want or (len(lv) and lv.min() < 0):
            diags.append(_diag(
                "OV02",
                f"commit level {pack.commit_level} for direction "
                f"{direction} at tile {tile} != last contributing "
                f"wavefront level {want}: the send would publish "
                f"stale values",
                "commit after the last level L with region ∩ "
                "batch[L] != ∅ (boundary values final before send)",
                (("tile", tile), ("direction", direction),
                 ("commit_level", pack.commit_level),
                 ("expected", want)),
                "set commit_level to the max wavefront level "
                "intersecting the pack region"))
        gate = max(gate, min(2 * max(want, 0) + 1, 2 * nlev))
        pub_cut.append(gate)
    # OV03a: order/cuts must be the level batches, boundary first.
    order, cuts = plan.order, plan.cuts
    seglen = np.diff(cuts)
    if len(cuts) != 2 * nlev + 1:
        diags.append(_diag(
            "OV03",
            f"overlap plan at tile {tile} has {plan.nlevels} levels, "
            f"schedule has {nlev}",
            "boundary[L] ⊎ interior[L] = batch[L] (within-level "
            "reorder only)",
            (("tile", tile),),
            "rebuild the overlap plan from the tile's level batches"))
    elif (cuts[0] != 0 or cuts[-1] != len(order) or (seglen < 0).any()
          or not np.array_equal(np.sort(order), np.sort(executed))):
        diags.append(_diag(
            "OV03",
            f"order of tile {tile} is not a permutation of its "
            f"executed points under cuts ({len(order)} vs "
            f"{len(executed)} points)",
            "boundary[L] ⊎ interior[L] = batch[L] (within-level "
            "reorder only)",
            (("tile", tile),),
            "rebuild the overlap plan from the tile's level batches"))
    else:
        segno = np.repeat(np.arange(2 * nlev), seglen)
        bad = np.nonzero((level_of[order] != segno // 2)
                         | (bmask[order] != (segno % 2 == 0)))[0]
        if len(bad):
            li = int(segno[bad[0]]) // 2
            diags.append(_diag(
                "OV03",
                f"level {li} of tile {tile}: boundary ∪ interior "
                f"!= level batch ({len(bad)} points sit in a segment "
                f"of another level or on the wrong side of the pack "
                f"regions)",
                "boundary[L] ⊎ interior[L] = batch[L] "
                "(within-level reorder only), boundary[L] = batch[L] "
                "∩ ⋃ pack regions",
                (("tile", tile), ("level", li)),
                "the split may only reorder within a wavefront "
                "level"))
    # OV03b: lazy unpack must not defer past the halo's first reader.
    if len(plan.recv_level) != len(recvs):
        diags.append(_diag(
            "OV03",
            f"overlap plan at tile {tile} places "
            f"{len(plan.recv_level)} receives, the rank plan posts "
            f"{len(recvs)}",
            "one receive level per posted receive, plan order",
            (("tile", tile),),
            "rebuild the overlap plan from the frozen rank plan"))
    for ds, level in zip(recvs, plan.recv_level):
        readers = level_of >= 0
        for k, dk in enumerate(ds):
            if dk > 0:
                readers &= lat[:, k] < max(int(max_dp[k]), 0)
        lv = level_of[readers]
        first = int(lv.min()) if len(lv) else 0
        take_cut.append(2 * first)
        if level > first:
            i = len(take_cut) - 1
            diags.append(_diag(
                "OV03",
                f"receive {i} (d^S = {ds}) at tile {tile} deferred to "
                f"level {level} but its halo is first "
                f"read at level {first}",
                "unpack before the first level with a point in the "
                "dependence reach of every crossed boundary",
                (("tile", tile), ("ds", ds),
                 ("deferred_to", level),
                 ("first_reader", first)),
                "lower recv_level to the first reading level"))
    diags.extend(_check_phases(tile, plan.phases, 2 * nlev, sends,
                               pub_cut, recvs, take_cut))
    return diags


def _check_phases(tile: Tuple[int, ...], phases: Any, end: int,
                  sends: Any, pub_cut: List[int],
                  recvs: Any, take_cut: List[int]) -> List[Diagnostic]:
    """The frozen phase table against the recomputed cuts: segments in
    order, every send published exactly at ``pub_cut`` (after the
    boundary of its commit level, before that level's interior), every
    receive taken no later than ``take_cut``."""
    diags: List[Diagnostic] = []
    at = 0
    published: List[List[int]] = [[] for _ in pub_cut]
    taken: List[List[int]] = [[] for _ in take_cut]
    walked = True
    for ph in phases:
        walked = walked and ph.lo == at and ph.hi >= ph.lo
        at = ph.hi
        for i in ph.recvs:
            if 0 <= i < len(taken):
                taken[i].append(ph.lo)
        for k in ph.sends:
            if 0 <= k < len(published):
                published[k].append(ph.hi)
    if not walked or at != end:
        diags.append(_diag(
            "OV03",
            f"phases of tile {tile} do not walk segments 0..{end} in "
            f"order",
            "phases = consecutive ranges [lo, hi) of cuts covering "
            "every segment once",
            (("tile", tile),),
            "rebuild the phase table from the receive and commit "
            "levels"))
    for k, (direction, want) in enumerate(zip(sends, pub_cut)):
        if published[k] != [want]:
            diags.append(_diag(
                "OV02",
                f"send {k} (direction {direction}) at tile {tile} is "
                f"published after segments {published[k]}, not once "
                f"after segment {want - 1}: its phase must end "
                f"between the boundary and the interior of the "
                f"commit level",
                "boundary[commit] → publish → interior[commit], "
                "plan order",
                (("tile", tile), ("direction", direction),
                 ("published_at", tuple(published[k])),
                 ("expected", want)),
                "cut the phases at 2 * commit_level + 1"))
    for i, (ds, latest) in enumerate(zip(recvs, take_cut)):
        if len(taken[i]) != 1 or taken[i][0] > latest:
            diags.append(_diag(
                "OV03",
                f"receive {i} (d^S = {ds}) at tile {tile} is taken "
                f"before segments {taken[i]} but its halo is first "
                f"read in segment {latest}",
                "a receive's phase starts no later than the boundary "
                "of the first reading level, exactly once",
                (("tile", tile), ("ds", ds),
                 ("taken_at", tuple(taken[i])),
                 ("first_reader", latest // 2)),
                "cut the phases at 2 * recv_level"))
    return diags
