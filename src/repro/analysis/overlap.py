"""Overlap-plan verification pass (OV02-OV03).

The overlapped runtime schedule (``run_parallel(..., overlap=True)``)
leans on the compile-time :class:`~repro.runtime.dense.
TileOverlapPlan`: per receive the level it is taken before, per send
its commit level, and the phase table — windows of the key ``2 L(j') +
!B(j')`` (:func:`~repro.runtime.dense.overlap_key`) with the receives
and publishes between them.  Every point has exactly one key, so the
windows partition a tile by construction; what the plan can still get
wrong is the placement.  Each message must be complete when its phase
publishes it, and every halo must be in before its first reader.  This
pass recomputes the levels, the region levels and the readers from the
program's own pack regions and the tile's executed points —
independently of the plan builder — and holds the frozen integers
against them, so a bug in the builder surfaces as a compile-time
diagnostic instead of a corrupted halo at runtime.
``docs/ANALYSIS.md`` has the soundness argument.

The pass is *opt-in* (``analyze_program(..., overlap=True)`` or
``repro analyze --overlap``): it touches every tile's plan, which the
default construction-time guard must not pay for.

========  =======================================================
``OV02``   a message's commit level is wrong, or its phase
           publishes it anywhere but between the boundary and the
           interior of that level — some region point becomes
           final only after the publish
``OV03``   the phases do not walk the tile's keys in order, a
           phase's point count is not its window's, or a receive
           (its frozen level, or the phase that takes it) lands
           after the halo's first reader
========  =======================================================
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.runtime.dense import (
    key_offsets,
    overlap_key,
    overlap_plan,
    reader_mask,
)
from repro.runtime.rankstep import build_rank_plans, pack_region

PASS_OVERLAP = "overlap"


def _diag(code: str, message: str, equation: str,
          subject: Tuple[Tuple[str, Any], ...],
          suggestion: str) -> Diagnostic:
    return Diagnostic(code=code, severity=ERROR, pass_name=PASS_OVERLAP,
                      message=message, equation=equation,
                      subject=subject, suggestion=suggestion)


def check_overlap(program: Any) -> List[Diagnostic]:
    """OV02/OV03 findings over every tile's overlap plan."""
    diags: List[Diagnostic] = []
    seen: Set[int] = set()
    for rplan in build_rank_plans(program).values():
        for t in range(len(rplan.tiles)):
            plan = overlap_plan(program, rplan, t)
            if id(plan) in seen:        # full tiles share one plan
                continue
            seen.add(id(plan))
            diags.extend(_check_tile(program, rplan, t, plan))
    return diags


def _check_tile(program: Any, rplan: Any, t: int,
                plan: Any) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    tile = rplan.tiles[t]
    sends = tuple(s.direction for s in rplan.sends[t])
    recvs = tuple(r.ds for r in rplan.recvs[t])
    sel, key = overlap_key(program, tile, sends)
    level = key >> 1
    first = int(level.min()) if len(level) else 0
    # the key range the phases must walk: the tile's levels
    seg = key_offsets(key)
    start, end = (2 * first if len(key) else 0), len(seg) - 1
    # where each message's phase must publish it / take it at the latest
    pub_cut: List[int] = []
    take_cut: List[int] = []
    if len(plan.commit_level) != len(sends):
        diags.append(_diag(
            "OV02",
            f"overlap plan at tile {tile} commits "
            f"{len(plan.commit_level)} messages, the rank plan sends "
            f"{len(sends)}",
            "one commit level per planned send, plan order",
            (("tile", tile),),
            "rebuild the overlap plan from the frozen rank plan"))
    gate = start
    for direction, commit in zip(sends, plan.commit_level):
        lv = level[pack_region(program, direction)[sel]]
        # OV02: a message publishes at its commit level; every region
        # value must be final (computed) at some level <= it.
        want = int(lv.max()) if len(lv) else first
        if commit != want:
            diags.append(_diag(
                "OV02",
                f"commit level {commit} for direction {direction} at "
                f"tile {tile} != last contributing wavefront level "
                f"{want}: the send would publish stale values",
                "commit after the last level L with region ∩ "
                "batch[L] != ∅ (boundary values final before send)",
                (("tile", tile), ("direction", direction),
                 ("commit_level", commit), ("expected", want)),
                "set commit_level to the max wavefront level "
                "intersecting the pack region"))
        gate = max(gate, min(2 * want + 1, end))
        pub_cut.append(gate)
    # OV03: lazy unpack must not defer past the halo's first reader.
    if len(plan.recv_level) != len(recvs):
        diags.append(_diag(
            "OV03",
            f"overlap plan at tile {tile} places "
            f"{len(plan.recv_level)} receives, the rank plan posts "
            f"{len(recvs)}",
            "one receive level per posted receive, plan order",
            (("tile", tile),),
            "rebuild the overlap plan from the frozen rank plan"))
    for i, (ds, got) in enumerate(zip(recvs, plan.recv_level)):
        lv = level[reader_mask(program, ds)[sel]]
        reader = int(lv.min()) if len(lv) else first
        take_cut.append(2 * reader)
        if got > reader:
            diags.append(_diag(
                "OV03",
                f"receive {i} (d^S = {ds}) at tile {tile} deferred to "
                f"level {got} but its halo is first read at level "
                f"{reader}",
                "unpack before the first level with a point in the "
                "dependence reach of every crossed boundary",
                (("tile", tile), ("ds", ds),
                 ("deferred_to", got), ("first_reader", reader)),
                "lower recv_level to the first reading level"))
    diags.extend(_check_phases(tile, plan.phases, seg, start, sends,
                               pub_cut, recvs, take_cut))
    return diags


def _check_phases(tile: Tuple[int, ...], phases: Any, seg: np.ndarray,
                  start: int, sends: Any, pub_cut: List[int],
                  recvs: Any, take_cut: List[int]) -> List[Diagnostic]:
    """The frozen phase table against the recomputed cuts: windows
    walking the tile's keys ``[start, end)`` in order, each with the
    number of points its window holds (``seg``: the key offsets),
    every send published exactly at ``pub_cut`` (after the boundary of
    its commit level, before that level's interior), every receive
    taken no later than ``take_cut``."""
    diags: List[Diagnostic] = []
    end = len(seg) - 1
    at = start
    published: List[List[int]] = [[] for _ in pub_cut]
    taken: List[List[int]] = [[] for _ in take_cut]
    walked = True
    for ph in phases:
        walked = walked and ph.klo == at and ph.khi >= ph.klo
        at = ph.khi
        for i in ph.recvs:
            if 0 <= i < len(taken):
                taken[i].append(ph.klo)
        for k in ph.sends:
            if 0 <= k < len(published):
                published[k].append(ph.khi)
    if not walked or at != end:
        diags.append(_diag(
            "OV03",
            f"phases of tile {tile} do not walk keys {start}..{end} in "
            f"order",
            "phases = consecutive windows [klo, khi) of the key "
            "2 L + !B covering the tile's levels once",
            (("tile", tile),),
            "rebuild the phase table from the receive and commit "
            "levels"))
    else:
        for ph in phases:
            n = int(seg[ph.khi] - seg[ph.klo])
            if ph.points != n:
                diags.append(_diag(
                    "OV03",
                    f"phase [{ph.klo}, {ph.khi}) of tile {tile} claims "
                    f"{ph.points} points, its window holds {n}",
                    "points = |{j' executed : klo <= 2 L(j') + !B(j') "
                    "< khi}|",
                    (("tile", tile), ("window", (ph.klo, ph.khi)),
                     ("points", ph.points), ("expected", n)),
                    "rebuild the phase table from the tile's keys"))
    for k, (direction, want) in enumerate(zip(sends, pub_cut)):
        if published[k] != [want]:
            diags.append(_diag(
                "OV02",
                f"send {k} (direction {direction}) at tile {tile} is "
                f"published after keys {published[k]}, not once after "
                f"key {want - 1}: its phase must end between the "
                f"boundary and the interior of the commit level",
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
                f"before keys {taken[i]} but its halo is first read "
                f"at key {latest}",
                "a receive's phase starts no later than the boundary "
                "of the first reading level, exactly once",
                (("tile", tile), ("ds", ds),
                 ("taken_at", tuple(taken[i])),
                 ("first_reader", latest // 2)),
                "cut the phases at 2 * recv_level"))
    return diags
