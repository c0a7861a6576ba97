"""The mutation matrix: which certifier codes catch which corruption of
a compiled program's frozen products, and which engines it breaks.

Each mutant is one edit of a clean program of one of three configs:

* ``rank_plans`` sends — drop, duplicate, retag, resize by +1 or by
  minus the number of arrays (one point fewer), move to the next chain
  tile, point at another processor direction;
* ``rank_plans`` receives — drop, retag, resize, move to the next or
  the previous chain tile, shift ``pred`` back along the chain, shift
  ``src_rank``, take another receive's ``ds``;
* ``rank_plans`` order — swap two receives or two sends of one tile;
* ``comm`` — a halo offset zeroed, ``cc`` of one communicating
  dimension +1 or -1;
* overlap plans — a commit level lowered by one (phases rebuilt to
  match), a receive deferred to the tile's last level (phases rebuilt),
  the last boundary point of a level moved into its interior, a publish
  moved one phase early.

A kind is skipped on a config where no tile fits it.  The target of
every mutant is chosen once, from the clean program, and bound into
its edit when the mutant is defined.

Tier-1 runs every mutant through ``analyze_program(hb=True, cost=True,
overlap=True)`` and ``execute_dense``, and the overlap-plan mutants
through ``execute_parallel(overlap=True, workers=2)`` as well (the
engines that read those plans), each against ``run_sequential`` at tol
0.0.  It asserts the decision rule of ROADMAP item 15: a mutant that
breaks an engine is caught by at least one error-severity code.

``python -m tests.analysis.test_mutation_matrix`` prints the full
matrix — translation validation added to the codes, and the
simulator and both parallel schedules added to the engines — as the
markdown table docs/ANALYSIS.md records.  It runs each
``parallel-overlap`` cell five times: whether a deferred halo has
arrived when a worker takes arrived halos early depends on timing, and
a cell whose runs disagree reads ``parallel-overlap (timing)``, so two
regenerations give the same table.
"""

import dataclasses
from functools import lru_cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.analysis import analyze_program
from repro.apps import resolve_config
from repro.runtime.dataspace import arrays_match, dense_to_cells
from repro.runtime.dense import overlap_phases, prewarm_overlap_plans
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.interpreter import run_sequential
from repro.runtime.machine import ClusterSpec
from repro.runtime.rankstep import region_count

CONFIGS = {
    "sor": ("sor", (8, 12), "nonrect", (2, 3, 4)),
    "jacobi": ("jacobi", (4, 6, 6), "nonrect", (2, 2, 3)),
    "adi": ("adi", (4, 5), "nr3", (2, 3, 3)),
}
SPEC = ClusterSpec()


class Mutant(NamedTuple):
    config: str
    kind: str
    family: str                     # "plans", "comm" or "overlap"
    edit: Callable[[TiledProgram], None]

    @property
    def id(self) -> str:
        return f"{self.config}-{self.kind}"


def fresh(config: str) -> TiledProgram:
    app, h = resolve_config(*CONFIGS[config])
    return TiledProgram(app.nest, h, app.mapping_dim)


# -- rank_plans edits: (program, plan, t, i) -> plan -------------------------------


def _with(plan, t, recvs=None, sends=None):
    rr, ss = list(plan.recvs), list(plan.sends)
    if recvs is not None:
        rr[t] = tuple(recvs)
    if sends is not None:
        ss[t] = tuple(sends)
    return dataclasses.replace(plan, recvs=tuple(rr), sends=tuple(ss))


def _other_tag(prog, tag):
    return (tag + 1) % max(2, len(prog.comm.d_m))


def _send_field(name, value_of, prog, plan, t, i):
    ss = list(plan.sends[t])
    ss[i] = dataclasses.replace(ss[i], **{name: value_of(prog, ss[i])})
    return _with(plan, t, sends=ss)


def _recv_field(name, value_of, prog, plan, t, i):
    rr = list(plan.recvs[t])
    rr[i] = dataclasses.replace(rr[i], **{name: value_of(prog, plan, t,
                                                         rr[i])})
    return _with(plan, t, recvs=rr)


def _drop(ops, prog, plan, t, i):
    kept = list(getattr(plan, ops)[t])
    del kept[i]
    return _with(plan, t, **{ops: kept})


def _duplicate_send(prog, plan, t, i):
    ss = list(plan.sends[t])
    ss.insert(i, ss[i])
    return _with(plan, t, sends=ss)


def _move(ops, step, prog, plan, t, i):
    here = list(getattr(plan, ops)[t])
    op = here.pop(i)
    plan = _with(plan, t, **{ops: here})
    there = list(getattr(plan, ops)[t + step]) + [op]
    return _with(plan, t + step, **{ops: there})


def _swap(ops, prog, plan, t, i):
    both = list(getattr(plan, ops)[t])
    both[i], both[i + 1] = both[i + 1], both[i]
    return _with(plan, t, **{ops: both})


def _other_direction(prog, s):
    dirs = [prog.comm.send_direction(dm) for dm in prog.comm.d_m]
    return next(d for d in dirs[dirs.index(s.direction) + 1:] + dirs
                if d != s.direction)


def _earlier_pred(prog, plan, t, r):
    m = prog.comm.m
    return tuple(x - (k == m) for k, x in enumerate(r.pred))


def _other_src(prog, plan, t, r):
    n = prog.num_processors
    return next(x % n for x in range(r.src_rank + 1, r.src_rank + n)
                if x % n != plan.rank)


def _other_ds(prog, plan, t, r):
    return next(o.ds for o in plan.recvs[t] if o.ds != r.ds)


def _anywhere(prog, plan, t, i):
    return True


def _direction_resizes(prog, plan, t, i):
    """The other direction packs another number of points here."""
    s = plan.sends[t][i]
    other = _other_direction(prog, s)
    return region_count(prog, plan.tiles[t], other) * len(
        prog.arrays) != s.nelems


# (kind, edit, does (program, plan, t, i) fit it)
PLAN_KINDS = [
    ("send-drop", partial(_drop, "sends"), _anywhere),
    ("send-duplicate", _duplicate_send, _anywhere),
    ("send-retag", partial(_send_field, "tag",
                           lambda prog, s: _other_tag(prog, s.tag)),
     _anywhere),
    ("send-grow", partial(_send_field, "nelems",
                          lambda prog, s: s.nelems + 1), _anywhere),
    ("send-shrink", partial(_send_field, "nelems",
                            lambda prog, s: s.nelems - len(prog.arrays)),
     lambda prog, p, t, i: p.sends[t][i].nelems > len(prog.arrays)),
    ("send-next-tile", partial(_move, "sends", 1),
     lambda prog, p, t, i: t + 1 < len(p.tiles)),
    ("send-direction", partial(_send_field, "direction", _other_direction),
     _direction_resizes),
    ("recv-drop", partial(_drop, "recvs"), _anywhere),
    ("recv-retag", partial(_recv_field, "tag",
                           lambda prog, p, t, r: _other_tag(prog, r.tag)),
     _anywhere),
    ("recv-grow", partial(_recv_field, "nelems",
                          lambda prog, p, t, r: r.nelems + 1), _anywhere),
    ("recv-next-tile", partial(_move, "recvs", 1),
     lambda prog, p, t, i: t + 1 < len(p.tiles)),
    ("recv-prev-tile", partial(_move, "recvs", -1),
     lambda prog, p, t, i: t > 0),
    ("recv-pred", partial(_recv_field, "pred", _earlier_pred), _anywhere),
    ("recv-src", partial(_recv_field, "src_rank", _other_src), _anywhere),
    ("recv-other-ds", partial(_recv_field, "ds", _other_ds),
     lambda prog, p, t, i: len({r.ds for r in p.recvs[t]}) > 1),
    ("recv-swap", partial(_swap, "recvs"),
     lambda prog, p, t, i: i + 1 < len(p.recvs[t])),
    ("send-swap", partial(_swap, "sends"),
     lambda prog, p, t, i: i + 1 < len(p.sends[t])),
]


def _on_plans(edit, rank, t, i, prog):
    plans = dict(prog.stage("rank_plans"))
    plans[rank] = edit(prog, plans[rank], t, i)
    prog.stages["rank_plans"] = plans


def _plan_target(prog, kind, fits):
    """The first ``(rank, t, i)`` in rank and chain order that fits."""
    plans = prog.stage("rank_plans")
    ops = "recvs" if kind.startswith("recv") else "sends"
    for rank in sorted(plans):
        plan = plans[rank]
        for t in range(len(plan.tiles)):
            for i in range(len(getattr(plan, ops)[t])):
                if fits(prog, plan, t, i):
                    return rank, t, i
    return None


# -- comm edits ---------------------------------------------------------------------


def _on_comm(name, k, delta, prog):
    """Shift entry ``k`` of ``comm.<name>`` by ``delta`` (``None``: zero
    it) before anything is derived from it."""
    vals = list(getattr(prog.comm, name))
    vals[k] = 0 if delta is None else vals[k] + delta
    setattr(prog.comm, name, tuple(vals))
    prog.addressing._lds_by_length.clear()


def _comm_mutants(prog):
    comm = prog.comm
    dims = [k for k in range(prog.n) if k != comm.m]
    out = []
    k = next((k for k in dims if comm.offsets[k] > 0), None)
    if k is not None:
        out.append(("offset-zero", partial(_on_comm, "offsets", k, None)))
    talk = [k for k in dims if comm.max_dp[k] > 0]
    if talk:
        out.append(("cc-plus", partial(_on_comm, "cc", talk[0], 1)))
    k = next((k for k in talk if comm.cc[k] >= 1), None)
    if k is not None:
        out.append(("cc-minus", partial(_on_comm, "cc", k, -1)))
    return out


# -- overlap-plan edits: TileOverlapPlan -> TileOverlapPlan ------------------------


def _rephase(oplan, packs, recv_level):
    return dataclasses.replace(
        oplan, packs=tuple(packs), recv_level=tuple(recv_level),
        phases=overlap_phases(oplan.nlevels, recv_level,
                              [p.commit_level for p in packs]))


def _commit_down(oplan, j):
    packs = list(oplan.packs)
    packs[j] = dataclasses.replace(packs[j],
                                   commit_level=packs[j].commit_level - 1)
    return _rephase(oplan, packs, oplan.recv_level)


def _defer_recv(oplan, j):
    levels = list(oplan.recv_level)
    levels[j] = oplan.nlevels - 1
    return _rephase(oplan, oplan.packs, levels)


def _boundary_to_interior(oplan, j):
    cuts = oplan.cuts.copy()
    cuts[2 * j + 1] -= 1
    return dataclasses.replace(oplan, cuts=cuts)


def _publish_early(oplan, j):
    phases = list(oplan.phases)
    k, rest = phases[j].sends[0], phases[j].sends[1:]
    phases[j] = phases[j]._replace(sends=rest)
    phases[j - 1] = phases[j - 1]._replace(
        sends=phases[j - 1].sends + (k,))
    return dataclasses.replace(oplan, phases=tuple(phases))


# (kind, edit, candidate positions j of one plan)
OVERLAP_KINDS = [
    ("commit-down", _commit_down,
     lambda o: [j for j, p in enumerate(o.packs) if p.commit_level >= 1]),
    ("recv-defer", _defer_recv,
     lambda o: [j for j, lv in enumerate(o.recv_level)
                if lv < o.nlevels - 1]),
    ("boundary-to-interior", _boundary_to_interior,
     lambda o: [j for j in range(o.nlevels)
                if o.cuts[2 * j + 1] > o.cuts[2 * j]]),
    ("publish-early", _publish_early,
     lambda o: [j for j in range(1, len(o.phases)) if o.phases[j].sends]),
]


def _on_overlap(edit, index, j, prog):
    prewarm_overlap_plans(prog)
    plans = prog.stage("overlap_plans")
    key = list(plans)[index]
    plans[key] = edit(plans[key], j)


def _overlap_target(oplans, where):
    """The first ``(plan index, position)`` that fits."""
    for index, oplan in enumerate(oplans):
        js = where(oplan)
        if js:
            return index, js[0]
    return None


# -- the catalogue ------------------------------------------------------------------


@lru_cache(maxsize=None)
def mutants(config: str) -> Tuple[Mutant, ...]:
    clean = fresh(config)
    prewarm_overlap_plans(clean)
    oplans = list(clean.stage("overlap_plans").values())
    out: List[Mutant] = []
    for kind, edit, fits in PLAN_KINDS:
        target = _plan_target(clean, kind, fits)
        if target is not None:
            out.append(Mutant(config, kind, "plans",
                              partial(_on_plans, edit, *target)))
    for kind, edit in _comm_mutants(clean):
        out.append(Mutant(config, kind, "comm", edit))
    for kind, edit, where in OVERLAP_KINDS:
        target = _overlap_target(oplans, where)
        if target is not None:
            out.append(Mutant(config, f"overlap-{kind}", "overlap",
                              partial(_on_overlap, edit, *target)))
    return tuple(out)


def mutant_program(mutant: Mutant) -> TiledProgram:
    prog = fresh(mutant.config)
    mutant.edit(prog)
    return prog


@lru_cache(maxsize=None)
def reference(config: str):
    app, _h = resolve_config(*CONFIGS[config])
    return run_sequential(app.nest, app.init_value)


def _init(config: str):
    return resolve_config(*CONFIGS[config])[0].init_value


# -- the engines --------------------------------------------------------------------


def _dense(prog, init):
    return dense_to_cells(DistributedRun(prog, SPEC).execute_dense(init)[0])


def _parallel(overlap, prog, init):
    return dense_to_cells(DistributedRun(prog, SPEC).execute_parallel(
        init, workers=2, overlap=overlap, timeout=60.0)[0])


def _simulate(prog, init):
    DistributedRun(prog, SPEC).simulate()
    return None


#: Engines tier-1 runs, by mutant family.
TIER1_ENGINES = {
    "plans": {"execute_dense": _dense},
    "comm": {"execute_dense": _dense},
    "overlap": {"execute_dense": _dense,
                "parallel-overlap": partial(_parallel, True)},
}
ALL_ENGINES = {
    "simulate": _simulate,
    "execute_dense": _dense,
    "parallel-blocking": partial(_parallel, False),
    "parallel-overlap": partial(_parallel, True),
}


#: Runs per matrix cell of an engine whose verdict can depend on timing
#: (the generator's; tier-1 runs each engine once).
REPEATS = {"parallel-overlap": 5}


def _breaks(run: Callable, mutant: Mutant) -> bool:
    try:
        got = run(mutant_program(mutant), _init(mutant.config))
    except Exception:
        return True
    return got is not None and not arrays_match(
        got, reference(mutant.config), tol=0.0)


def broken_engines(mutant: Mutant, engines: Dict[str, Callable],
                   repeats: Optional[Dict[str, int]] = None) -> List[str]:
    """The engines whose run of the mutant raises or differs from the
    sequential reference at tol 0.0 (``simulate`` moves no data: only
    its raising counts).  An engine run ``repeats[name]`` times whose
    runs disagree is listed as ``name (timing)``."""
    broken = []
    for name, run in engines.items():
        verdicts = {_breaks(run, mutant)
                    for _ in range((repeats or {}).get(name, 1))}
        if len(verdicts) > 1:
            broken.append(f"{name} (timing)")
        elif verdicts.pop():
            broken.append(name)
    return broken


def error_codes(prog: TiledProgram, transval: bool = False) -> List[str]:
    report = analyze_program(prog, hb=True, cost=True, overlap=True)
    codes = {d.code for d in report.errors}
    if transval:
        from repro.analysis.transval import check_transval
        codes |= {d.code for d in check_transval(prog)
                  if d.severity == "error"}
    return sorted(codes)


ALL_MUTANTS = [m for config in CONFIGS for m in mutants(config)]


def test_catalogue_covers_every_kind():
    kinds = {k for k, _, _ in PLAN_KINDS} | {
        "offset-zero", "cc-plus", "cc-minus"} | {
        f"overlap-{k}" for k, _, _ in OVERLAP_KINDS}
    assert len(kinds) == 24
    assert {m.kind for m in ALL_MUTANTS} == kinds
    assert len(ALL_MUTANTS) == 70


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mutant", ALL_MUTANTS, ids=lambda m: m.id)
def test_every_engine_breaking_mutant_is_caught(mutant):
    prog = mutant_program(mutant)
    clean = fresh(mutant.config)
    if mutant.family == "plans":       # the edit changed the frozen row
        assert prog.stage("rank_plans") != clean.stage("rank_plans")
    codes = error_codes(prog)
    broken = broken_engines(mutant, TIER1_ENGINES[mutant.family])
    assert codes or not broken, (
        f"{mutant.id} breaks {broken} and no error code fires")


def matrix_rows() -> List[Tuple[str, List[str], List[str]]]:
    return [(m.id, error_codes(mutant_program(m), transval=True),
             broken_engines(m, ALL_ENGINES, REPEATS)) for m in ALL_MUTANTS]


def render_matrix(rows) -> str:
    lines = ["| mutant | error codes | engines broken |",
             "|---|---|---|"]
    for mid, codes, broken in rows:
        lines.append(f"| {mid} | {', '.join(codes) or '—'} | "
                     f"{', '.join(broken) or '—'} |")
    sole: Dict[str, List[str]] = {}
    for mid, codes, broken in rows:
        if len(codes) == 1:
            sole.setdefault(codes[0], []).append(mid)
    lines.append("")
    lines.append("Sole error code of a mutant: " + "; ".join(
        f"{code} ({', '.join(ids)})" for code, ids in sorted(sole.items())))
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_matrix(matrix_rows()))
