"""The stage table is the only list of what a compile derives.

``repro.stages.TABLE`` declares every derived product once; the memo on
each holder fills from it and ``snapshot_program``/``restore_program``
walk it.  These tests pin the consequences: a new product is one entry
(no edit under ``artifacts/``), a snapshot survives a round trip
unchanged, a restored program rebuilds nothing it was handed, no
hand-kept cache attribute is left beside the memo, and every program
row builds from the program's roots alone.
"""

import dataclasses
import os
import pickle
import re
import shutil

import numpy as np
import pytest

from repro import stages
from repro.artifacts import ArtifactCache, restore_program, snapshot_program
from repro.runtime.dense import prewarm_overlap_plans
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.rankstep import region_count
from tests.artifacts.test_roundtrip import CONFIGS, SPEC


def _same(a, b):
    """Structural equality that looks inside numpy arrays and the
    pickled blobs of the opaque stages."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, bytes) and isinstance(b, bytes):
        return a == b or _same(pickle.loads(a), pickle.loads(b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return _same(vars(a), vars(b))
    return a == b


def test_new_persisted_stage_is_one_entry(tmp_path, monkeypatch):
    """(i) Registering a stage is all it takes to have it memoized,
    stored and restored — nothing under ``artifacts/`` names it."""
    app, h, mdim = CONFIGS[0].values
    calls = []

    def build(prog):
        calls.append(prog)
        return {"ranks": prog.num_processors, "vec": np.arange(3)}

    monkeypatch.setitem(stages.TABLE, "throwaway", stages.Stage(
        "throwaway", "program", build, persisted=True))

    cache = ArtifactCache(str(tmp_path))
    fresh = TiledProgram(app.nest, h, mapping_dim=mdim)
    payload = snapshot_program(fresh, mdim)
    version, stored = payload["stages"]["throwaway"]
    assert version == 1 and stored["ranks"] == fresh.num_processors
    assert fresh.stages.state("throwaway") == "built"

    cache.store(fresh, mdim)
    loaded = cache.load(app.nest, h, mdim)
    assert loaded.stages.state("throwaway") == "pending"
    assert _same(loaded.stage("throwaway"), fresh.stage("throwaway"))
    assert loaded.stages.state("throwaway") == "restored"
    assert calls == [fresh]


@pytest.mark.parametrize("app,h,mdim", CONFIGS)
def test_snapshot_is_a_fixed_point_of_the_round_trip(app, h, mdim):
    """(ii) snapshot(restore(snapshot(p))) == snapshot(p), entry by
    entry — with certificates and overlap plans on board."""
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    prog.hb_certificate()
    prog.cost_certificate()
    prewarm_overlap_plans(prog)
    first = snapshot_program(prog, mdim)
    again = snapshot_program(
        restore_program(app.nest, h, first), mdim)
    assert again.keys() == first.keys()
    assert set(again["stages"]) == set(first["stages"]) == {
        st.name for st in stages.TABLE.values() if st.persisted}
    for section in first:
        if section != "stages":
            assert again[section] == first[section]
    for name, entry in first["stages"].items():
        assert _same(again["stages"][name], entry), name


@pytest.mark.parametrize("app,h,mdim", CONFIGS)
def test_restored_program_builds_no_persisted_stage(
        tmp_path, monkeypatch, app, h, mdim):
    """(iii) simulate + execute_dense + hb_certificate on a cache hit
    decode what the artifact holds and build none of it."""
    cache = ArtifactCache(str(tmp_path))
    cache.store(TiledProgram(app.nest, h, mapping_dim=mdim), mdim)

    built = []

    def counting(st):
        def build(holder):
            built.append(st.name)
            return st.build(holder)
        return dataclasses.replace(st, build=build)

    for st in list(stages.TABLE.values()):
        monkeypatch.setitem(stages.TABLE, st.name, counting(st))

    loaded = cache.load(app.nest, h, mdim)
    run = DistributedRun(loaded, SPEC)
    run.simulate()
    run.execute_dense(app.init_value)
    assert loaded.hb_certificate().ok
    persisted = {st.name for st in stages.TABLE.values() if st.persisted}
    assert not persisted & set(built), built
    states = {name: state for name, _o, state, _ns in stages.report(loaded.tiling, loaded)}
    assert states["rank_plans"] == states["masks"] == "restored"
    assert all(states[name] != "built" for name in persisted)


def test_no_cache_attribute_beside_the_memo():
    """(iv) After everything a program can be asked for, the memo is
    the only place derived state lives."""
    app, h, mdim = CONFIGS[1].values
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    DistributedRun(prog, SPEC).execute_dense(app.init_value)
    prog.hb_certificate()
    prog.cost_certificate()
    prewarm_overlap_plans(prog)
    for holder in (prog, prog.tiling):
        assert isinstance(holder.stages, stages.StageMemo)
        leftovers = [name for name in vars(holder)
                     if name.endswith("_cache") or name.endswith("_blob")]
        assert leftovers == []
    filled = {name for name, _o, state, _ns in stages.report(prog.tiling, prog)
              if state == "built"}
    assert filled == set(stages.TABLE)


#: What a program is besides its stage table: the paper's four compiler
#: outputs and their naming.
ROOTS = ("nest", "tiling", "dist", "comm", "addressing", "n", "arrays",
         "pids", "rank_of")


class _Roots(stages.StageHolder):
    """A program reduced to its roots and an empty memo of its own: a
    build that reads anything else raises ``AttributeError``."""

    stage_owner = "program"

    def __init__(self, prog):
        for name in ROOTS:
            setattr(self, name, getattr(prog, name))
        self.stages = stages.StageMemo()


@pytest.mark.parametrize("app,h,mdim", CONFIGS)
def test_every_program_row_builds_from_the_roots_alone(app, h, mdim):
    """(v) Each program row's build, and the keyed accessors of the
    stages filled on demand, read nothing of a program but its roots
    and its stages — and give what the program itself gets."""
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    roots = _Roots(prog)
    for st in stages.TABLE.values():
        if st.owner == "program":
            assert _same(st.build(roots), st.build(prog)), st.name
    comm = prog.comm
    dirs = [*comm.d_s, *map(comm.send_direction, comm.d_m)]
    for tile in prog.dist.tiles:
        for d in dirs:
            assert region_count(roots, tile, d) == region_count(
                prog, tile, d)
    prewarm_overlap_plans(roots)
    prewarm_overlap_plans(prog)
    assert _same(roots.stage("overlap_plans"), prog.stage("overlap_plans"))
    for overlap in (False, True):
        assert _same(TiledProgram.hb_certificate(roots, overlap=overlap),
                     prog.hb_certificate(overlap=overlap))
    assert _same(TiledProgram.cost_certificate(roots),
                 prog.cost_certificate())


def test_lazy_entries_decode_once_per_key():
    decoded = []

    def decode(stored):
        decoded.append(stored)
        return stored * 2

    entries = stages.LazyEntries({"a": 1, "b": 2}, decode)
    assert entries["a"] == 2 and entries["a"] == 2
    assert decoded == [1] and "b" not in entries
    with pytest.raises(KeyError):
        entries["c"]


def test_undecodable_stage_is_rebuilt_alone(tmp_path):
    """A stored stage that no longer decodes is a miss for that stage
    only: it is rebuilt, its neighbours are still restored."""
    app, h, mdim = CONFIGS[0].values
    fresh = TiledProgram(app.nest, h, mapping_dim=mdim)
    payload = snapshot_program(fresh, mdim)
    version, _blob = payload["stages"]["rank_plans"]
    payload["stages"]["rank_plans"] = (version, b"not a pickle")
    loaded = restore_program(app.nest, h, payload)
    assert loaded.stage("rank_plans") == fresh.stage("rank_plans")
    assert loaded.stages.state("rank_plans") == "built"
    assert loaded.stage("region_counts") == fresh.stage("region_counts")
    assert loaded.stages.state("region_counts") == "restored"


#: Written by the parent commit (PR 19, ``overlap_plans`` version 1:
#: per-level ``boundary``/``interior``/``level_lat``/``level_pos``
#: arrays) for SOR 4x6 nonrect 2x3x4, mapping dim 2, after
#: ``hb_certificate()`` and ``prewarm_overlap_plans()``:
#: ``ArtifactCache(d).store(prog, 2)``.
PARENT_ARTIFACT = os.path.join(os.path.dirname(__file__), "data",
                               "pr19_sor_4x6_nonrect_2_3_4.tpa")


def test_parent_written_overlap_plans_rebuild_alone(tmp_path):
    """A stale artifact must rebuild, not mis-decode: the parent's
    per-level plans sit in the file at version 1, so the hit parks
    every stage but that one and the certificate memos (whose versions
    were bumped since, so they start empty); the plans are rebuilt as
    a phase table on first use and the overlapped run is bitwise the
    dense one."""
    from repro.apps import sor
    from repro.artifacts.format import read_artifact
    from repro.artifacts.hashing import content_key
    from repro.runtime import arrays_match, dense_to_cells, run_parallel

    app, h, mdim = sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2
    cache = ArtifactCache(str(tmp_path))
    path = cache.path_for(content_key(app.nest, h, mdim))
    shutil.copy(PARENT_ARTIFACT, path)
    stored = read_artifact(path)["stages"]
    version, stale = stored["overlap_plans"]
    assert version == 1 and stale
    assert all(hasattr(p, "boundary") for p in stale.values())

    loaded = cache.load(app.nest, h, mdim)
    assert loaded is not None and cache.stats()["hits"] == 1
    assert loaded.stages.state("overlap_plans") == "pending"
    fields, stats = run_parallel(loaded, SPEC, app.init_value, workers=2,
                                 overlap=True)
    assert loaded.stages.state("overlap_plans") == "built"
    plans = loaded.stage("overlap_plans")
    assert plans and all(hasattr(p, "phases") for p in plans.values())
    bumped = {"hb_certificates", "cost_certificates"}
    assert all(stored[name][0] != stages.TABLE[name].version
               for name in bumped)
    for st in stages.TABLE.values():
        if st.persisted and st.name != "overlap_plans":
            holder = loaded if st.owner == "program" else loaded.tiling
            holder.stage(st.name)
            want = "built" if st.name in bumped else "restored"
            assert holder.stages.state(st.name) == want, st.name
    assert loaded.stage("hb_certificates") == {}    # dropped, not decoded

    fresh = TiledProgram(app.nest, h, mapping_dim=mdim)
    ref, ref_stats = DistributedRun(fresh, SPEC).execute_dense(
        app.init_value)
    assert arrays_match(dense_to_cells(fields), dense_to_cells(ref),
                        tol=0.0)
    assert (stats.total_messages, stats.total_elements) == (
        ref_stats.total_messages, ref_stats.total_elements)
    prewarm_overlap_plans(fresh)
    assert _same(dict(plans), dict(fresh.stage("overlap_plans")))


def test_documented_table_matches_the_code():
    """docs/ARTIFACTS.md lists the table row by row."""
    doc = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                       "ARTIFACTS.md")
    rows = [tuple(c.strip() for c in line.strip("|\n").split("|"))
            for line in open(doc)
            if re.match(r"\| `\w+` \| (tiling|program) \|", line)]
    documented = [(r[0].strip("`"), r[1], r[3] == "yes",
                   int(r[5]) if r[5].isdigit() else None) for r in rows]
    assert documented == [
        (st.name, st.owner, st.persisted,
         st.version if st.persisted else None)
        for st in stages.TABLE.values()]
