"""The dense back-end's address tables are ``map`` and ``loc⁻¹∘f_w``.

``LdsTables.to_flat`` stays the single definition of the condensed
``map``; the program's ``halo_tables`` stage evaluates it once per LDS
geometry and every tile only adds a constant.  These properties pin
the algebra down against the definitions it replaces, for every rank,
tile, offset and index set of:

* the six reference configs (tests/artifacts/test_roundtrip.py) —
  skewed SOR writes through a non-identity access matrix, ADI writes
  two arrays;
* strided-HNF tilings (some ``c_k > 1``): the two hand-written ones
  and cone candidates drawn from ``tuning/candidates.py``;
* hypothesis-drawn tile extents and index subsets.

Every message's frozen cells are ``region_flat`` of its plan entry (on
the receive side shifted back by ``halo_unit · d^S``).  The boundary
contract rides along: every out-of-domain source of a rank's chain
addresses a cell of that rank's LDS box that no compute and no unpack
writes, the frozen fill holds exactly those cells, and the numpy and
the native path make the same scalar ``init_value`` calls — one per
(rank, distinct out-of-domain source cell) and run, plus the
pure-input table fill.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import adi, heat, jacobi, resolve_config, sor
from repro.native.engine import build_native_library
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime import dense, parallel
from repro.runtime.dense import (
    DenseData,
    HaloFillError,
    _access_box,
    read_dependences,
    region_flat,
)
from repro.runtime.rankstep import build_rank_plans
from repro.tiling.ttis import TTIS
from repro.tuning import generate_candidates
from tests.codegen.test_one_compile import CI_CONFIGS, IDS
from tests.runtime.tilings import DRAWN, drawn_program

SPEC = ClusterSpec()


@functools.lru_cache(maxsize=1)
def _strided_heat_candidates():
    """Cone tilings of the heat nest whose HNF has a stride > 1."""
    space = generate_candidates(heat.app(4, 8).nest.dependences,
                                extents=(1, 2), max_candidates=96)
    out = [c for c in space.candidates
           if any(ck > 1 for ck in TTIS(c.h).c)]
    assert out, "the candidate generator lost its strided tilings"
    return out[:3]


def _configs():
    cfgs = [
        ("sor-rect", sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2),
        ("sor-nonrect", sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2),
        ("sor-partial", sor.app(5, 7), sor.h_rectangular(3, 4, 5), 2),
        ("jacobi-rect", jacobi.app(3, 5, 5),
         jacobi.h_rectangular(2, 3, 3), 0),
        ("adi-rect", adi.app(4, 5), adi.h_rectangular(2, 3, 3), 0),
        ("heat-rect", heat.app(4, 8), heat.h_rectangular(2, 4), 1),
        # strided HNF
        ("jacobi-strided", jacobi.app(3, 5, 5),
         jacobi.h_nonrectangular(2, 4, 3), 0),
        ("adi-strided", adi.app(4, 5), adi.h_nr3(2, 3, 3), 0),
    ]
    for i, cand in enumerate(_strided_heat_candidates()):
        cfgs.append((f"heat-cone-{i}", heat.app(6, 10), cand.h, None))
    return [pytest.param(app, h, m, id=name) for name, app, h, m in cfgs]


def _index_sets(nlat, mask, rng):
    yield np.arange(nlat)
    yield np.nonzero(mask)[0]
    yield np.zeros(0, dtype=np.int64)
    yield rng.integers(0, nlat, size=min(nlat, 7))


def _check_tables(prog, seed=0):
    """Every table entry against the definition it was built from."""
    rng = np.random.default_rng(seed)
    data = DenseData(prog, lambda _a, _c: 0.0)
    halo = prog.stage("halo_tables")
    checked = 0
    for pid in prog.pids:
        lds = data.rank(pid)
        tb = lds.tables
        assert tb is halo[prog.rank_of[pid]].tables
        offsets = list(tb.base)
        assert offsets[0] == (0,) * prog.n
        assert any(any(off) for off in offsets)
        assert tb.wbase is tb.base[offsets[0]]
        for tile in prog.dist.tiles_of(pid):
            t = prog.dist.chain_index(tile)
            origin = data.tile_origin(tile)
            for idx in _index_sets(data.nlat, prog.tiling.tile_mask(tile), rng):
                for off in offsets:
                    want = tb.to_flat(
                        data.lat[idx] - np.asarray(off, dtype=np.int64), t)
                    got = tb.base[off][idx] + t * tb.shift_unit
                    assert np.array_equal(got, want), (pid, tile, off)
                for plan, g in zip(data.plans, data.gtables):
                    field = data.fields[plan.stmt.write.array]
                    assert g.values.base is field.values
                    cells = plan.write_indexer.cells(
                        data.tis[idx] + origin) - np.asarray(
                            field.origin, dtype=np.int64)
                    # the field's element strides, from numpy itself
                    fstr = np.asarray(field.values.strides,
                                      dtype=np.int64) // field.values.itemsize
                    got = g.gbase[idx] + g.gshift(origin)
                    assert np.array_equal(got, cells @ fstr), (pid, tile)
                    checked += len(idx)
    assert checked


class TestAddressTables:
    @pytest.mark.parametrize("app,h,mdim", _configs())
    def test_tables_equal_the_maps_they_replace(self, app, h, mdim):
        _check_tables(TiledProgram(app.nest, h, mapping_dim=mdim))

    @pytest.mark.parametrize("app,h,mdim", _configs())
    def test_tile_origin_is_the_rational_product(self, app, h, mdim):
        tiling = TiledProgram(app.nest, h, mapping_dim=mdim).tiling
        for tile in tiling.enumerate_tiles():
            want = tuple(tiling.p.matvec(tile))
            got = tiling.tile_origin(tile)
            assert got == want
            assert all(type(x) is int for x in got)

    def test_tables_are_shared_per_geometry(self):
        """One table set per (strides, offsets), shared by every rank
        of that geometry."""
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        halo = prog.stage("halo_tables")
        geoms = {(tuple(h.tables.strides.tolist()),
                  tuple(h.tables.offsets.tolist())) for h in halo.values()}
        assert len({id(h.tables) for h in halo.values()}) == len(geoms) \
            < len(halo)

    @settings(max_examples=20, deadline=None)
    @given(**DRAWN, seed=st.integers(0, 2 ** 16))
    def test_drawn_tilings(self, which, x, y, z, seed):
        _app, prog = drawn_program(which, x, y, z)
        _check_tables(prog, seed)


# -- the boundary contract ----------------------------------------------------------


def _out_of_domain_sources(prog):
    """Per rank: the LDS cell of every (executed point, dependence
    read) whose source is out of the domain, by the definition
    (``to_flat`` of ``j' - d'``), and every cell its compute and its
    unpacks write."""
    data = DenseData(prog, lambda _a, _c: 0.0)
    amat, bvec = prog.tiling._amat, prog.tiling._bvec
    deps = [(rp.ref.array, rp.dep, rp.dep_prime)
            for plan in data.plans for rp in plan.reads
            if rp.dep is not None]
    plans = build_rank_plans(prog)
    for plan in plans.values():
        lds = data.rank(plan.pid)
        sources = {a: [] for a in data.arrays}
        written = []
        for t, tile in enumerate(plan.tiles):
            mask = prog.tiling.tile_mask(tile)
            pts = data.tis[mask] + data.tile_origin(tile)
            written.append(lds.tables.to_flat(data.lat[mask], t))
            for r in plan.recvs[t]:
                written.append(region_flat(prog, lds.tables, r.pred, r.ds,
                                           t) - int(
                    lds.tables.halo_unit @ np.asarray(r.ds)))
            for array, dep, dprime in deps:
                ood = np.any(amat @ (pts - dep).T > bvec[:, None], axis=0)
                sources[array].append(
                    lds.tables.to_flat(data.lat[mask][ood] - dprime, t))
        yield (lds, {a: np.concatenate(v) for a, v in sources.items()},
               np.concatenate(written))


def _check_in_box(prog):
    """The definition's out-of-domain sources lie in the box, apart
    from every written cell, and are exactly the frozen fill's cells."""
    reads = 0
    for lds, sources, written in _out_of_domain_sources(prog):
        fills = {f.array: f for f in lds.halo.fills}
        for array, cells in sources.items():
            assert cells.min(initial=0) >= 0
            assert cells.max(initial=-1) < lds.size
            assert not np.intersect1d(cells, written).size
            fill = fills.get(array)
            frozen = (np.zeros(0, dtype=np.int64) if fill is None
                      else fill.addr)
            assert len(np.unique(frozen)) == len(frozen)
            assert np.array_equal(np.unique(cells), np.sort(frozen))
            reads += len(cells)
    return reads


@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_out_of_domain_sources_land_in_the_lds_box(name, sizes, shape, tile):
    """``d' >= 0``, ``off_k = ceil(max_l d'_kl / c_k)``, ``max_dp <= v``
    and an injective ``map`` put every out-of-domain source in a halo
    cell of the reader's LDS that nothing else writes, so the boundary
    fill can park its value there."""
    app, h = resolve_config(name, sizes, shape, tile)
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    assert _check_in_box(prog)


@settings(max_examples=20, deadline=None)
@given(**DRAWN)
def test_out_of_domain_sources_land_in_the_lds_box_when_drawn(which, x, y,
                                                              z):
    _app, prog = drawn_program(which, x, y, z)
    _check_in_box(prog)


def test_a_fill_outside_the_box_is_a_named_error(monkeypatch):
    """The fill checks its addresses when the program's halo tables are
    built, before any run scatters: a negative one would wrap silently
    in numpy."""
    app = sor.app(4, 6)
    prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                        mapping_dim=2)
    build = dense._build_tables

    def corrupted(tables, lat, table_offsets):
        base = build(tables, lat, table_offsets)
        return {off: cells - (10 ** 9 if any(off) else 0)
                for off, cells in base.items()}

    monkeypatch.setattr(dense, "_build_tables", corrupted)
    with pytest.raises(HaloFillError, match="addresses cell -"):
        DistributedRun(prog, SPEC).execute_dense(app.init_value)
    assert prog.stages.state("halo_tables") == "pending"


def _expected_calls(prog):
    """The ``init_value`` multiset of one dense run, from the
    definitions: every cell of a pure-input read's access box once (the
    table fill), and per rank every distinct ``(ref.array,
    ref.index(j))`` once, over the iterations ``j`` of the rank's chain
    and the dependence reads whose source ``j - d`` is outside the
    domain (``init_value`` is pure, so a cell is asked for once per
    LDS that holds it)."""
    nest = prog.nest
    deps = read_dependences(nest)
    want = Counter()
    seen_tables = set()
    for si, stmt in enumerate(nest.statements):
        for ri, ref in enumerate(stmt.reads):
            if deps[si][ri] is not None:
                continue
            key = (ref.array, ref.offset, None if ref.matrix is None
                   else tuple(map(tuple, ref.matrix.rows())))
            if key in seen_tables:
                continue
            seen_tables.add(key)
            lo, shape = _access_box(ref, nest.domain)
            for idx in np.ndindex(*shape):
                want[(ref.array,
                      tuple(a + b for a, b in zip(idx, lo)))] += 1
    for pid in prog.pids:
        cells = set()
        for tile in prog.dist.tiles_of(pid):
            for j in prog.tiling.tile_points_np(tile).tolist():
                for si, stmt in enumerate(nest.statements):
                    for ri, ref in enumerate(stmt.reads):
                        dep = deps[si][ri]
                        if dep is None:
                            continue
                        src = tuple(a - b for a, b in zip(j, dep))
                        if not nest.domain.contains(src):
                            cells.add((ref.array, ref.index(tuple(j))))
        want.update(cells)
    return want

def _recorded(prog, init_value, **kwargs):
    """The ``init_value`` multiset of each of two runs of one
    ``DistributedRun``."""
    runs = []
    run = DistributedRun(prog, SPEC)
    for _ in range(2):
        calls = Counter()

        def init(array, cell, calls=calls):
            assert type(cell) is tuple
            calls[(array, tuple(int(x) for x in cell))] += 1
            return init_value(array, cell)

        run.execute_dense(init, **kwargs)
        runs.append(calls)
    return runs


class TestBoundaryCalls:
    @pytest.mark.parametrize("app,h,mdim", _configs())
    def test_numpy_and_native_make_the_defined_calls(self, tmp_path, app,
                                                     h, mdim):
        """On every run, the second one included: the frozen fill asks
        for its values again."""
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        want = _expected_calls(prog)
        assert sum(want.values())
        assert _recorded(prog, app.init_value) == [want, want]
        lib = build_native_library(prog, cache_root=str(tmp_path))
        if not lib.available:
            pytest.skip(f"no native library: {lib.fallback_reason}")
        assert _recorded(prog, app.init_value, native=lib) == [want, want]


# -- the halo tables: built once per program ---------------------------------------


def _check_message_cells(prog):
    """Every message's frozen cells are ``region_flat`` of its plan
    entry — on the receive side less ``halo_unit · d^S`` — inside the
    rank's LDS; full tiles share theirs, a partial tile's is narrowed."""
    halo = prog.stage("halo_tables")
    narr = len(prog.arrays)
    classify = prog.tiling.classify_tile
    messages = 0
    for rank, plan in build_rank_plans(prog).items():
        row = halo[rank]
        tb = row.tables
        assert len(row.packs) == len(row.unpacks) == len(plan.tiles)
        for t, tile in enumerate(plan.tiles):
            sides = [
                (plan.sends[t], row.packs[t], lambda s: (tile, s.direction),
                 lambda s: 0),
                (plan.recvs[t], row.unpacks[t], lambda r: (r.pred, r.ds),
                 lambda r: int(tb.halo_unit @ np.asarray(r.ds)))]
            for ops, cells, region, back in sides:
                assert len(ops) == len(cells)
                for op, msg in zip(ops, cells):
                    owner, direction = region(op)
                    want = region_flat(prog, tb, owner, direction,
                                       t) - back(op)
                    got = msg.addr + msg.base + t * tb.shift_unit
                    assert np.array_equal(got, want), (rank, t, op)
                    assert len(got) * narr == op.nelems
                    assert 0 <= got.min() and got.max() < row.size
                    if classify(owner) != "full":
                        assert msg.addr.itemsize <= 4
                    messages += 1
    full = [msg.addr for row in halo.values() for tile_msgs in row.packs
            for msg in tile_msgs if msg.addr.itemsize == 8]
    assert len({id(a) for a in full}) <= len(
        {id(row.tables) for row in halo.values()}) * len(prog.comm.d_m)
    return messages


@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_message_cells_are_the_region_maps(name, sizes, shape, tile):
    app, h = resolve_config(name, sizes, shape, tile)
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    assert _check_message_cells(prog)


@settings(max_examples=20, deadline=None)
@given(**DRAWN)
def test_message_cells_are_the_region_maps_when_drawn(which, x, y, z):
    _app, prog = drawn_program(which, x, y, z)
    _check_message_cells(prog)


class TestBuiltOncePerProgram:
    @staticmethod
    def _prog():
        app = sor.app(5, 7)
        return app, TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                                 mapping_dim=2)

    def test_a_second_run_builds_nothing(self):
        app, prog = self._prog()
        run = DistributedRun(prog, SPEC)
        assert prog.stages.state("halo_tables") == "pending"
        first, _ = run.execute_dense(app.init_value)
        log = dict(prog.stages.log)
        assert log["halo_tables"][0] == "built"
        halo = prog.stage("halo_tables")
        second, _ = run.execute_dense(app.init_value)
        assert prog.stages.log == log
        assert prog.stage("halo_tables") is halo
        for name, field in first.items():
            assert np.array_equal(field.values, second[name].values)

    def test_parallel_builds_it_in_the_parent_before_forking(
            self, monkeypatch):
        app, prog = self._prog()
        states = []
        real = parallel.get_context

        class Spy:
            def __init__(self, ctx):
                self.ctx = ctx

            def __getattr__(self, name):
                return getattr(self.ctx, name)

            def Process(self, *args, **kwargs):
                states.append(prog.stages.state("halo_tables"))
                return self.ctx.Process(*args, **kwargs)

        monkeypatch.setattr(parallel, "get_context",
                            lambda method: Spy(real(method)))
        got, _ = DistributedRun(prog, SPEC).execute_parallel(
            app.init_value, workers=2, timeout=60.0)
        assert states == ["built", "built"]
        want, _ = DistributedRun(prog, SPEC).execute_dense(app.init_value)
        for name, field in want.items():
            assert np.array_equal(field.values, got[name].values)
