"""The dense back-end's address tables are ``map`` and ``loc⁻¹∘f_w``.

``RankLDS.to_flat`` stays the single definition of the condensed
``map``; the tables evaluate it once per LDS geometry and every tile
only adds a constant.  These properties pin the algebra down against
the definitions it replaces, for every rank, tile, offset and index
set of:

* the six reference configs (tests/artifacts/test_roundtrip.py) —
  skewed SOR writes through a non-identity access matrix, ADI writes
  two arrays;
* strided-HNF tilings (some ``c_k > 1``): the two hand-written ones
  and cone candidates drawn from ``tuning/candidates.py``;
* hypothesis-drawn tile extents and index subsets.

The boundary contract rides along: the numpy and the native path make
the same scalar ``init_value`` calls — one per executed point whose
source iteration is outside the domain, plus the pure-input table fill
— as the definition the parent commit implemented batch by batch.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import adi, heat, jacobi, sor
from repro.native.engine import build_native_library
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.dense import DenseData, _access_box, read_dependences
from repro.tiling.ttis import TTIS
from repro.tuning import generate_candidates
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
    assert data.table_offsets[0] == (0,) * prog.n
    assert any(any(off) for off in data.table_offsets)
    checked = 0
    for pid in prog.pids:
        lds = data.rank(pid)
        tb = lds.tables
        assert tb.wbase is tb.base[data.table_offsets[0]]
        for tile in prog.dist.tiles_of(pid):
            t = prog.dist.chain_index(tile)
            origin = data.tile_origin(tile)
            for idx in _index_sets(data.nlat, prog.tiling.tile_mask(tile), rng):
                for off in data.table_offsets:
                    want = lds.to_flat(
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
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        data = DenseData(prog, app.init_value)
        ranks = [data.rank(pid) for pid in prog.pids]
        geoms = {(r.geom.shape, r.geom.offsets) for r in ranks}
        assert len(data.lds_tables) == len(geoms) < len(ranks)

    @settings(max_examples=20, deadline=None)
    @given(**DRAWN, seed=st.integers(0, 2 ** 16))
    def test_drawn_tilings(self, which, x, y, z, seed):
        _app, prog = drawn_program(which, x, y, z)
        _check_tables(prog, seed)


# -- the boundary contract: same scalar init_value calls ------------------------


def _expected_calls(prog):
    """The ``init_value`` multiset of one dense run, from the
    definitions: every cell of a pure-input read's access box once (the
    table fill), and ``(ref.array, ref.index(j))`` once per iteration
    ``j`` and dependence read whose source ``j - d`` is outside the
    domain."""
    nest = prog.nest
    deps = read_dependences(nest)
    want = Counter()
    seen_tables = set()
    for si, stmt in enumerate(nest.statements):
        for ri, ref in enumerate(stmt.reads):
            dep = deps[si][ri]
            if dep is None:
                key = (ref.array, ref.offset, None if ref.matrix is None
                       else tuple(map(tuple, ref.matrix.rows())))
                if key in seen_tables:
                    continue
                seen_tables.add(key)
                lo, shape = _access_box(ref, nest.domain)
                for idx in np.ndindex(*shape):
                    want[(ref.array,
                          tuple(a + b for a, b in zip(idx, lo)))] += 1
                continue
            for tile in prog.dist.tiles:
                for j in prog.tiling.tile_points_np(tile).tolist():
                    src = tuple(a - b for a, b in zip(j, dep))
                    if not nest.domain.contains(src):
                        want[(ref.array, ref.index(tuple(j)))] += 1
    return want


def _recorded(prog, init_value, **kwargs):
    calls = Counter()

    def init(array, cell):
        assert type(cell) is tuple
        calls[(array, tuple(int(x) for x in cell))] += 1
        return init_value(array, cell)

    DistributedRun(prog, SPEC).execute_dense(init, **kwargs)
    return calls


class TestBoundaryCalls:
    @pytest.mark.parametrize("app,h,mdim", _configs())
    def test_numpy_and_native_make_the_defined_calls(self, tmp_path, app,
                                                     h, mdim):
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        want = _expected_calls(prog)
        assert sum(want.values())
        assert _recorded(prog, app.init_value) == want
        lib = build_native_library(prog, cache_root=str(tmp_path))
        if not lib.available:
            pytest.skip(f"no native library: {lib.fallback_reason}")
        assert _recorded(prog, app.init_value, native=lib) == want
