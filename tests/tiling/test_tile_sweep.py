"""The tile space and the integer points, swept level by level in int64.

``enumerate_tiles`` and ``integer_points`` evaluate each loop level's
bounds for every prefix at once and filter the candidates in batches;
these tests hold them to their scalar definitions on the seven CI
configurations, the drawn tilings of the property suites and strided
cone candidates of the tuner (``c_k != 1``):

* the tile space is ``sorted({tile_of(j) for j in integer_points})``;
* every kept tile's class and mask equal a fresh ``classify_tile`` /
  ``tile_mask``, and no rejected candidate leaves a verdict behind;
* ``integer_points`` is the walk over ``LoopBound.evaluate`` with the
  original constraints re-checked per point;
* the strided TTIS lattice is the HNF walk of ``lattice_points``.
"""

import importlib
from typing import Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import adi, jacobi, resolve_config, sor
from repro.polyhedra import (
    IntegerBound,
    Polyhedron,
    box,
    integer_point_chunks,
    loop_bounds,
    sweep,
)
from repro.polyhedra.integer_points import integer_points
from repro.tiling import TTIS, TilingTransformation, transform
from repro.tuning.candidates import generate_candidates
from tests.codegen.test_one_compile import CI_CONFIGS, IDS
from tests.runtime.tilings import DRAWN, drawn_program, random_cases

# The package re-exports the function under the module's own name.
integer_points_module = importlib.import_module(
    "repro.polyhedra.integer_points")


def scalar_walk(p: Polyhedron) -> Iterator[Tuple[int, ...]]:
    """The integer points by one ``LoopBound.evaluate`` per prefix."""
    bounds = loop_bounds(p)

    def rec(prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == p.dim:
            if p.contains(prefix):
                yield prefix
            return
        lo, hi = bounds[len(prefix)].evaluate(prefix)
        for v in range(lo, hi + 1):
            yield from rec(prefix + (v,))

    return rec(())


def check_sweep(h, domain: Polyhedron) -> None:
    tt = TilingTransformation(h, domain)
    tiles = tt.enumerate_tiles()
    points = list(integer_points(domain))
    assert points == list(scalar_walk(domain))
    assert tiles == sorted({tt.tile_of(j) for j in points})

    fresh = TilingTransformation(h, domain)
    classes = tt.stage("classes")
    masks = tt.stage("masks")
    assert list(classes) == tiles
    partial = [t for t in tiles if classes[t] == "partial"]
    assert list(masks) == partial
    for t in tiles:
        assert classes[t] == fresh.classify_tile(t)
    for t in partial:
        assert masks[t].base is None     # its own array, not a batch view
        assert np.array_equal(masks[t], fresh.tile_mask(t))
    assert sum(tt.tile_point_count(t) for t in tiles) == len(points)

    lat = tt.ttis.lattice_points_np()
    assert list(map(tuple, lat.tolist())) == list(tt.ttis.lattice_points())


@pytest.mark.parametrize("name,sizes,shape,tile", CI_CONFIGS, ids=IDS)
def test_ci_configs(name, sizes, shape, tile):
    app, h = resolve_config(name, sizes, shape, tile)
    check_sweep(h, app.nest.domain)


@given(**DRAWN)
@settings(max_examples=25, deadline=None)
def test_drawn_paper_tilings(which, x, y, z):
    app, prog = drawn_program(which, x, y, z)
    check_sweep(prog.tiling.h, app.nest.domain)


@given(random_cases())
@settings(max_examples=25, deadline=None)
def test_drawn_stencil_tilings(case):
    _deps, h, lo, hi, _coeffs = case
    check_sweep(h, box(lo, hi))


def strided_candidates(per_app: int = 2) -> List[tuple]:
    """The first cone candidates of each app whose TTIS strides ``c``
    differ from all ones (the tuner reaches them past its small-det
    bases), one per stride vector.  Later bases are skipped: their
    Fourier-Motzkin projections take minutes in ``Fraction``."""
    out = []
    for name, app in (("sor", sor.app(4, 6)), ("jacobi", jacobi.app(3, 5, 5)),
                      ("adi", adi.app(4, 5))):
        space = generate_candidates(app.nest.dependences, extents=(1, 2),
                                    max_bases=10 ** 4, max_candidates=10 ** 4,
                                    max_volume_scale=8)
        strides = set()
        for cand in space.candidates:
            try:
                c = TTIS(cand.h).c
            except ValueError:
                continue
            if c != (1,) * len(c) and c not in strides:
                strides.add(c)
                out.append(pytest.param(cand.h, app.nest.domain,
                                        id=f"{name}-{cand.label}"))
                if len(strides) == per_app:
                    break
    return out


STRIDED = strided_candidates()


def test_strided_candidates_exist():
    assert {p.id.split("-")[0] for p in STRIDED} == {"sor", "jacobi", "adi"}


@pytest.mark.parametrize("h,domain", STRIDED)
def test_strided_cone_candidates(h, domain):
    check_sweep(h, domain)


def test_mask_batches_do_not_change_the_tile_space(monkeypatch):
    """One partial candidate per mask batch keeps the same tiles,
    classes and masks as one batch for all."""
    app, h = resolve_config("sor", (10, 14), "nonrect", (3, 4, 5))
    whole = TilingTransformation(h, app.nest.domain)
    tiles = whole.enumerate_tiles()
    monkeypatch.setattr(transform, "MASK_BATCH", 1)
    single = TilingTransformation(h, app.nest.domain)
    assert single.enumerate_tiles() == tiles
    assert single.stage("classes") == whole.stage("classes")
    masks = single.stage("masks")
    assert list(masks) == list(whole.stage("masks"))
    assert all(np.array_equal(m, whole.stage("masks")[t])
               for t, m in masks.items())


def test_chunks_are_bounded_and_lexicographic(monkeypatch):
    """A domain larger than one chunk comes out in bounded chunks whose
    concatenation is the lexicographic walk."""
    dom = sor.app(6, 9).nest.domain
    monkeypatch.setattr(integer_points_module, "CHUNK", 16)
    chunks = list(integer_point_chunks(dom))
    assert all(0 < len(c) <= 16 for c in chunks)
    pts = np.concatenate(chunks)
    assert np.array_equal(np.lexsort(pts.T[::-1]), np.arange(len(pts)))
    assert list(map(tuple, pts.tolist())) == list(scalar_walk(dom))


def test_bounds_outside_int64_are_refused():
    """The sweep is exact only while every bound row fits in int64: a
    level whose rows could leave it raises instead of wrapping."""
    triangle = [IntegerBound(0, [((), 0, 1)], [((), 3, 1)]),
                IntegerBound(1, [((0,), 0, 1)], [((1,), 0, 1)])]
    assert [c.tolist() for c in sweep(triangle)] == [
        [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1], [2, 2], [3, 0], [3, 1],
         [3, 2], [3, 3]]]
    far = [IntegerBound(0, [((), 2 ** 31, 1)], [((), 2 ** 31, 1)]),
           IntegerBound(1, [((0,), 0, 1)], [((2 ** 40,), 0, 1)])]
    with pytest.raises(OverflowError):
        list(sweep(far))
