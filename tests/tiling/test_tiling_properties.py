"""Property-based tests: random legal tilings of random 2D spaces.

The central invariant of tiling: ``floor(H j)`` partitions the iteration
space — every point belongs to exactly one enumerated tile — and the
TTIS machinery (strides, offsets, inverse maps) is exact on the lattice.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linalg import RatMat
from repro.polyhedra import box
from repro.tiling import TTIS, TilingTransformation


@st.composite
def integer_p_matrices(draw):
    """Random 2x2 integer P with nonzero det and modest entries; H = P^-1."""
    a = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    b = draw(st.integers(-2, 2))
    c = draw(st.integers(-2, 2))
    p = RatMat([[a, b], [c, d]])
    assume(p.det() != 0)
    return p


@st.composite
def domains_2d(draw):
    lo = (draw(st.integers(-3, 1)), draw(st.integers(-3, 1)))
    hi = (lo[0] + draw(st.integers(2, 8)), lo[1] + draw(st.integers(2, 8)))
    return box(lo, hi), lo, hi


@given(integer_p_matrices(), domains_2d())
@settings(max_examples=60, deadline=None)
def test_tiles_partition_every_point(p, dom):
    domain, lo, hi = dom
    h = p.inverse()
    tt = TilingTransformation(h, domain)
    tiles = set(tt.enumerate_tiles())
    total = 0
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            js = tt.tile_of((x, y))
            assert js in tiles
            pts = set(map(tuple, tt.tile_points_np(js).tolist()))
            assert (x, y) in pts
            total += 1
    assert sum(tt.tile_point_count(t) for t in tiles) == total


@given(integer_p_matrices())
@settings(max_examples=80, deadline=None)
def test_ttis_lattice_count_is_volume(p):
    h = p.inverse()
    try:
        t = TTIS(h)
    except ValueError:
        # c_k | v_kk can fail for adversarial H' — that's a documented
        # precondition of the LDS condensation, not a bug.
        return
    pts = list(t.lattice_points())
    assert len(pts) == t.tile_volume == abs(int(p.det()))
    assert len(set(pts)) == len(pts)


@given(integer_p_matrices())
@settings(max_examples=80, deadline=None)
def test_ttis_roundtrip_on_lattice(p):
    h = p.inverse()
    try:
        t = TTIS(h)
    except ValueError:
        return
    for jp in t.lattice_points():
        j = t.from_ttis(jp)
        assert t.to_ttis(j) == tuple(jp)
        assert t.contains_lattice_point(jp)


@given(integer_p_matrices(), domains_2d())
@settings(max_examples=40, deadline=None)
def test_classify_tile_sound(p, dom):
    domain, lo, hi = dom
    tt = TilingTransformation(p.inverse(), domain)
    for t in tt.enumerate_tiles():
        cls = tt.classify_tile(t)
        exact = int(tt.tile_mask(t).sum())
        if cls == "full":
            assert exact == tt.tile_volume()
        elif cls == "empty":
            assert exact == 0
