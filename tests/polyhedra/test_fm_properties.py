"""Property-based tests: FM projections and loop bounds vs brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import (
    Halfspace,
    box,
    eliminate_variable,
    integer_points,
    loop_bounds,
)


@st.composite
def bounded_2d_polyhedra(draw):
    """A 2D box intersected with up to 3 random half-planes."""
    lo = [draw(st.integers(-4, 0)), draw(st.integers(-4, 0))]
    hi = [draw(st.integers(1, 5)), draw(st.integers(1, 5))]
    p = box(lo, hi)
    n_extra = draw(st.integers(0, 3))
    for _ in range(n_extra):
        a = [draw(st.integers(-3, 3)), draw(st.integers(-3, 3))]
        b = draw(st.integers(-4, 8))
        p = p.with_constraint(Halfspace.of(a, b))
    return p, (tuple(lo), tuple(hi))


@given(bounded_2d_polyhedra())
@settings(max_examples=100, deadline=None)
def test_projection_is_exact_shadow(data):
    """x is in the projection iff some rational y makes (x, y) feasible.

    We verify the integer-relaxed direction both ways on a grid: any
    feasible (x, y) implies x in the shadow, and any x outside the
    shadow has no feasible partner."""
    p, (lo, hi) = data
    q = eliminate_variable(p, 1)
    for x in range(lo[0] - 1, hi[0] + 2):
        partner = any(
            p.contains((x, y)) for y in range(lo[1] - 1, hi[1] + 2)
        )
        if partner:
            assert q.contains((x,))
        if not q.contains((x,)):
            assert not partner


@given(bounded_2d_polyhedra())
@settings(max_examples=100, deadline=None)
def test_loop_bounds_cover_all_integer_points(data):
    """Walking the derived bounds + membership check finds exactly the
    brute-force integer point set (in the same lexicographic order)."""
    p, (lo, hi) = data
    want = [
        (x, y)
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
        if p.contains((x, y))
    ]
    got = list(integer_points(p))
    assert got == want


@given(bounded_2d_polyhedra())
@settings(max_examples=60, deadline=None)
def test_bounds_never_cut_feasible_points(data):
    """The FM bound interval at each level contains every feasible value."""
    p, (lo, hi) = data
    pts = list(integer_points(p))
    if not pts:
        return
    bounds = loop_bounds(p)
    b0 = bounds[0].evaluate(())
    for x, y in pts:
        assert b0[0] <= x <= b0[1]
        l1, u1 = bounds[1].evaluate((x,))
        assert l1 <= y <= u1
