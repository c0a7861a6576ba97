"""The input-drawing code the property suites share.

One description of "a drawn legal tiling of a paper app" and one of "a
random 2D stencil under a random legal tiling", so every suite that
wants inputs beyond the six reference configs pushes the same draws
through its own assertions (ROADMAP item 1 grows this into the one
generator of legal inputs).
"""

from hypothesis import assume
from hypothesis import strategies as st

from repro.apps import adi, jacobi, sor
from repro.distribution.communication import CommunicationSpec
from repro.linalg import RatMat
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.polyhedra import box
from repro.runtime import TiledProgram
from repro.tiling import TilingTransformation, is_legal_tiling

#: ``@given(**DRAWN)``: an app and its non-rectangular tile extents.
DRAWN = dict(which=st.sampled_from(["sor", "jacobi", "adi"]),
             x=st.integers(1, 4), y=st.integers(2, 5), z=st.integers(2, 5))


def drawn_program(which, x, y, z):
    """``(app, program)`` of one draw; illegal tilings (or ``c_k`` not
    dividing ``v_k``) are rejected, not failed."""
    app, shape = {
        "sor": (sor.app(4, 6), sor.h_nonrectangular),
        "jacobi": (jacobi.app(3, 5, 5), jacobi.h_nonrectangular),
        "adi": (adi.app(4, 5), adi.h_nr3),
    }[which]
    try:
        return app, TiledProgram(app.nest, shape(x, y, z))
    except ValueError:
        assume(False)


@st.composite
def random_cases(draw):
    """``(deps, h, lo, hi, coeffs)``: a random 2D stencil (small
    lexicographically positive dependence set, random domain, random
    kernel coefficients) under a random legal tiling ``H = P^-1`` with
    integer ``P``."""
    deps = []
    for _ in range(draw(st.integers(1, 3))):
        d = (draw(st.integers(0, 2)), draw(st.integers(-2, 2)))
        if d[0] == 0:
            d = (0, abs(d[1]))
        if d == (0, 0):
            d = (1, 0)
        deps.append(d)
    deps = sorted(set(deps))
    a = draw(st.integers(2, 4))
    dd = draw(st.integers(2, 4))
    b = draw(st.integers(-2, 2))
    c = draw(st.integers(-2, 2))
    p = RatMat([[a, b], [c, dd]])
    assume(p.det() != 0)
    h = p.inverse()
    assume(is_legal_tiling(h, deps))
    # reject tilings violating framework preconditions (c_k | v_kk for
    # the LDS condensation; dependencies within one tile for the §3.2
    # communication scheme) — those raise cleanly, tested elsewhere.
    try:
        tt = TilingTransformation(h, box((0, 0), (8, 8)))
        CommunicationSpec(tt, deps, 0)
        CommunicationSpec(tt, deps, 1)
    except ValueError:
        assume(False)
    lo = (draw(st.integers(-2, 0)), draw(st.integers(-2, 0)))
    hi = (lo[0] + draw(st.integers(3, 7)), lo[1] + draw(st.integers(3, 7)))
    coeffs = tuple(draw(st.integers(1, 9)) / 16.0 for _ in deps)
    return deps, h, lo, hi, coeffs


def stencil_nest(deps, lo, hi, coeffs):
    """The one-statement nest of a :func:`random_cases` draw."""
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0)),
        [ArrayRef.of("A", tuple(-x for x in d)) for d in deps],
        0.5 + sum(c * v for c, v in zip(coeffs, kexpr.reads(len(deps)))),
    )
    return LoopNest.rectangular("prop", list(lo), list(hi), [stmt],
                                list(deps))


def stencil_init(_arr, cell):
    return 0.03 * cell[0] - 0.07 * cell[1] + 0.5
