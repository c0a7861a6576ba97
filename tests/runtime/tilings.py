"""The tiling-drawing code the runtime property suites share.

One description of "a drawn legal tiling of a paper app", so every
suite that wants inputs beyond the six reference configs pushes the
same draws through its own assertions (ROADMAP item 1 grows this into
the one generator of legal inputs).
"""

from hypothesis import assume
from hypothesis import strategies as st

from repro.apps import adi, jacobi, sor
from repro.runtime import TiledProgram

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
