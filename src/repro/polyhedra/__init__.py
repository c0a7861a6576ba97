"""Polyhedral substrate: exact half-space polyhedra and projections.

Iteration spaces are convex polyhedra ``{ j : A j <= b }`` over ``Z^n``;
tile spaces and loop bounds are obtained by Fourier-Motzkin elimination.
Everything is exact: the projections in Fraction arithmetic, their
integer points in one int64 level sweep — this is compiler
infrastructure, not numerics.
"""

from repro.polyhedra.halfspace import Halfspace, Polyhedron, box
from repro.polyhedra.fourier_motzkin import (
    eliminate_variable,
    project_onto_prefix,
    is_rationally_empty,
    loop_bounds,
    LoopBound,
    IntegerBound,
)
from repro.polyhedra.vertices import (
    enumerate_vertices,
    bounding_box,
    image_bounding_box,
)
from repro.polyhedra.integer_points import (
    integer_points,
    integer_point_chunks,
    sweep,
    count_integer_points,
    contains_integer_point,
)

__all__ = [
    "Halfspace",
    "Polyhedron",
    "box",
    "eliminate_variable",
    "project_onto_prefix",
    "is_rationally_empty",
    "loop_bounds",
    "LoopBound",
    "IntegerBound",
    "enumerate_vertices",
    "bounding_box",
    "image_bounding_box",
    "integer_points",
    "integer_point_chunks",
    "sweep",
    "count_integer_points",
    "contains_integer_point",
]
