"""Perfect loop nests over convex polyhedral iteration spaces.

A :class:`LoopNest` bundles the iteration polyhedron ``J^n`` with the
statements it executes (each one write reference plus read references)
and the uniform dependence vectors relating them — everything §2.1
postulates about the input programs.  The paper presents a single
statement "to simplify the model" and notes multiple statements/arrays
adapt directly; we support the general form because ADI (§4.3) writes
two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.loops.kexpr import KExpr
from repro.loops.reference import ArrayRef
from repro.polyhedra.halfspace import Polyhedron, box


@dataclass(frozen=True)
class Statement:
    """Single assignment ``write := expr(reads...)``.

    ``expr`` is the loop body: a :class:`~repro.loops.kexpr.KExpr` tree
    over the read slots (``KRead(i)`` is the value of ``reads[i]`` at
    the current iteration).  It is the one kernel definition every
    consumer shares — the sequential oracle and the data engines call
    :func:`repro.loops.kexpr.evaluate` on it (scalars or numpy
    batches), the native backend renders it to C, and TV05 proves the
    rendering.  The compiler proper (tiling, distribution, schedules)
    never looks at it, so a statement built without one is a valid
    *structural* description (dependence analysis, code-shape tests)
    that simply cannot be executed.
    """

    write: ArrayRef
    reads: Tuple[ArrayRef, ...]
    expr: Optional[KExpr] = None

    @staticmethod
    def of(write: ArrayRef, reads: Sequence[ArrayRef],
           expr: Optional[KExpr] = None) -> "Statement":
        return Statement(write, tuple(reads), expr)

    @property
    def dim(self) -> int:
        return self.write.dim


@dataclass(frozen=True)
class LoopNest:
    """A perfectly nested loop: polyhedral domain + statements + deps.

    ``dependences`` are the uniform dependence vectors ``d_i`` (each a
    tuple of ints); ``domain`` is the iteration space ``J^n``.
    """

    name: str
    domain: Polyhedron
    statements: Tuple[Statement, ...]
    dependences: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def rectangular(name: str,
                    lower: Sequence[int],
                    upper: Sequence[int],
                    statements: Sequence[Statement],
                    dependences: Sequence[Sequence[int]]) -> "LoopNest":
        """The common case ``FOR j_k = l_k TO u_k`` with constant bounds."""
        return LoopNest(
            name=name,
            domain=box(lower, upper),
            statements=tuple(statements),
            dependences=tuple(tuple(int(x) for x in d) for d in dependences),
        )

    @property
    def depth(self) -> int:
        return self.domain.dim

    @property
    def written_arrays(self) -> Tuple[str, ...]:
        return tuple(s.write.array for s in self.statements)

    def dependence_matrix_columns(self) -> Tuple[Tuple[int, ...], ...]:
        """Dependence vectors as columns (matching the paper's D)."""
        return self.dependences

    def __post_init__(self):
        n = self.domain.dim
        if not self.statements:
            raise ValueError("a loop nest needs at least one statement")
        for s in self.statements:
            if s.dim != n:
                raise ValueError(
                    f"statement dimension {s.dim} != nest depth {n}"
                )
        writes = [s.write.array for s in self.statements]
        if len(set(writes)) != len(writes):
            raise ValueError(
                "single-assignment model: each array written at most once "
                "per iteration"
            )
        for d in self.dependences:
            if len(d) != n:
                raise ValueError(f"dependence {d} has wrong dimension")
