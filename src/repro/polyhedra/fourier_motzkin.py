"""Fourier-Motzkin elimination and loop-bound derivation.

This is the classic bound-derivation engine behind tiled code
generation: to emit ``FOR j_k = l_k TO u_k`` the compiler projects the
iteration polyhedron onto the first ``k`` variables and reads off, for
variable ``k``, the lower bounds (constraints with negative coefficient
on ``x_k``) and upper bounds (positive coefficient), each an affine
function of the outer variables — exactly the
``max(ceil(...)) .. min(floor(...))`` form of the paper's §2.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from repro.polyhedra.halfspace import Halfspace, Polyhedron

#: An integer bound row ``(coeffs, const, den)``: the affine expression
#: ``(coeffs . outer + const) / den`` with ``den > 0``.
IntRow = Tuple[Tuple[int, ...], int, int]


def eliminate_variable(p: Polyhedron, k: int) -> Polyhedron:
    """Project out variable ``k``; the result has dimension ``dim - 1``.

    Standard Fourier-Motzkin: pair every lower bound on ``x_k`` with
    every upper bound; constraints not mentioning ``x_k`` pass through.
    The projection is exact over the rationals (the real shadow of the
    polyhedron); integer-exactness gaps are handled by the boundary-tile
    correction in codegen, matching the paper's "for boundary tiles
    these bounds can be corrected" remark.
    """
    if not (0 <= k < p.dim):
        raise ValueError(f"variable index {k} out of range for dim {p.dim}")
    lowers: List[Halfspace] = []   # a_k < 0:  x_k >= (...)/(-a_k)
    uppers: List[Halfspace] = []   # a_k > 0:  x_k <= (...)/a_k
    keep: List[Halfspace] = []
    for c in p.constraints:
        ck = c.a[k]
        if ck < 0:
            lowers.append(c)
        elif ck > 0:
            uppers.append(c)
        else:
            keep.append(c)

    def drop_k(a: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
        return a[:k] + a[k + 1:]

    out: List[Halfspace] = [Halfspace(drop_k(c.a), c.b) for c in keep]
    for lo in lowers:
        for up in uppers:
            # lo: a x <= b with a_k < 0; up: a' x <= b' with a'_k > 0.
            # Combine with weights up.a[k] and -lo.a[k] to cancel x_k.
            wl = up.a[k]
            wu = -lo.a[k]
            a_new = tuple(
                wl * la + wu * ua
                for la, ua in zip(drop_k(lo.a), drop_k(up.a))
            )
            b_new = wl * lo.b + wu * up.b
            out.append(Halfspace(a_new, b_new))
    if not out:
        # Unconstrained after projection: represent the universe.
        out.append(Halfspace(tuple(Fraction(0) for _ in range(p.dim - 1)),
                             Fraction(0)))
    return Polyhedron(out).normalized()


def is_rationally_empty(p: Polyhedron) -> bool:
    """Exact emptiness over the rationals.

    Eliminates every variable; the polyhedron is empty iff some derived
    variable-free constraint is infeasible.  (Integer emptiness of a
    rationally nonempty polyhedron needs
    :func:`repro.polyhedra.integer_points.contains_integer_point`.)
    """
    q = p.normalized()
    while True:
        if q.is_obviously_empty():
            return True
        if q.dim == 1:
            break
        q = eliminate_variable(q, q.dim - 1)
    # One variable left: empty iff max lower bound > min upper bound.
    lowers = []
    uppers = []
    for c in q.constraints:
        a = c.a[0]
        if a > 0:
            uppers.append(c.b / a)
        elif a < 0:
            lowers.append(c.b / a)
        elif c.b < 0:
            return True
    if lowers and uppers and max(lowers) > min(uppers):
        return True
    return False


def project_onto_prefix(p: Polyhedron, k: int) -> Polyhedron:
    """Project onto the first ``k`` variables (eliminate the rest).

    Elimination goes innermost-first, mirroring how loop nests are
    generated outside-in.
    """
    if not (0 <= k <= p.dim):
        raise ValueError("prefix length out of range")
    q = p
    for var in range(p.dim - 1, k - 1, -1):
        q = eliminate_variable(q, var)
    return q


@dataclass(frozen=True)
class LoopBound:
    """Bounds for one loop variable as affine functions of outer variables.

    ``lowers``/``uppers`` are lists of ``(coeffs, const)`` meaning the
    affine expression ``coeffs . outer + const``; the loop bound is
    ``l_k = max(ceil(expr))`` over lowers and ``u_k = min(floor(expr))``
    over uppers — the exact shape of §2.1's ``l_k``/``u_k``.
    """

    depth: int
    lowers: Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...]
    uppers: Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...]

    def evaluate(self, outer: Sequence[int]) -> Tuple[int, int]:
        """Integer (l, u) for concrete outer indices, ceil/floor applied."""
        if len(outer) != self.depth:
            raise ValueError(
                f"need {self.depth} outer indices, got {len(outer)}"
            )

        def dot(coeffs: Tuple[Fraction, ...]) -> Fraction:
            return sum((c * o for c, o in zip(coeffs, outer)), Fraction(0))

        lo = max(
            (math.ceil(dot(c) + b) for c, b in self.lowers),
            default=None,
        )
        hi = min(
            (math.floor(dot(c) + b) for c, b in self.uppers),
            default=None,
        )
        if lo is None or hi is None:
            raise ValueError("variable is unbounded; cannot emit loop bounds")
        return lo, hi

    def integer_bound(self) -> "IntegerBound":
        """The same bounds as integer rows: each ``(coeffs, const)`` is
        scaled by the lcm of its denominators."""
        def row(coeffs: Tuple[Fraction, ...], const: Fraction) -> IntRow:
            den = math.lcm(const.denominator,
                           *(c.denominator for c in coeffs))
            return (tuple(int(c * den) for c in coeffs), int(const * den),
                    den)

        return IntegerBound(self.depth,
                            [row(c, b) for c, b in self.lowers],
                            [row(c, b) for c, b in self.uppers])


class IntegerBound:
    """One loop level's bounds in int64, for many prefixes at once.

    ``x_k >= max ceil(row)`` over the lower rows and ``x_k <= min
    floor(row)`` over the upper ones, where a row is ``(coeffs . outer +
    const) / den`` with ``den > 0`` — :meth:`LoopBound.evaluate` with
    ``ceil`` and ``floor`` as floor divisions of integers.
    """

    __slots__ = ("_lo", "_hi", "_weight")

    def __init__(self, depth: int, lowers: Sequence[IntRow],
                 uppers: Sequence[IntRow]) -> None:
        if not lowers or not uppers:
            raise ValueError("variable is unbounded; cannot emit loop bounds")
        self._lo = self._arrays(depth, lowers)
        self._hi = self._arrays(depth, uppers)
        # |coeffs . outer + const| <= max|outer| * sum|coeffs| + |const|
        rows = (*lowers, *uppers)
        self._weight = (max(sum(abs(c) for c in r[0]) for r in rows),
                        max(abs(r[1]) for r in rows))

    @staticmethod
    def _arrays(depth: int, rows: Sequence[IntRow]
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        coeffs = np.array([c for c, _b, _d in rows],
                          dtype=np.int64).reshape(len(rows), depth)
        return (coeffs.T.copy(),
                np.array([b for _c, b, _d in rows], dtype=np.int64),
                np.array([d for _c, _b, d in rows], dtype=np.int64))

    def range_of(self, outer: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` int64 arrays, one entry per row of the ``(M,
        depth)`` array ``outer``; ``hi < lo`` where a prefix has no
        value."""
        top = int(np.abs(outer).max(initial=0))
        if top * self._weight[0] + self._weight[1] >= 2 ** 62:
            raise OverflowError("loop bounds leave the int64 range")
        num, const, den = self._lo
        lo = -((-(outer @ num + const)) // den)
        num, const, den = self._hi
        hi = (outer @ num + const) // den
        return lo.max(axis=1), hi.min(axis=1)


def loop_bounds(p: Polyhedron) -> List[LoopBound]:
    """Derive nested-loop bounds for all variables of ``p``.

    Returns one :class:`LoopBound` per variable, outermost first; bound
    ``k`` only references variables ``0..k-1``.
    """
    n = p.dim
    bounds: List[LoopBound] = []
    # Successive projections P_n = p, P_{n-1}, ..., P_1.
    projections = [None] * (n + 1)
    projections[n] = p.normalized()
    for k in range(n - 1, 0, -1):
        projections[k] = eliminate_variable(projections[k + 1], k)
    for k in range(n):
        proj = projections[k + 1]  # polyhedron over variables 0..k
        lowers = []
        uppers = []
        for c in proj.constraints:
            ck = c.a[k]
            if ck == 0:
                continue
            coeffs = tuple(-a / ck for a in c.a[:k])
            const = c.b / ck
            if ck > 0:
                uppers.append((coeffs, const))     # x_k <= coeffs.outer + const
            else:
                lowers.append((coeffs, const))     # x_k >= coeffs.outer + const
        bounds.append(LoopBound(depth=k,
                                lowers=tuple(lowers),
                                uppers=tuple(uppers)))
    return bounds
