"""Affine expressions rendered as C (or Python), with exact integer
floor/ceil.

Fourier-Motzkin bounds are rational affine functions of outer loop
variables; emitting them needs the classic ``floord``/``ceild`` helpers
(C integer division truncates toward zero, which is wrong for negative
numerators — the same pitfall every polyhedral code generator documents).
One renderer serves the C and the Python emitters: both targets define
``floord``/``ceild``, only the ``min``/``max`` arity differs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from repro.polyhedra.fourier_motzkin import LoopBound

C_PROLOGUE = """\
/* Exact integer floor/ceil division (C '/' truncates toward zero). */
static inline long floord(long a, long b)
{ return a / b - (((a % b) != 0) && ((a ^ b) < 0)); }
static inline long ceild(long a, long b)
{ return a / b + (((a % b) != 0) && ((a ^ b) > 0)); }
"""


def affine_to_c(coeffs: Sequence[Fraction], const: Fraction,
                names: Sequence[str], rounding: str) -> str:
    """Render ``floor/ceil(coeffs . names + const)`` as a C expression
    (valid Python too: both targets define ``floord``/``ceild``).

    All coefficients are scaled to a common denominator so the rounding
    is a single exact ``floord``/``ceild`` call.
    """
    if rounding not in ("floor", "ceil"):
        raise ValueError("rounding must be 'floor' or 'ceil'")
    den = const.denominator
    for c in coeffs:
        den = den * c.denominator // _gcd(den, c.denominator)
    terms: List[str] = []
    for c, name in zip(coeffs, names):
        k = int(c * den)
        if k == 0:
            continue
        if k == 1:
            terms.append(name)
        elif k == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{k}*{name}")
    k0 = int(const * den)
    if k0 != 0 or not terms:
        terms.append(str(k0))
    num = " + ".join(terms).replace("+ -", "- ")
    if den == 1:
        return num if len(terms) == 1 else f"({num})"
    fn = "floord" if rounding == "floor" else "ceild"
    return f"{fn}({num}, {den})"


def bound_to_c(bound: LoopBound, names: Sequence[str], kind: str,
               nary_minmax: bool = False) -> str:
    """Render a :class:`repro.polyhedra.fourier_motzkin.LoopBound` side.

    ``kind='lower'`` gives ``max(ceild(...), ...)``; ``kind='upper'``
    gives ``min(floord(...), ...)`` — exactly the §2.1 bound shape.
    C's ``min``/``max`` are two-argument macros, so they nest; a target
    whose ``min``/``max`` take any number of arguments (Python) asks
    for the flat ``nary_minmax`` spelling.
    """
    if kind == "lower":
        exprs = [affine_to_c(c, b, names, "ceil") for c, b in bound.lowers]
        combiner = "max"
    elif kind == "upper":
        exprs = [affine_to_c(c, b, names, "floor") for c, b in bound.uppers]
        combiner = "min"
    else:
        raise ValueError("kind must be 'lower' or 'upper'")
    if not exprs:
        raise ValueError("unbounded loop variable")
    if nary_minmax and len(exprs) > 1:
        return f"{combiner}({', '.join(exprs)})"
    out = exprs[0]
    for e in exprs[1:]:
        out = f"{combiner}({out}, {e})"
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)
