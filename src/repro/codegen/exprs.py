"""Affine expressions rendered as C, with exact integer floor/ceil.

Fourier-Motzkin bounds are rational affine functions of outer loop
variables; emitting them needs the classic ``floord``/``ceild`` helpers
(C integer division truncates toward zero, which is wrong for negative
numerators — the same pitfall every polyhedral code generator documents).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from repro.polyhedra.fourier_motzkin import LoopBound

C_PROLOGUE = """\
/* Exact integer floor/ceil division (C '/' truncates toward zero). */
static inline long floord(long a, long b)
{ return a / b - (((a % b) != 0) && ((a ^ b) < 0)); }
static inline long ceild(long a, long b)
{ return a / b + (((a % b) != 0) && ((a ^ b) > 0)); }
"""


def lcm_den(values: Iterable[Fraction]) -> int:
    """Least common denominator of ``values``."""
    den = 1
    for x in values:
        den = den * x.denominator // gcd(den, x.denominator)
    return den


def affine_sum(ks: Sequence[int], names: Sequence[str], k0: int,
               ) -> Tuple[str, int]:
    """``ks . names + k0`` as text, with its number of terms."""
    terms: List[str] = []
    for k, name in zip(ks, names):
        if k == 1:
            terms.append(name)
        elif k == -1:
            terms.append(f"-{name}")
        elif k != 0:
            terms.append(f"{k}*{name}")
    if k0 != 0 or not terms:
        terms.append(str(k0))
    return " + ".join(terms).replace("+ -", "- "), len(terms)


def affine_to_c(coeffs: Sequence[Fraction], const: Fraction,
                names: Sequence[str], rounding: str) -> str:
    """Render ``floor/ceil(coeffs . names + const)`` as a C expression.

    All coefficients are scaled to a common denominator so the rounding
    is a single exact ``floord``/``ceild`` call.
    """
    if rounding not in ("floor", "ceil"):
        raise ValueError("rounding must be 'floor' or 'ceil'")
    den = lcm_den([const, *coeffs])
    num, nterms = affine_sum([int(c * den) for c in coeffs], names,
                             int(const * den))
    if den == 1:
        return num if nterms == 1 else f"({num})"
    fn = "floord" if rounding == "floor" else "ceild"
    return f"{fn}({num}, {den})"


def bound_to_c(bound: LoopBound, names: Sequence[str], kind: str) -> str:
    """Render a :class:`repro.polyhedra.fourier_motzkin.LoopBound` side.

    ``kind='lower'`` gives ``max(ceild(...), ...)``; ``kind='upper'``
    gives ``min(floord(...), ...)`` — exactly the §2.1 bound shape.
    C's ``min``/``max`` take two arguments, so they nest.
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
    out = exprs[0]
    for e in exprs[1:]:
        out = f"{combiner}({out}, {e})"
    return out
