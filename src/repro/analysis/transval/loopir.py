"""Loop-IR for translation validation: expressions, atoms, intervals.

Both readers (:mod:`repro.analysis.transval.creader` for emitted C,
:mod:`repro.analysis.transval.pyreader` for emitted Python) lower the
generated text into this tiny expression language.  The passes then
compare the parsed structures against the symbolic pipeline using two
exact tools:

* **rounded-affine atoms** — a canonical form for the bound expressions
  polyhedral codegen emits: an affine form over loop variables, an
  optional single ``floord``/``ceild`` rounding, and an outer integer
  shift (folded into the rounding: ``floor(x) + n = floor(x + n)``).
  Coefficients are :class:`~fractions.Fraction`, so
  ``floord(2*x + 4, 2)`` and ``floord(x + 2, 1*1)`` canonicalize to the
  same atom — the gcd reduction is justified by
  ``floor((k*a)/(k*b)) = floor(a/b)``.
* **interval abstract interpretation** — exact min/max propagation over
  integer boxes.  On the emitted subscripts this is not just sound but
  *exact*: every division in a ``map()`` expansion has a constant
  positive divisor and the mapping-dimension numerator is monotone in
  both ``t`` and ``j'_m`` (``c_k | v_k``), so interval endpoints are
  attained.

Nothing in here imports the compiler pipeline; the module is shared
vocabulary between readers and passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "FloorDiv", "CeilDiv", "Mod",
    "MinOf", "MaxOf", "NotAffine", "ReaderError", "Atom",
    "add", "neg", "sub", "affine", "rounded_atom", "atom_from_affine",
    "bound_atoms", "substitute", "interval", "floord", "ceild",
]


class ReaderError(ValueError):
    """Emitted text does not have the shape this validator understands.

    Raised by the readers on structural surprises (and by the interval
    evaluator on free variables).  The passes convert it into a TV01
    diagnostic: text that cannot be parsed back cannot be validated,
    which is itself a finding, never a crash.
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class NotAffine(ValueError):
    """Expression is not affine (or not a single rounded-affine atom)."""


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    terms: Tuple["Expr", ...]


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class FloorDiv:
    num: "Expr"
    den: "Expr"


@dataclass(frozen=True)
class CeilDiv:
    num: "Expr"
    den: "Expr"


@dataclass(frozen=True)
class Mod:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class MinOf:
    args: Tuple["Expr", ...]


@dataclass(frozen=True)
class MaxOf:
    args: Tuple["Expr", ...]


Expr = Union[Const, Var, Add, Mul, FloorDiv, CeilDiv, Mod, MinOf, MaxOf]

#: Canonical rounded-affine atom: (rounding, sorted coeff items, const).
#: ``rounding`` is "exact" when the form is integral (floor == ceil ==
#: identity there), else "floor"/"ceil".
Atom = Tuple[str, Tuple[Tuple[str, Fraction], ...], Fraction]


def add(terms: Iterable[Expr]) -> Expr:
    ts = tuple(terms)
    if not ts:
        return Const(0)
    if len(ts) == 1:
        return ts[0]
    return Add(ts)


def neg(e: Expr) -> Expr:
    return Mul(Const(-1), e)


def sub(a: Expr, b: Expr) -> Expr:
    return Add((a, neg(b)))


def floord(a: int, b: int) -> int:
    """Exact floor division (the C helper the prologue defines)."""
    if b == 0:
        raise ZeroDivisionError("floord by zero")
    return a // b if b > 0 else (-a) // (-b)


def ceild(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("ceild by zero")
    return -((-a) // b) if b > 0 else -(a // (-b))


# -- affine normalization -----------------------------------------------------


def affine(e: Expr) -> Tuple[Dict[str, Fraction], Fraction]:
    """``e`` as ``sum(coeffs[v] * v) + const`` or raise :class:`NotAffine`.

    ``FloorDiv``/``CeilDiv`` by a constant are treated as *exact*
    rational division — callers must only use this where exactness is
    guaranteed (or go through :func:`rounded_atom`, which keeps the
    rounding in the canonical form).
    """
    if isinstance(e, Const):
        return {}, Fraction(e.value)
    if isinstance(e, Var):
        return {e.name: Fraction(1)}, Fraction(0)
    if isinstance(e, Add):
        coeffs: Dict[str, Fraction] = {}
        const = Fraction(0)
        for t in e.terms:
            c, k = affine(t)
            const += k
            for name, f in c.items():
                coeffs[name] = coeffs.get(name, Fraction(0)) + f
        return {n: f for n, f in coeffs.items() if f}, const
    if isinstance(e, Mul):
        lc, lk = affine(e.lhs)
        rc, rk = affine(e.rhs)
        if lc and rc:
            raise NotAffine(f"product of two non-constant forms: {e}")
        if lc:
            return {n: f * rk for n, f in lc.items() if f * rk}, lk * rk
        return {n: f * lk for n, f in rc.items() if f * lk}, rk * lk
    if isinstance(e, (FloorDiv, CeilDiv)):
        dc, dk = affine(e.den)
        if dc or dk == 0:
            raise NotAffine(f"non-constant divisor: {e}")
        nc, nk = affine(e.num)
        return {n: f / dk for n, f in nc.items() if f / dk}, nk / dk
    raise NotAffine(f"not affine: {e}")


def _canon(coeffs: Mapping[str, Fraction]) -> Tuple[Tuple[str, Fraction], ...]:
    return tuple(sorted((n, f) for n, f in coeffs.items() if f))


def _is_integral(coeffs: Mapping[str, Fraction], const: Fraction) -> bool:
    return const.denominator == 1 and all(
        f.denominator == 1 for f in coeffs.values())


def _contains_rounding(e: Expr) -> bool:
    """True if ``e`` contains a floor/ceil division by anything but 1."""
    if isinstance(e, (FloorDiv, CeilDiv)):
        try:
            dc, dk = affine(e.den)
        except NotAffine:
            return True
        if dc or dk not in (1, -1):
            return True
        return _contains_rounding(e.num)
    if isinstance(e, Add):
        return any(_contains_rounding(t) for t in e.terms)
    if isinstance(e, Mul):
        return _contains_rounding(e.lhs) or _contains_rounding(e.rhs)
    if isinstance(e, (Mod, MinOf, MaxOf)):
        return True
    return False


def rounded_atom(e: Expr) -> Atom:
    """Canonicalize a bound expression into a single :data:`Atom`.

    Accepts a plain affine form, or an affine form containing exactly
    one ``floord``/``ceild`` with constant divisor plus an *integral*
    affine remainder (integer shifts commute with floor/ceil, so they
    fold inside the rounding).  Raises :class:`NotAffine` otherwise.
    """
    div: Union[FloorDiv, CeilDiv, None] = None
    out_coeffs: Dict[str, Fraction] = {}
    out_const = Fraction(0)
    flat: List[Expr] = [e]
    while flat:
        t = flat.pop()
        if isinstance(t, Add):
            flat.extend(t.terms)
            continue
        if isinstance(t, (FloorDiv, CeilDiv)):
            dc, dk = affine(t.den)
            if dc or dk.denominator != 1 or dk == 0:
                raise NotAffine(f"non-constant divisor: {t}")
            if dk != 1:
                if div is not None:
                    raise NotAffine(f"more than one rounding in {e}")
                div = t
                continue
            t = t.num      # division by one is exact: fall through
        if _contains_rounding(t):
            raise NotAffine(f"rounding nested inside a term: {t}")
        c, k = affine(t)
        out_const += k
        for name, f in c.items():
            out_coeffs[name] = out_coeffs.get(name, Fraction(0)) + f
    if div is None:
        return "exact", _canon(out_coeffs), out_const
    if not _is_integral(out_coeffs, out_const):
        raise NotAffine(f"fractional shift outside rounding in {e}")
    if _contains_rounding(div.num):
        raise NotAffine(f"rounding nested inside a divisor: {div}")
    nc, nk = affine(div.num)
    _, dk = affine(div.den)
    if dk < 0:      # floor(a / -b) == floor(-a / b); never emitted, but
        nc = {n: -f for n, f in nc.items()}
        nk, dk = -nk, -dk
    coeffs = dict(out_coeffs)
    for name, f in nc.items():
        coeffs[name] = coeffs.get(name, Fraction(0)) + f / dk
    const = out_const + nk / dk
    if _is_integral(coeffs, const):
        return "exact", _canon(coeffs), const
    rounding = "floor" if isinstance(div, FloorDiv) else "ceil"
    return rounding, _canon(coeffs), const


def atom_from_affine(coeffs: Mapping[str, Fraction], const: Fraction,
                     rounding: str) -> Atom:
    """Expected-side atom for ``rounding(coeffs . vars + const)``."""
    cd = {n: Fraction(f) for n, f in coeffs.items() if f}
    kk = Fraction(const)
    if _is_integral(cd, kk):
        return "exact", _canon(cd), kk
    return rounding, _canon(cd), kk


def bound_atoms(e: Expr, kind: str) -> Tuple[Atom, ...]:
    """Flatten a ``max(...)``/``min(...)`` bound tree into atoms.

    ``kind='lower'`` accepts ``MaxOf`` combiners, ``'upper'`` accepts
    ``MinOf`` — the §2.1 bound shape.  Returns the sorted atom tuple
    (bounds are a *set*: codegen nesting order is not semantic).
    """
    combiner = MaxOf if kind == "lower" else MinOf
    other = MinOf if kind == "lower" else MaxOf
    leaves: List[Expr] = []
    stack = [e]
    while stack:
        t = stack.pop()
        if isinstance(t, combiner):
            stack.extend(t.args)
        elif isinstance(t, other):
            raise NotAffine(f"{other.__name__} inside a {kind} bound")
        else:
            leaves.append(t)
    return tuple(sorted(rounded_atom(x) for x in leaves))


# -- substitution and interval evaluation ------------------------------------


def substitute(e: Expr, env: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, Add):
        return Add(tuple(substitute(t, env) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(substitute(e.lhs, env), substitute(e.rhs, env))
    if isinstance(e, FloorDiv):
        return FloorDiv(substitute(e.num, env), substitute(e.den, env))
    if isinstance(e, CeilDiv):
        return CeilDiv(substitute(e.num, env), substitute(e.den, env))
    if isinstance(e, Mod):
        return Mod(substitute(e.lhs, env), substitute(e.rhs, env))
    if isinstance(e, MinOf):
        return MinOf(tuple(substitute(t, env) for t in e.args))
    return MaxOf(tuple(substitute(t, env) for t in e.args))


Interval = Tuple[int, int]


def interval(e: Expr, env: Mapping[str, Interval]) -> Interval:
    """Exact interval of ``e`` over the integer box ``env``."""
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ReaderError(f"free variable {e.name!r} in subscript") \
                from None
    if isinstance(e, Add):
        lo = hi = 0
        for t in e.terms:
            tl, th = interval(t, env)
            lo, hi = lo + tl, hi + th
        return lo, hi
    if isinstance(e, Mul):
        ll, lh = interval(e.lhs, env)
        rl, rh = interval(e.rhs, env)
        prods = (ll * rl, ll * rh, lh * rl, lh * rh)
        return min(prods), max(prods)
    if isinstance(e, (FloorDiv, CeilDiv)):
        nl, nh = interval(e.num, env)
        dl, dh = interval(e.den, env)
        if dl <= 0 <= dh:
            raise ReaderError(f"divisor interval [{dl}, {dh}] contains 0")
        fn = floord if isinstance(e, FloorDiv) else ceild
        cands = [fn(a, b) for a in (nl, nh) for b in (dl, dh)]
        return min(cands), max(cands)
    if isinstance(e, Mod):
        ll, lh = interval(e.lhs, env)
        rl, rh = interval(e.rhs, env)
        if rl != rh or rl <= 0:
            raise ReaderError(f"modulus interval [{rl}, {rh}] not a "
                              "positive constant")
        k = rl
        if ll // k == lh // k:      # same residue block: exact
            return ll % k, lh % k
        return 0, k - 1
    if isinstance(e, MinOf):
        its = [interval(t, env) for t in e.args]
        return min(i[0] for i in its), min(i[1] for i in its)
    if isinstance(e, MaxOf):
        its = [interval(t, env) for t in e.args]
        return max(i[0] for i in its), max(i[1] for i in its)
    raise ReaderError(f"cannot evaluate {e!r}")
