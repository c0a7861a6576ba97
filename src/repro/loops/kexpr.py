"""Kernel expression IR: the body of a :class:`~repro.loops.nest.Statement`.

A statement computes ``write := expr(reads...)`` where ``expr`` is a
tiny arithmetic tree (:class:`KExpr`) over read slots and float
constants.  It is the *only* definition of the loop body; every
consumer reads the same tree:

* :func:`evaluate` computes it — over Python/numpy scalars (the
  sequential oracle) and over numpy batches (the dense and parallel
  engines) alike.  One ufunc (or scalar op) per interior node, left
  operand first, so a batch result is element for element the scalar
  result;
* :func:`to_c` renders it as a fully parenthesized C expression whose
  every constant is a C99 hex-float literal (``float.hex()``), so the C
  compiler performs the identical IEEE-754 double operations in the
  identical order (the build uses ``-ffp-contract=off``, see
  ``repro.native.compile``);
* the transval TV05 pass re-parses the rendered C back into a tree and
  proves it structurally equal to this one.

Only ``+ - * /`` and unary negation are provided: every kernel in the
paper's benchmarks (§4) is an affine combination of its reads, and
keeping the IR closed under exactly the operators whose evaluation
order Python, numpy and C agree on is what makes the bitwise claim
provable rather than hopeful.  Kernels outside that algebra (``min``,
``sqrt``, data-dependent branches, the iteration point itself) are not
expressible; in exchange every nest vectorizes and compiles natively.

Build trees with ordinary operators over :func:`reads`::

    v = reads(3)
    expr = 0.25 * v[0] + 0.5 * v[1] + 0.25 * v[2]
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.loops.nest import LoopNest

Operand = Union["KExpr", float, int]


def _wrap(x: Operand) -> "KExpr":
    if isinstance(x, KExpr):
        return x
    if isinstance(x, (float, int)):
        return KConst(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in a kernel expr")


@dataclass(frozen=True)
class KExpr:
    """Base node.  Subclasses are frozen dataclasses, so trees hash and
    compare structurally for free (TV05 leans on that)."""

    def __add__(self, other: Operand) -> "KExpr":
        return KAdd(self, _wrap(other))

    def __radd__(self, other: Operand) -> "KExpr":
        return KAdd(_wrap(other), self)

    def __sub__(self, other: Operand) -> "KExpr":
        return KSub(self, _wrap(other))

    def __rsub__(self, other: Operand) -> "KExpr":
        return KSub(_wrap(other), self)

    def __mul__(self, other: Operand) -> "KExpr":
        return KMul(self, _wrap(other))

    def __rmul__(self, other: Operand) -> "KExpr":
        return KMul(_wrap(other), self)

    def __truediv__(self, other: Operand) -> "KExpr":
        return KDiv(self, _wrap(other))

    def __rtruediv__(self, other: Operand) -> "KExpr":
        return KDiv(_wrap(other), self)

    def __neg__(self) -> "KExpr":
        return KNeg(self)


@dataclass(frozen=True)
class KConst(KExpr):
    value: float


@dataclass(frozen=True)
class KRead(KExpr):
    """Value of read slot ``i`` — ``Statement.reads[i]`` at this point."""

    slot: int


@dataclass(frozen=True)
class KBinary(KExpr):
    """``lhs <symbol> rhs``; each subclass fixes the operator."""

    lhs: KExpr
    rhs: KExpr
    symbol: ClassVar[str]
    apply: ClassVar[Callable[[Any, Any], Any]]


class KAdd(KBinary):
    symbol, apply = "+", operator.add


class KSub(KBinary):
    symbol, apply = "-", operator.sub


class KMul(KBinary):
    symbol, apply = "*", operator.mul


class KDiv(KBinary):
    symbol, apply = "/", operator.truediv


@dataclass(frozen=True)
class KNeg(KExpr):
    arg: KExpr


def reads(n: int) -> List[KRead]:
    """Convenience: ``v0..v{n-1}`` slot readers for an app's DSL."""
    return [KRead(i) for i in range(n)]


def max_slot(expr: KExpr) -> int:
    """Highest read slot mentioned, or -1 for a constant tree."""
    if isinstance(expr, KRead):
        return expr.slot
    if isinstance(expr, KConst):
        return -1
    if isinstance(expr, KNeg):
        return max_slot(expr.arg)
    if isinstance(expr, KBinary):
        return max(max_slot(expr.lhs), max_slot(expr.rhs))
    raise TypeError(f"unknown expr node {type(expr).__name__}")


def evaluate(expr: KExpr, vals: Sequence[Any]) -> Any:
    """Value of ``expr`` with read slot ``i`` bound to ``vals[i]``.

    ``vals`` may hold scalars or equal-length numpy arrays; constants
    stay Python floats, so the result takes the reads' dtype exactly as
    a hand-written ``c * vals[0] + ...`` would.  Evaluation order is
    the tree's: left operand, right operand, then the node's operation
    — the order :func:`to_c` parenthesizes.
    """
    if isinstance(expr, KRead):
        return vals[expr.slot]
    if isinstance(expr, KConst):
        return expr.value
    if isinstance(expr, KNeg):
        return -evaluate(expr.arg, vals)
    if isinstance(expr, KBinary):
        return expr.apply(evaluate(expr.lhs, vals),
                          evaluate(expr.rhs, vals))
    raise TypeError(
        f"cannot evaluate {expr!r}: not a kernel expr (a Statement "
        f"built without one describes structure only)")


def const_to_c(value: float) -> str:
    """Exact C literal for a double: C99 hex float (no rounding)."""
    if value != value:  # NaN has no portable literal; apps never use it
        raise ValueError("NaN constants are not supported")
    if value in (float("inf"), float("-inf")):
        raise ValueError("infinite constants are not supported")
    return float(value).hex()


def to_c(expr: KExpr, slot_names: Dict[int, str]) -> str:
    """Render as a fully parenthesized C expression over ``slot_names``.

    Full parenthesization means C operator precedence never reorders
    anything: the printed tree IS the evaluation order.
    """
    if isinstance(expr, KConst):
        return const_to_c(expr.value)
    if isinstance(expr, KRead):
        return slot_names[expr.slot]
    if isinstance(expr, KNeg):
        return f"(-{to_c(expr.arg, slot_names)})"
    if isinstance(expr, KBinary):
        return (f"({to_c(expr.lhs, slot_names)} {expr.symbol} "
                f"{to_c(expr.rhs, slot_names)})")
    raise TypeError(f"unknown expr node {type(expr).__name__}")


def expr_signature(expr: KExpr) -> str:
    """Canonical text form used for hashing (slot names ``v<i>``)."""
    nslots = max_slot(expr) + 1
    return to_c(expr, {i: f"v{i}" for i in range(nslots)})


def kernel_fingerprint(nest: "LoopNest") -> str:
    """sha256 over every statement's kernel expr, in statement order.

    Artifact metadata records this so a cached program (or cached
    ``.so``) can never be served for an app whose kernels changed even
    though the nest geometry — which is all ``content_key`` hashes, by
    design — stayed identical.
    """
    h = hashlib.sha256()
    for s in nest.statements:
        h.update(b"\x00stmt\x00")
        h.update(s.write.array.encode())
        if s.expr is None:
            h.update(b"none")
        else:
            h.update(b"expr:")
            h.update(expr_signature(s.expr).encode())
    return h.hexdigest()
