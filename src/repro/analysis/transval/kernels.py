"""TV05: translation validation of the native rank-body translation unit.

The native backend (:mod:`repro.native`) emits one C translation unit
per program — an ``F_<array>(...)`` kernel function per statement plus
the ``repro_tile`` and ``repro_write_back`` entries over the TTIS loops
— and compiles it to the cached shared object the dense and parallel
engines call.  This pass re-parses that text with its *own* grammar
(independent of the emitter) and proves, statement by statement:

* the kernel function's expression tree is **structurally identical**
  to the statement's symbolic :class:`~repro.loops.kexpr.KExpr` —
  same operators, same association, same read slots, and every
  constant's hex literal round-trips to the bitwise-equal double
  (this is what makes ``-ffp-contract=off`` output bitwise equal to
  the numpy kernels);
* ``repro_tile``'s call wiring matches the read structure derived from
  :func:`~repro.runtime.dense.read_dependences`: dependence read ``q``
  (statement-major read order) is the LDS load ``b_<arr>[w + r<q>]``
  from the statement's read array at the point's cell ``w`` through its
  *own* displacement, whose per-level definitions ``r<q>_k = r<q>_{k-1}
  + floord(lo_k - (d'_k), c_k) * st_k`` carry the read's ``d' = H' d``
  and the tiling's strides (an out-of-domain source reads its halo
  cell, filled before the tile runs) — the constant ``(-d'_k) * st_k``
  where ``c_k = 1``; pure-input reads are the table loads ``pt<k>[...]``
  in slot order; and the write lands in the statement's own buffer at
  ``w``.

Any structural drift — a reassociated sum, a decimal constant, a
swapped slot, a wrong displacement, a write into the wrong buffer — is
a ``TV05`` error.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.loops.nest import LoopNest
from repro.loops import kexpr
from repro.native.emit import (
    NativeEmitError,
    emit_translation_unit,
    unit_tiling,
)
from repro.runtime.dense import read_dependences
from repro.tiling.transform import TilingTransformation

PASS_KERNELS = "transval-kernels"

__all__ = ["PASS_KERNELS", "check_native_tu", "parse_c_double_expr"]


def _diag(message: str, *, severity: str = ERROR, equation: str = "",
          subject: Tuple[Tuple[str, Any], ...] = (),
          suggestion: str = "") -> Diagnostic:
    return Diagnostic(code="TV05", severity=severity,
                      pass_name=PASS_KERNELS, message=message,
                      equation=equation, subject=subject,
                      suggestion=suggestion)


# -- a tiny independent C double-expression parser ---------------------------

#: Parsed node: ("const", float) | ("read", slot) |
#: ("neg", node) | (op, lhs, rhs) with op in "+-*/".
CNode = Tuple[Any, ...]


class _ExprError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<hex>[+-]?0[xX][0-9a-fA-F]+(?:\.[0-9a-fA-F]*)?[pP][+-]?\d+)"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()])"
    r")")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise _ExprError(f"unexpected character at {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("hex", "num", "name", "op"):
            tok = m.group(kind)
            if tok is not None:
                out.append((kind, tok))
                break
    return out


class _Parser:
    """Precedence-climbing parser for ``+ - * /`` over doubles."""

    def __init__(self, tokens: List[Tuple[str, str]],
                 param_slots: Sequence[str]):
        self.toks = tokens
        self.i = 0
        self.slots = {name: q for q, name in enumerate(param_slots)}

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> Tuple[str, str]:
        if self.i >= len(self.toks):
            raise _ExprError("unexpected end of expression")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self) -> CNode:
        node = self.additive()
        if self.i != len(self.toks):
            raise _ExprError(
                f"trailing tokens from {self.toks[self.i]}")
        return node

    def additive(self) -> CNode:
        node = self.multiplicative()
        while True:
            nxt = self.peek()
            if nxt is None or nxt[1] not in ("+", "-"):
                return node
            op = self.take()[1]
            node = (op, node, self.multiplicative())

    def multiplicative(self) -> CNode:
        node = self.unary()
        while True:
            nxt = self.peek()
            if nxt is None or nxt[1] not in ("*", "/"):
                return node
            op = self.take()[1]
            node = (op, node, self.unary())

    def unary(self) -> CNode:
        nxt = self.peek()
        if nxt is not None and nxt[1] == "-":
            self.take()
            return ("neg", self.unary())
        return self.primary()

    def primary(self) -> CNode:
        kind, tok = self.take()
        if kind == "op" and tok == "(":
            node = self.additive()
            close = self.take()
            if close[1] != ")":
                raise _ExprError(f"expected ')', found {close[1]!r}")
            return node
        if kind == "hex":
            return ("const", float.fromhex(tok))
        if kind == "num":
            return ("const", float(tok))
        if kind == "name":
            if tok not in self.slots:
                raise _ExprError(f"unknown identifier {tok!r}")
            return ("read", self.slots[tok])
        raise _ExprError(f"unexpected token {tok!r}")


def parse_c_double_expr(text: str,
                        param_names: Sequence[str]) -> CNode:
    """Parse one C double expression over ``param_names``."""
    return _Parser(_tokenize(text), param_names).parse()


def _knode(expr: kexpr.KExpr) -> CNode:
    """The symbolic expr as the same neutral node shape."""
    if isinstance(expr, kexpr.KConst):
        return ("const", float(expr.value))
    if isinstance(expr, kexpr.KRead):
        return ("read", expr.slot)
    if isinstance(expr, kexpr.KNeg):
        return ("neg", _knode(expr.arg))
    if isinstance(expr, (kexpr.KAdd, kexpr.KSub, kexpr.KMul,
                         kexpr.KDiv)):
        ops = {kexpr.KAdd: "+", kexpr.KSub: "-", kexpr.KMul: "*",
               kexpr.KDiv: "/"}
        return (ops[type(expr)], _knode(expr.lhs), _knode(expr.rhs))
    raise _ExprError(f"unknown KExpr node {type(expr).__name__}")


def _trees_equal(a: CNode, b: CNode) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "const":
        # bitwise: repr-level float equality (exact, both are binary64)
        av, bv = float(a[1]), float(b[1])
        return (av == bv and
                (av != 0.0 or str(av) == str(bv)))  # keep -0.0 vs 0.0
    if a[0] == "read":
        return bool(a[1] == b[1])
    return all(_trees_equal(x, y) for x, y in zip(a[1:], b[1:]))


def _tree_str(n: CNode) -> str:
    if n[0] == "const":
        return repr(n[1])
    if n[0] == "read":
        return f"v{n[1]}"
    if n[0] == "neg":
        return f"(-{_tree_str(n[1])})"
    return f"({_tree_str(n[1])} {n[0]} {_tree_str(n[2])})"


# -- TU structure ------------------------------------------------------------

_FN_RE = re.compile(
    r"static\s+double\s+(?P<name>F_\w+)\s*\((?P<params>[^)]*)\)\s*\{"
    r"\s*return\s+(?P<body>.*?);\s*\}", re.S)

_TILE_RE = re.compile(r"void\s+repro_tile\s*\(.*?(?=\nvoid\s|\Z)", re.S)

_CALL_RE = re.compile(
    r"b_(?P<warr>\w+)\[(?P<waddr>\w+)\]\s*=\s*"
    r"(?P<fname>F_\w+)\s*\((?P<args>.*?)\);", re.S)

#: ``const long r<q>_<k> = <prev> + <term> * st<k>;`` with ``<term>``
#: ``floord(lo<k> - (<d>), <c>)``, or the constant ``(<-d>)`` (``c = 1``)
_DISP_RE = re.compile(
    r"const\s+long\s+r(?P<q>\d+)_(?P<k>\d+)\s*=\s*(?P<prev>\w+)\s*\+\s*"
    r"(?:floord\(\s*lo(?P<klo>\d+)\s*-\s*\(\s*(?P<d>-?\d+)\s*\)\s*,\s*"
    r"(?P<c>\d+)\s*\)|\(\s*(?P<neg>-?\d+)\s*\))\s*\*\s*st(?P<kst>\d+)\s*;")

_DEP_ARG_RE = re.compile(
    r"^b_(?P<arr>\w+)\[(?P<w>\w+)\+r(?P<q>\d+)_(?P<k>\d+)\]$")

_PURE_ARG_RE = re.compile(r"^pt(?P<k>\d+)\[[^\[\]]+\]$")


def _split_args(argtext: str) -> List[str]:
    """Split a C argument list on top-level commas."""
    out: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in argtext:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def _c_name(array: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in array)
    return safe if safe else "arr"


def _disp_text(prev: str, term: str, k: str) -> str:
    return f"{prev} + {term} * st{k}"


def _displacement_errors(disp: Dict[Tuple[int, int], str], q: int,
                         dprime: Sequence[int],
                         c: Sequence[int]) -> List[str]:
    """What is wrong with slot ``q``'s displacement chain: level ``k``
    must add ``floord(lo_k - d'_k, c_k) * st_k`` to level ``k - 1``'s,
    which is the constant ``-d'_k * st_k`` when ``c_k = 1``."""
    bad: List[str] = []
    for k, (dk, ck) in enumerate(zip(dprime, c)):
        got = disp.get((q, k))
        want = _disp_text(
            f"r{q}_{k - 1}" if k else "0",
            f"floord(lo{k} - ({dk}), {ck})" if ck > 1 else f"({-dk})",
            str(k))
        if got != want:
            bad.append(f"level {k}: {got or 'missing'}")
    return bad


def check_native_tu(nest: LoopNest, arrays: Sequence[str],
                    text: Optional[str] = None,
                    tiling: Optional[TilingTransformation] = None,
                    ) -> List[Diagnostic]:
    """TV05 over the native rank-body translation unit of ``nest``
    under ``tiling`` (the unit tiling when ``None``, as the emitter).

    With ``text=None`` the TU is freshly emitted (the normal
    ``repro analyze --transval`` path); passing text validates an
    existing artifact (e.g. the cached ``<key>.c``) instead.
    """
    diags: List[Diagnostic] = []
    if text is None:
        try:
            text = emit_translation_unit(nest, tuple(arrays),
                                         nest.name, tiling).source
        except NativeEmitError:
            # No symbolic exprs => no native TU: the engines fall
            # back to numpy kernels, so there is nothing to prove.
            return diags
    ttis = (unit_tiling(nest) if tiling is None else tiling).ttis
    n = ttis.n
    cell = f"w{n - 1}"

    fns = {m.group("name"): m for m in _FN_RE.finditer(text)}
    tile = _TILE_RE.search(text)
    body = tile.group(0) if tile is not None else ""
    calls = _CALL_RE.findall(body)
    disp = {(int(m.group("q")), int(m.group("k"))): _disp_text(
        m.group("prev"),
        f"({int(m.group('neg'))})" if m.group("neg") is not None else
        f"floord(lo{m.group('klo')} - ({int(m.group('d'))}), "
        f"{int(m.group('c'))})", m.group("kst"))
        for m in _DISP_RE.finditer(body)}
    deps = read_dependences(nest)

    if len(calls) != len(nest.statements):
        diags.append(_diag(
            f"repro_tile makes {len(calls)} kernel call(s) but the nest "
            f"has {len(nest.statements)} statement(s)",
            equation="one F_<array> call per statement per point",
            subject=(("artifact", "native-tu"),),
            suggestion="regenerate the translation unit"))
        return diags

    dep_slot = 0
    pure_slot = 0
    for si, stmt in enumerate(nest.statements):
        warr, waddr, fname, argtext = calls[si]
        subject = (("statement", si), ("array", stmt.write.array))
        if warr != _c_name(stmt.write.array) or waddr != cell:
            diags.append(_diag(
                f"statement {si} writes b_{warr}[{waddr}] but the "
                f"symbolic write targets {stmt.write.array!r} at the "
                f"point's own cell {cell}",
                equation="write lands in the statement's own array at "
                         "w = sum_k (s_k + off_k) st_k + t shift_unit",
                subject=subject))
        fn = fns.get(fname)
        if fn is None:
            diags.append(_diag(
                f"repro_tile calls {fname} but no such kernel function "
                f"is defined in the translation unit",
                subject=subject))
            continue

        params = [p.strip().split()[-1]
                  for p in fn.group("params").split(",") if p.strip()]
        nreads = len(stmt.reads)
        if len(params) != nreads:
            diags.append(_diag(
                f"{fname} takes {len(params)} argument(s) but "
                f"statement {si} has {nreads} read(s)",
                equation="one kernel parameter per read slot",
                subject=subject))
            continue

        # 1) kernel body === symbolic expr, via an independent parse.
        if stmt.expr is not None:
            try:
                got = parse_c_double_expr(fn.group("body"), params)
                want = _knode(stmt.expr)
            except _ExprError as exc:
                diags.append(_diag(
                    f"cannot parse the body of {fname}: {exc}",
                    subject=subject,
                    suggestion="the emitter and the TV05 grammar "
                               "must agree"))
                continue
            if not _trees_equal(got, want):
                diags.append(_diag(
                    f"{fname} computes {_tree_str(got)} but the "
                    f"symbolic kernel is {_tree_str(want)}",
                    equation="identical IEEE-754 operation tree "
                             "(bitwise reproducibility)",
                    subject=subject,
                    suggestion="regenerate the shared object; a "
                               "stale .so would silently change "
                               "results"))

        # 2) wiring: slot indices in statement-major read order, a dep
        # read loads the read's array through its own slot's
        # displacement (built from its own d' = H' d), a pure read
        # loads its own table.
        args = _split_args(argtext)
        for ri, (read, d) in enumerate(zip(stmt.reads, deps[si])):
            arg = re.sub(r"\s+", "", args[ri]) if ri < len(args) else ""
            rsub = subject + (("read", ri),)
            if d is None:
                m = _PURE_ARG_RE.match(arg)
                if m is None or int(m.group("k")) != pure_slot:
                    diags.append(_diag(
                        f"read {ri} of statement {si} should be the "
                        f"pure-table load pt{pure_slot}[...], found "
                        f"{arg!r}",
                        equation="pure inputs gather from the "
                                 "InputTable slot",
                        subject=rsub))
                pure_slot += 1
                continue
            q = dep_slot
            dep_slot += 1
            m = _DEP_ARG_RE.match(arg)
            if not (m is not None and m.group("arr") == _c_name(read.array)
                    and m.group("w") == cell and int(m.group("q")) == q
                    and int(m.group("k")) == n - 1):
                diags.append(_diag(
                    f"read {ri} of statement {si} should be the LDS "
                    f"load of slot {q} from b_{_c_name(read.array)}"
                    f"[{cell} + r{q}_{n - 1}], found {arg!r}",
                    equation="buf[w + r_q] per dependence read q",
                    subject=rsub))
                continue
            dprime = ttis.transformed_dependences([d])[0]
            bad = _displacement_errors(disp, q, dprime, ttis.c)
            if bad:
                diags.append(_diag(
                    f"slot {q} (read {ri} of statement {si}, d' = "
                    f"{tuple(dprime)}) has a wrong displacement: "
                    + "; ".join(bad),
                    equation="r_q = sum_k floord(lo_k - d'_qk, c_k) st_k",
                    subject=rsub))
    return diags
