"""C-subset reader for the emitted MPI and sequential tiled programs.

The emitters (:mod:`repro.codegen.parallel`,
:mod:`repro.codegen.sequential`) produce a deterministic line grammar:
this module parses it *back* into the
:mod:`repro.analysis.transval.model` structures, with a small
recursive-descent expression parser for the arithmetic (``floord``,
``ceild``, ``max``, ``min``, ``%``, ``/``, unary minus).

The reader is deliberately strict: any structural surprise raises
:class:`~repro.analysis.transval.loopir.ReaderError` with the offending
line number.  A validator that silently skips what it cannot parse
would miss exactly the mutations it exists to catch.
"""

from __future__ import annotations

import re
from typing import List, Match, Optional, Pattern, Tuple

from repro.analysis.transval.loopir import (
    CeilDiv,
    Const,
    Expr,
    FloorDiv,
    MaxOf,
    MinOf,
    Mod,
    Mul,
    ReaderError,
    Var,
    add,
    affine,
    neg,
)
from repro.analysis.transval.model import (
    BodyStmt,
    InnerLoop,
    PackLoop,
    ParsedMpi,
    ParsedSequential,
    ReadRef,
    RecvBlock,
    SendBlock,
    SeqLoop,
)

__all__ = ["parse_expr", "split_top", "read_mpi", "read_sequential"]


# -- expression parsing -------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/%(),]))")

_CALLS = {"floord", "ceild", "max", "min"}


class _ExprParser:
    """Recursive-descent parser for the emitted C arithmetic subset."""

    def __init__(self, text: str, line: int = 0):
        self.text = text
        self.line = line
        self.tokens: List[Tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ReaderError(
                        f"bad token at {text[pos:]!r} in {text!r}", line)
                break
            pos = m.end()
            for kind in ("num", "name", "op"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val))
                    break
        self.pos = 0

    def _peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Tuple[str, str]:
        tok = self._peek()
        if tok is None:
            raise ReaderError(f"unexpected end of {self.text!r}", self.line)
        self.pos += 1
        return tok

    def _eat(self, op: str) -> None:
        tok = self._next()
        if tok != ("op", op):
            raise ReaderError(
                f"expected {op!r}, got {tok[1]!r} in {self.text!r}",
                self.line)

    def parse(self) -> Expr:
        e = self._expr()
        if self._peek() is not None:
            raise ReaderError(
                f"trailing tokens after expression in {self.text!r}",
                self.line)
        return e

    def _expr(self) -> Expr:
        terms = [self._term()]
        while True:
            tok = self._peek()
            if tok == ("op", "+"):
                self._next()
                terms.append(self._term())
            elif tok == ("op", "-"):
                self._next()
                terms.append(neg(self._term()))
            else:
                return add(terms)

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            tok = self._peek()
            if tok == ("op", "*"):
                self._next()
                e = Mul(e, self._unary())
            elif tok == ("op", "/"):
                self._next()
                e = FloorDiv(e, self._unary())
            elif tok == ("op", "%"):
                self._next()
                e = Mod(e, self._unary())
            else:
                return e

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok == ("op", "-"):
            self._next()
            return neg(self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        kind, val = self._next()
        if kind == "num":
            return Const(int(val))
        if kind == "op" and val == "(":
            e = self._expr()
            self._eat(")")
            return e
        if kind == "name":
            if self._peek() == ("op", "("):
                if val not in _CALLS:
                    raise ReaderError(
                        f"unknown function {val!r} in {self.text!r}",
                        self.line)
                self._next()
                args = [self._expr()]
                while self._peek() == ("op", ","):
                    self._next()
                    args.append(self._expr())
                self._eat(")")
                return self._call(val, args)
            return Var(val)
        raise ReaderError(
            f"unexpected token {val!r} in {self.text!r}", self.line)

    def _call(self, name: str, args: List[Expr]) -> Expr:
        if name in ("floord", "ceild"):
            if len(args) != 2:
                raise ReaderError(
                    f"{name} takes 2 arguments in {self.text!r}", self.line)
            cls = FloorDiv if name == "floord" else CeilDiv
            return cls(args[0], args[1])
        if len(args) < 2:
            raise ReaderError(
                f"{name} needs at least 2 arguments in {self.text!r}",
                self.line)
        return MaxOf(tuple(args)) if name == "max" else MinOf(tuple(args))


def parse_expr(text: str, line: int = 0) -> Expr:
    """Parse one emitted C arithmetic expression."""
    return _ExprParser(text, line).parse()


def split_top(text: str, sep: str) -> List[str]:
    """Split ``text`` on ``sep`` at parenthesis/bracket depth zero."""
    parts: List[str] = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _const_of(e: Expr, line: int) -> int:
    """Evaluate an expression that must be an integer constant."""
    try:
        coeffs, const = affine(e)
    except ValueError as exc:
        raise ReaderError(f"expected a constant: {exc}", line) from None
    if coeffs or const.denominator != 1:
        raise ReaderError(f"expected a constant, got {e!r}", line)
    return int(const)


def _int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x)


# -- line cursor --------------------------------------------------------------


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.idx = 0

    @property
    def lineno(self) -> int:
        return self.idx + 1

    def at_end(self) -> bool:
        return self.idx >= len(self.lines)

    def peek(self) -> str:
        if self.at_end():
            raise ReaderError("unexpected end of text", self.lineno)
        return self.lines[self.idx].strip()

    def next(self) -> str:
        line = self.peek()
        self.idx += 1
        return line

    def expect(self, pattern: Pattern[str], what: str) -> Match[str]:
        line = self.peek()
        m = pattern.fullmatch(line)
        if m is None:
            raise ReaderError(f"expected {what}, got {line!r}", self.lineno)
        self.idx += 1
        return m

    def skip_until(self, pattern: Pattern[str], what: str) -> Match[str]:
        while not self.at_end():
            m = pattern.fullmatch(self.peek())
            if m is not None:
                self.idx += 1
                return m
            self.idx += 1
        raise ReaderError(f"never found {what}", self.lineno)

    def expect_close(self, count: int) -> None:
        for _ in range(count):
            line = self.next()
            if line != "}":
                raise ReaderError(f"expected '}}', got {line!r}",
                                  self.lineno - 1)


# -- MPI program reader -------------------------------------------------------

_RE_MPI_HEAD = re.compile(r"/\* Data-parallel MPI code for '(?P<name>.*)'")
_RE_HEADER_KV = re.compile(r"\* {3}(?P<key>.*?) *: (?P<val>.*)")
_RE_OFF = re.compile(r"#define OFF(?P<k>\d+) (?P<v>-?\d+)")
_RE_LDS = re.compile(r"#define LDS_CELLS \((?P<terms>.*)\)")
_RE_LDS_TERM = re.compile(
    r"\(OFF(?P<k>\d+) \+ (?P<nt>NTILES\*)?(?P<rows>\d+)\)")
_RE_MAP = re.compile(
    r"#define MAP\((?P<params>[^)]*)\) (?P<body>.*?) */\* one index.*")
_RE_RECV_COMMENT = re.compile(
    r"/\* tile dependence d\^S = \((?P<ds>[^)]*)\), "
    r"processor direction d\^m = \((?P<dm>[^)]*)\) \*/")
_RE_RECV_GUARD = re.compile(
    r"if \(valid_pred\(pid, tS, \(long\[\]\)\{(?P<ds>[^}]*)\}\) "
    r"&& is_minsucc\(\.\.\.\)\) \{")
_RE_MPI_RECV = re.compile(
    r"MPI_Recv\(buf, count, MPI_DOUBLE, "
    r"rank_of_pid_minus\(\(int\[\]\)\{(?P<src>[^}]*)\}\), "
    r"TAG_(?P<tag>\w+), MPI_COMM_WORLD, MPI_STATUS_IGNORE\);")
_RE_COUNT = re.compile(r"long count = 0;")
_RE_PACK_FOR = re.compile(
    r"for \(long (?P<var>jp\d+) = (?P<lo>.*?); "
    r"jp(?P<k>\d+) <= (?P<hi>u\d+p); jp\d+ \+= (?P<step>\d+)\) \{")
_RE_PACK_LO = re.compile(r"(?:max\(l(\d+)p, (?P<bound>-?\d+)\)|l(\d+)p)")
_RE_HALO_STORE = re.compile(
    r"LA\[MAP\((?P<args>.*?)\) - \((?P<shift>.*?)\)\] = "
    r"buf\[count\+\+\]; */\* halo slot \*/")
_RE_PACK_LOAD = re.compile(
    r"buf\[count\+\+\] = LA\[MAP\((?P<args>.*?)\)\];")
_RE_SEND_COMMENT = re.compile(
    r"/\* processor dependence d\^m = \((?P<dm>[^)]*)\) \*/")
_RE_SEND_GUARD = re.compile(r"if \(exists_valid_successor\(pid, tS\)\) \{")
_RE_MPI_SEND = re.compile(
    r"MPI_Send\(buf, count, MPI_DOUBLE, "
    r"rank_of_pid_plus\(\(int\[\]\)\{(?P<dst>[^}]*)\}\), "
    r"TAG_(?P<tag>\w+), MPI_COMM_WORLD\);")
_RE_PID_DECL = re.compile(r"int pid\[(?P<n>\d+)\]; pid_of_rank\(rank, pid\);.*")
_RE_TS_FOR = re.compile(
    r"for \(long tS = lS(?P<lo>\d+); tS <= uS(?P<hi>\d+); tS\+\+\) \{")
_RE_PHASE = re.compile(r"long ph(?P<k>\d+) = (?P<rhs>.*);")
_RE_INNER_FOR = re.compile(
    r"for \(long jp(?P<k>\d+) = (?P<start>.*?); "
    r"jp(?P=k) < (?P<limit>\d+); jp(?P=k) \+= (?P<step>\d+)\) \{")
_RE_XDEF = re.compile(r"long x(?P<k>\d+) = (?P<rhs>.*);")
_RE_GUARD_MAIN = re.compile(r"if \(inside_original_space\(jp, pid, tS\)\) \{")
_RE_BODY_STMT = re.compile(
    r"LA_(?P<arr>\w+)\[MAP\((?P<args>.*?)\)\] = F_(?P<fn>\w+)\((?P<reads>.*)\);")
_RE_LDS_READ = re.compile(r"LA_(?P<arr>\w+)\[MAP\((?P<args>.*?)\)\]")


def _parse_pack_loops(cur: _Cursor) -> Tuple[PackLoop, ...]:
    loops: List[PackLoop] = []
    while True:
        m = _RE_PACK_FOR.fullmatch(cur.peek())
        if m is None:
            return tuple(loops)
        line = cur.lineno
        cur.next()
        lo = _RE_PACK_LO.fullmatch(m.group("lo"))
        if lo is None:
            raise ReaderError(
                f"bad pack lower bound {m.group('lo')!r}", line)
        loops.append(PackLoop(
            var=m.group("var"),
            lower=int(lo.group("bound") or 0),
            upper_var=m.group("hi"),
            step=int(m.group("step")),
            line=line,
        ))


def _parse_map_args(text: str, line: int) -> Tuple[Expr, ...]:
    return tuple(parse_expr(a, line) for a in split_top(text, ","))


def read_mpi(text: str) -> ParsedMpi:
    """Parse the full emitted C+MPI node program."""
    cur = _Cursor(text)
    name = cur.skip_until(_RE_MPI_HEAD, "MPI header comment").group("name")
    header = {}
    while cur.peek() != "*/":
        m = _RE_HEADER_KV.fullmatch(cur.peek())
        if m is None:
            raise ReaderError(
                f"bad header line {cur.peek()!r}", cur.lineno)
        header[m.group("key")] = m.group("val")
        cur.next()
    cur.next()                                  # */
    offs = {}
    m = cur.skip_until(_RE_OFF, "#define OFF0")
    offs[int(m.group("k"))] = int(m.group("v"))
    while (m2 := _RE_OFF.fullmatch(cur.peek())) is not None:
        offs[int(m2.group("k"))] = int(m2.group("v"))
        cur.next()
    n = len(offs)
    if sorted(offs) != list(range(n)):
        raise ReaderError(f"non-contiguous OFF defines {sorted(offs)}",
                          cur.lineno)
    offsets = tuple(offs[k] for k in range(n))
    m = cur.skip_until(_RE_LDS, "#define LDS_CELLS")
    lds_line = cur.lineno - 1
    lds_rows: List[Tuple[int, bool]] = []
    terms = split_top(m.group("terms"), "*")
    # split_top cuts ``(OFF0 + 2) * (OFF1 + 3)`` at depth-0 stars only.
    for pos, term in enumerate(terms):
        tm = _RE_LDS_TERM.fullmatch(term)
        if tm is None or int(tm.group("k")) != pos:
            raise ReaderError(f"bad LDS_CELLS term {term!r}", lds_line)
        lds_rows.append((int(tm.group("rows")), tm.group("nt") is not None))
    m = cur.skip_until(_RE_MAP, "#define MAP")
    map_line = cur.lineno - 1
    map_params = tuple(p.strip() for p in m.group("params").split(","))
    map_indices = tuple(
        parse_expr(t, map_line) for t in split_top(m.group("body"), ","))

    # RECEIVE routine.
    cur.skip_until(re.compile(re.escape(
        "void RECEIVE(int *pid, long tS, double *LA, double *buf) {")),
        "RECEIVE routine")
    recv_blocks: List[RecvBlock] = []
    while _RE_RECV_COMMENT.fullmatch(cur.peek()):
        line = cur.lineno
        cm = cur.expect(_RE_RECV_COMMENT, "receive comment")
        gm = cur.expect(_RE_RECV_GUARD, "valid_pred guard")
        rm = cur.expect(_RE_MPI_RECV, "MPI_Recv call")
        cur.expect(_RE_COUNT, "count reset")
        loops = _parse_pack_loops(cur)
        sm = cur.expect(_RE_HALO_STORE, "halo store")
        store_line = cur.lineno - 1
        cur.expect_close(len(loops) + 1)
        ds = _int_tuple(cm.group("ds"))
        if _int_tuple(gm.group("ds")) != ds:
            raise ReaderError(
                f"guard d^S {gm.group('ds')!r} disagrees with comment "
                f"{ds}", line)
        shift = tuple(
            _const_of(parse_expr(t, store_line), store_line)
            for t in split_top(sm.group("shift"), ","))
        recv_blocks.append(RecvBlock(
            d_s=ds,
            d_m=_int_tuple(cm.group("dm")),
            src=_int_tuple(rm.group("src")),
            tag=rm.group("tag"),
            loops=loops,
            store_args=_parse_map_args(sm.group("args"), store_line),
            shift=shift,
            line=line,
        ))
    cur.expect_close(1)                         # end of RECEIVE

    # SEND routine.
    cur.skip_until(re.compile(re.escape(
        "void SEND(int *pid, long tS, double *LA, double *buf) {")),
        "SEND routine")
    send_blocks: List[SendBlock] = []
    while _RE_SEND_COMMENT.fullmatch(cur.peek()):
        line = cur.lineno
        cm2 = cur.expect(_RE_SEND_COMMENT, "send comment")
        cur.expect(_RE_SEND_GUARD, "successor guard")
        cur.expect(_RE_COUNT, "count reset")
        loops = _parse_pack_loops(cur)
        pm = cur.expect(_RE_PACK_LOAD, "pack load")
        pack_line = cur.lineno - 1
        cur.expect_close(len(loops))
        sm2 = cur.expect(_RE_MPI_SEND, "MPI_Send call")
        cur.expect_close(1)
        send_blocks.append(SendBlock(
            d_m=_int_tuple(cm2.group("dm")),
            dst=_int_tuple(sm2.group("dst")),
            tag=sm2.group("tag"),
            loops=loops,
            pack_args=_parse_map_args(pm.group("args"), pack_line),
            line=line,
        ))
    cur.expect_close(1)                         # end of SEND

    # Main loop.
    pid_dim = int(cur.skip_until(_RE_PID_DECL, "pid declaration").group("n"))
    tm2 = cur.skip_until(_RE_TS_FOR, "tS chain loop")
    if tm2.group("lo") != tm2.group("hi"):
        raise ReaderError(
            f"tS bounds disagree: lS{tm2.group('lo')} vs "
            f"uS{tm2.group('hi')}", cur.lineno - 1)
    ts_index = int(tm2.group("lo"))
    inner: List[InnerLoop] = []
    cur.skip_until(re.compile(re.escape("RECEIVE(pid, tS, LA, buf);")),
                   "RECEIVE call")
    while _RE_PHASE.fullmatch(cur.peek()):
        line = cur.lineno
        ph = cur.expect(_RE_PHASE, "phase definition")
        fm = cur.expect(_RE_INNER_FOR, "inner TTIS loop")
        xd = cur.expect(_RE_XDEF, "x recovery")
        k = int(ph.group("k"))
        if int(fm.group("k")) != k or int(xd.group("k")) != k:
            raise ReaderError(f"inner loop {k} indices disagree", line)
        inner.append(InnerLoop(
            k=k,
            phase=parse_expr(ph.group("rhs"), line),
            start=parse_expr(fm.group("start"), line + 1),
            limit=int(fm.group("limit")),
            step=int(fm.group("step")),
            xdef=parse_expr(xd.group("rhs"), line + 2),
            line=line,
        ))
    cur.expect(_RE_GUARD_MAIN, "inside_original_space guard")
    body: List[BodyStmt] = []
    while (bm := _RE_BODY_STMT.fullmatch(cur.peek())) is not None:
        line = cur.lineno
        cur.next()
        reads: List[ReadRef] = []
        for raw in split_top(bm.group("reads"), ","):
            lm = _RE_LDS_READ.fullmatch(raw)
            if lm is None:
                reads.append(ReadRef(array=None, args=(), raw=raw))
            else:
                reads.append(ReadRef(
                    array=lm.group("arr"),
                    args=_parse_map_args(lm.group("args"), line),
                    raw=raw,
                ))
        if bm.group("fn") != bm.group("arr"):
            raise ReaderError(
                f"kernel F_{bm.group('fn')} does not match written array "
                f"{bm.group('arr')}", line)
        body.append(BodyStmt(
            array=bm.group("arr"),
            write_args=_parse_map_args(bm.group("args"), line),
            reads=tuple(reads),
            line=line,
        ))
    cur.expect_close(1 + len(inner))
    cur.expect(re.compile(re.escape("SEND(pid, tS, LA, buf);")),
               "SEND call")
    return ParsedMpi(
        name=name,
        header=header,
        offsets=offsets,
        lds_rows=tuple(lds_rows),
        map_params=map_params,
        map_indices=map_indices,
        recv_blocks=tuple(recv_blocks),
        send_blocks=tuple(send_blocks),
        pid_dim=pid_dim,
        ts_index=ts_index,
        inner_loops=tuple(inner),
        body=tuple(body),
    )


# -- sequential program reader ------------------------------------------------

_RE_SEQ_HEAD = re.compile(
    r"/\* Sequential tiled code for '(?P<name>.*)': "
    r"tile volume (?P<vol>\d+), strides \((?P<strides>[^)]*)\) \*/")
_RE_SEQ_FOR = re.compile(
    r"for \(long jS(?P<k>\d+) = (?P<lo>.*?); "
    r"jS(?P=k) <= (?P<hi>.*?); jS(?P=k)\+\+\) \{")
_RE_ORIGIN = re.compile(r"long o(?P<i>\d+) = (?P<rhs>.*);")
_RE_LODEF = re.compile(
    r"long lo(?P<k>\d+) = (?P<rhs>.*?); */\* smallest admissible.*")
_RE_SEQ_INNER_FOR = re.compile(
    r"for \(long jp(?P<k>\d+) = lo(?P=k); "
    r"jp(?P=k) < (?P<limit>\d+); jp(?P=k) \+= (?P<step>\d+)\) \{")
_RE_JDEF = re.compile(r"long j(?P<i>\d+) = (?P<rhs>.*);")
_RE_SEQ_GUARD = re.compile(r"if \((?P<conj>.*)\) \{")
_RE_GUARD_TERM = re.compile(r"\((?P<lhs>.*)\) <= (?P<rhs>-?\d+)")
_RE_SEQ_BODY = re.compile(
    r"(?P<arr>\w+)(?P<dims>(?:\[[^\]]*\])+) = F_(?P<fn>\w+)\((?P<reads>.*)\);")
_RE_REF = re.compile(r"(?P<arr>\w+)(?P<dims>(?:\[[^\]]*\])+)")


def _parse_ref(text: str, line: int) -> ReadRef:
    m = _RE_REF.fullmatch(text)
    if m is None:
        raise ReaderError(f"bad array reference {text!r}", line)
    dims = re.findall(r"\[([^\]]*)\]", m.group("dims"))
    return ReadRef(
        array=m.group("arr"),
        args=tuple(parse_expr(d, line) for d in dims),
        raw=text,
    )


def read_sequential(text: str) -> ParsedSequential:
    """Parse the emitted sequential tiled C program."""
    cur = _Cursor(text)
    hm = cur.skip_until(_RE_SEQ_HEAD, "sequential header comment")
    outer: List[SeqLoop] = []
    while (fm := _RE_SEQ_FOR.fullmatch(cur.peek())) is not None:
        line = cur.lineno
        cur.next()
        if int(fm.group("k")) != len(outer):
            raise ReaderError(
                f"tile loop jS{fm.group('k')} out of order", line)
        outer.append(SeqLoop(
            k=int(fm.group("k")),
            lower=parse_expr(fm.group("lo"), line),
            upper=parse_expr(fm.group("hi"), line),
            line=line,
        ))
    n = len(outer)
    if n == 0:
        raise ReaderError("no tile loops found", cur.lineno)
    origins: List[Expr] = []
    for i in range(n):
        om = cur.expect(_RE_ORIGIN, f"origin o{i}")
        if int(om.group("i")) != i:
            raise ReaderError(f"origin o{om.group('i')} out of order",
                              cur.lineno - 1)
        origins.append(parse_expr(om.group("rhs"), cur.lineno - 1))
    inner: List[InnerLoop] = []
    for k in range(n):
        line = cur.lineno
        ph = cur.expect(_RE_PHASE, f"phase ph{k}")
        lo = cur.expect(_RE_LODEF, f"lo{k} definition")
        fm2 = cur.expect(_RE_SEQ_INNER_FOR, f"inner loop jp{k}")
        xd = cur.expect(_RE_XDEF, f"x{k} recovery")
        if not (int(ph.group("k")) == int(lo.group("k"))
                == int(fm2.group("k")) == int(xd.group("k")) == k):
            raise ReaderError(f"inner loop {k} indices disagree", line)
        # The loop starts at ``lo<k>`` (the grammar pins it), so its
        # start is that variable's definition.
        inner.append(InnerLoop(
            k=k,
            phase=parse_expr(ph.group("rhs"), line),
            start=parse_expr(lo.group("rhs"), line + 1),
            limit=int(fm2.group("limit")),
            step=int(fm2.group("step")),
            xdef=parse_expr(xd.group("rhs"), line + 3),
            line=line,
        ))
    jdefs: List[Expr] = []
    for i in range(n):
        jm = cur.expect(_RE_JDEF, f"global point j{i}")
        if int(jm.group("i")) != i:
            raise ReaderError(f"j{jm.group('i')} out of order",
                              cur.lineno - 1)
        jdefs.append(parse_expr(jm.group("rhs"), cur.lineno - 1))
    gm2 = cur.expect(_RE_SEQ_GUARD, "boundary guard")
    guard_line = cur.lineno - 1
    guards: List[Tuple[Expr, int]] = []
    for conj in split_top(gm2.group("conj"), "&&"):
        tm = _RE_GUARD_TERM.fullmatch(conj)
        if tm is None:
            raise ReaderError(f"bad guard conjunct {conj!r}", guard_line)
        guards.append((parse_expr(tm.group("lhs"), guard_line),
                       int(tm.group("rhs"))))
    body: List[BodyStmt] = []
    while (bm := _RE_SEQ_BODY.fullmatch(cur.peek())) is not None:
        line = cur.lineno
        cur.next()
        write = _parse_ref(bm.group("arr") + bm.group("dims"), line)
        if bm.group("fn") != bm.group("arr"):
            raise ReaderError(
                f"kernel F_{bm.group('fn')} does not match written array "
                f"{bm.group('arr')}", line)
        reads = tuple(_parse_ref(r, line)
                      for r in split_top(bm.group("reads"), ","))
        assert write.array is not None
        body.append(BodyStmt(
            array=write.array,
            write_args=write.args,
            reads=reads,
            line=line,
        ))
    cur.expect_close(2 * n + 1)
    return ParsedSequential(
        name=hm.group("name"),
        header_volume=int(hm.group("vol")),
        header_strides=_int_tuple(hm.group("strides")),
        outer=tuple(outer),
        origins=tuple(origins),
        inner_loops=tuple(inner),
        jdefs=tuple(jdefs),
        guards=tuple(guards),
        body=tuple(body),
    )
