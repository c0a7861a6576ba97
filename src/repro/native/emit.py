"""Per-program C translation unit for the native rank body.

One compiled shared object runs every tile of one program through two
entries.  Both are the §2.3 TTIS loops — rendered by
:func:`repro.codegen.sequential.ttis_loops`, the renderer of the
sequential tiled text — over affine addresses, with no per-point
array::

    void repro_tile(long t, const long *org, const long *geo,
                    double **bufs, const double **pure,
                    long klo, long khi, const long *box);

    void repro_write_back(long t, const long *org, const long *geo,
                          double **bufs, double **dst,
                          unsigned char **written, const long *fgeo);

``repro_tile`` computes chain tile ``t`` (origin ``org = P j^S``) of a
rank; ``repro_write_back`` copies its points to the global fields.
The tiling (strides ``c_k``, HNF offsets, ``P'``, the domain guard, the
wavefront vector) is burnt into the text; what differs per rank or per
run is an argument:

* ``geo`` — the rank's LDS geometry: ``strides[n]``, ``off[n]`` and
  ``shift_unit`` (``(v_m / c_m) strides[m]``);
* ``bufs`` — one flat LDS buffer per written array, in ``arrays``
  order (the buffers the dense and parallel engines address);
* ``pure`` — per pure-read slot (statement-major read order), the
  :class:`~repro.runtime.dense.InputTable` values, C order over the
  read's access box (the box is burnt in);
* ``dst``/``written``/``fgeo`` — per statement, its field's flat values
  and written mask, and ``gtile[n], gconst``: field cell ``gtile . j +
  gconst`` of iteration ``j``.

The address algebra.  A lattice point has ``j'_k = lo_k + c_k s_k``
with ``0 <= lo_k < c_k``, so ``floor(j'_k / c_k) = s_k`` and the
condensed ``map`` puts the write of chain tile ``t`` at ``w = sum_k
(s_k + off_k) strides_k + t shift_unit``.  A dependence read with TTIS
vector ``d'`` loads ``w + sum_k floord(lo_k - d'_k, c_k) strides_k``;
level ``k``'s term is computed in its loop header, and rendered as the
constant ``-d'_k`` when ``c_k = 1`` (then ``lo_k = 0``).  An out-of-domain source needs no test: its halo cell was
filled before the tile runs.  A pure read indexes its table by the
affine image of ``j = o + P' j'``.

A window (``box != NULL``) runs only the points with ``klo <= 2 L(j')
+ !B(j') < khi``: ``L = dense_s . j'`` is the absolute wavefront level
and ``B`` the union of the tile's send boxes ``j'_k >= box[1 + q n +
k]`` for ``q < box[0]`` — one phase of the overlapped schedule.  The
points still run in lexicographic order, which is legal because every
intra-tile ``d'`` is ``>= 0``, non-zero and raises ``L`` by at least
one: a point's source either precedes it in the same window or ran in
an earlier one.

Each statement body is rendered as its own ``static double F_<array>``
function over the read slots, in the exact parenthesization of the
statement's :class:`~repro.loops.kexpr.KExpr` — these are the units
the TV05 translation-validation pass re-parses and proves against the
symbolic exprs.  :func:`kernel_definitions` is their one renderer; the
sequential tiled text calls the same functions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.linalg.ratmat import identity
from repro.loops import kexpr
from repro.loops.nest import LoopNest
from repro.loops.reference import ArrayRef
from repro.runtime.dense import _access_box, read_dependences, ttis_wavefront
from repro.tiling.transform import TilingTransformation

#: Bump when an exported signature or calling convention changes;
#: part of the ``.so`` cache key so stale ABIs can never be loaded.
NATIVE_ABI_VERSION = 3


@dataclass(frozen=True)
class KernelPlan:
    """Emitted source plus the wavefront vector burnt into it."""

    arrays: Tuple[str, ...]           # bufs order == program order
    dense_s: Tuple[int, ...]          # L = dense_s . j' of the windows
    source: str
    source_hash: str                  # sha256 of ``source``


class NativeEmitError(ValueError):
    """The nest cannot be rendered natively (engine falls back)."""


def _c_name(array: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in array)
    return safe if safe else "arr"


def kernel_definitions(nest: LoopNest) -> List[str]:
    """One ``F_<array>`` C function per statement, over its read slots
    ``v0, v1, ...``: the kernels of the rank body and of the sequential
    tiled text.  Raises :class:`NativeEmitError` when a statement lacks
    a symbolic ``expr`` or reads past its slots."""
    fn_defs: List[str] = []
    for si, stmt in enumerate(nest.statements):
        if stmt.expr is None:
            raise NativeEmitError(
                f"statement {si} ({stmt.write.array}) has no symbolic "
                f"expr")
        nreads = len(stmt.reads)
        if kexpr.max_slot(stmt.expr) >= nreads:
            raise NativeEmitError(
                f"statement {si} expr reads slot "
                f"{kexpr.max_slot(stmt.expr)} but has {nreads} reads")
        params = ", ".join(f"double v{q}" for q in range(nreads))
        rendered = kexpr.to_c(
            stmt.expr, {q: f"v{q}" for q in range(nreads)})
        fn_defs.append(
            f"static double F_{_c_name(stmt.write.array)}({params}) {{\n"
            f"    return {rendered};\n"
            f"}}\n")
    return fn_defs


def _dot(coeffs: Sequence[int], var: str, const: int = 0) -> str:
    """``coeffs . (var0, var1, ...) + const`` as C text."""
    terms = [f"{k}*{var}{i}" for i, k in enumerate(coeffs) if k]
    return " + ".join([*terms, str(const)] if const or not terms else terms)


def _pure_index(ref: ArrayRef, nest: LoopNest, n: int) -> str:
    """The flat index of ``ref``'s cell in its input table (C order over
    its access box, as :func:`~repro.runtime.dense.build_input_table`
    lays it out), affine in ``j0 .. j{n-1}``."""
    lo, shape = _access_box(ref, nest.domain)
    tstr = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    rows = ref.access_matrix().to_int_rows()
    return _dot([sum(s * row[i] for s, row in zip(tstr, rows))
                 for i in range(n)], "j",
                sum(s * (f - b) for s, f, b in zip(tstr, ref.offset, lo)))


def unit_tiling(nest: LoopNest) -> TilingTransformation:
    """The tiling ``H = I`` of ``nest`` (every point its own tile): the
    TU rendered, and validated, when no tiling is given."""
    return TilingTransformation(identity(nest.depth), nest.domain)


def emit_translation_unit(nest: LoopNest,
                          arrays: Sequence[str],
                          program_name: Optional[str] = None,
                          tiling: Optional[TilingTransformation] = None,
                          ) -> KernelPlan:
    """Render ``nest`` under ``tiling`` into the rank-body TU.

    ``arrays`` fixes the ``bufs`` indexing and must list every written
    array (the engines pass ``program.arrays``).  Without a ``tiling``
    the TU is rendered for the unit tiling ``H = I`` (every point its
    own tile).  Raises :class:`NativeEmitError` when any statement
    lacks a symbolic ``expr`` — the caller turns that into a numpy
    fallback, never a crash.
    """
    # codegen.sequential imports this module (kernel_definitions)
    from repro.codegen.exprs import C_PROLOGUE
    from repro.codegen.sequential import SEQ_PROLOGUE, ttis_loops

    arrays = tuple(arrays)
    array_id = {a: i for i, a in enumerate(arrays)}
    fn_defs = kernel_definitions(nest)
    ttis = (unit_tiling(nest) if tiling is None else tiling).ttis
    n = ttis.n
    c = ttis.c
    deps = read_dependences(nest)
    dense_s = ttis_wavefront(nest, ttis)
    last = f"w{n - 1}"

    # Dependence slots: their d' per level; the calls, statement-major.
    dprimes: List[Tuple[int, ...]] = []
    calls: List[str] = []
    pure_slot = 0
    pure_index: Dict[Tuple[Any, ...], str] = {}     # one text per table
    for si, stmt in enumerate(nest.statements):
        if stmt.write.array not in array_id:
            raise NativeEmitError(
                f"write array {stmt.write.array!r} not in program "
                f"arrays {arrays}")
        args: List[str] = []
        for read, d in zip(stmt.reads, deps[si]):
            if d is None:
                key = (read.array, read.offset, str(read.matrix))
                if key not in pure_index:
                    pure_index[key] = _pure_index(read, nest, n)
                args.append(f"pt{pure_slot}[{pure_index[key]}]")
                pure_slot += 1
                continue
            if read.array not in array_id:
                raise NativeEmitError(
                    f"dep read of unwritten array {read.array!r}")
            q = len(dprimes)
            dprimes.append(ttis.transformed_dependences([d])[0])
            args.append(f"b_{_c_name(read.array)}[{last} + r{q}_{n - 1}]")
        call = ",\n    ".join(args)
        calls.append(f"b_{_c_name(stmt.write.array)}[{last}] = "
                     f"F_{_c_name(stmt.write.array)}(\n    {call});")

    def displacements(k: int) -> List[str]:
        # lo_k = 0 when c_k = 1: the term is the constant -d'_k
        return [f"const long r{q}_{k} = {f'r{q}_{k - 1}' if k else '0'} + "
                + (f"floord(lo{k} - ({dp[k]}), {c[k]})" if c[k] > 1
                   else f"({-dp[k]})") + f" * st{k};"
                for q, dp in enumerate(dprimes)]

    def write_cell(k: int) -> List[str]:
        prev = f"w{k - 1}" if k else "w_"
        return [f"const long w{k} = {prev} + (jp{k} / {c[k]}) * st{k};"]

    jps = [f"jp{k}" for k in range(n)]
    inbox = " && ".join(f"jp{k} >= lb_[{k}]" for k in range(n))
    # out of line: the hot loop keeps one predictable test per point
    outside = [
        "/* 1 when j' lies outside the window [klo, khi) of the keys",
        "   2 L(j') + !B(j'), L the wavefront level, B the send boxes */",
        "static __attribute__((noinline)) int outside_(",
        "    const long *box, long klo, long khi, "
        + ", ".join(f"long {jp}" for jp in jps) + ")",
        "{",
        "    long in_ = 0;",
        "    for (long q_ = 0; q_ < box[0] && !in_; ++q_) {",
        f"        const long *lb_ = box + 1 + q_ * {n};",
        f"        in_ = {inbox};",
        "    }",
        f"    const long key_ = 2 * ({_dot(dense_s, 'jp')}) + !in_;",
        "    return key_ < klo || key_ >= khi;",
        "}",
        "",
    ]
    window = [f"if (box && outside_(box, klo, khi, {', '.join(jps)}))",
              "    continue;"]

    rank_geo = [
        *(f"const long st{k} = geo[{k}];" for k in range(n)),
        "const long w_ = " + " + ".join(
            f"geo[{n + k}] * st{k}" for k in range(n))
        + f" + t * geo[{2 * n}];",
        *(f"const long o{i} = org[{i}];" for i in range(n)),
    ]

    def entry(signature: str, hoist: List[str], body: List[str],
              header=None) -> List[str]:
        lines = [signature, "{"]
        lines += [f"    {x}" for x in [*rank_geo, *hoist]]
        loops, depth = ttis_loops(nest, ttis, 1, header, write_cell)
        lines += loops
        for x in body:
            lines += ["    " * depth + y for y in x.split("\n")]
        lines += ["    " * d + "}" for d in reversed(range(depth))]
        return lines

    title = program_name if program_name is not None else nest.name
    lines: List[str] = [
        f"/* repro native rank body: {title}",
        " *",
        " * Generated translation unit — do not edit.  Each F_<array>",
        " * is the statement's kernel in exact IEEE-754 order (hex",
        " * double literals, full parenthesization); repro_tile runs one",
        " * tile (or a window of its levels) through the TTIS loops and",
        " * repro_write_back copies a tile to the global fields.",
        " * Compiled with -ffp-contract=off so a*b+c never fuses",
        " * into fma.",
        f" * abi={NATIVE_ABI_VERSION} strides={c} dense_s={dense_s}",
        " */",
        C_PROLOGUE + SEQ_PROLOGUE,
    ]
    lines.extend(fn_defs)
    lines += outside
    lines += entry(
        "void repro_tile(long t, const long *org, const long *geo,\n"
        "                double **bufs, const double **pure,\n"
        "                long klo, long khi, const long *box)",
        [f"double *b_{_c_name(a)} = bufs[{i}];"
         for i, a in enumerate(arrays)]
        + ([f"const double *pt{k} = pure[{k}];" for k in range(pure_slot)]
           or ["(void)pure;"]),
        [*window, *calls], displacements)
    lines.append("")
    # The LDS, the fields and their masks never overlap (restrict), and
    # the field geometry is hoisted: a char store may alias any load.
    nst = len(nest.statements)
    lines += entry(
        "void repro_write_back(long t, const long *org, const long *geo,\n"
        "                      double **bufs, double **dst,\n"
        "                      unsigned char **written, const long *fgeo)",
        [f"const double *restrict b_{_c_name(a)} = bufs[{i}];"
         for i, a in enumerate(arrays)]
        + [f"double *restrict d{si} = dst[{si}];" for si in range(nst)]
        + [f"unsigned char *restrict m{si} = written[{si}];"
           for si in range(nst)]
        + [f"const long f{si}_{l} = fgeo[{si * (n + 1) + l}];"
           for si in range(nst) for l in range(n + 1)],
        [f"const long g{si}_ = " + " + ".join(
            f"f{si}_{l} * j{l}" for l in range(n)) + f" + f{si}_{n};\n"
         f"d{si}[g{si}_] = b_{_c_name(stmt.write.array)}[{last}];\n"
         f"m{si}[g{si}_] = 1;"
         for si, stmt in enumerate(nest.statements)])
    source = "\n".join(lines) + "\n"

    return KernelPlan(
        arrays=arrays,
        dense_s=dense_s,
        source=source,
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
    )
