"""Sequential tiled code generation (paper §2.3 / their ref [7]).

Emits the 2n-deep loop: the ``n`` outer loops enumerate tiles with
Fourier-Motzkin bounds over the joint (tile, point) polyhedron; the
``n`` inner loops traverse the TTIS with strides ``c_k`` and incremental
offsets ``a_kl`` read off the Hermite Normal Form of ``H'``, plus the
boundary min/max correction against the original space.

The text is one complete C translation unit: the exact ``floord``/
``ceild`` and ``min``/``max`` helpers, the statements' kernels (the
native backend's :func:`~repro.native.emit.kernel_definitions`), and
``void repro_seq(double **bufs)``, which views each buffer as the
array over its access box and runs the loop.
:func:`run_sequential_tiled_code` compiles and runs it.
"""

from __future__ import annotations

import _ctypes
import ctypes
import math
import os
import tempfile
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.codegen.exprs import C_PROLOGUE, affine_sum, bound_to_c, lcm_den
from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.loops.reference import ArrayRef
from repro.native.compile import compile_shared_object, find_compiler
from repro.native.emit import kernel_definitions
from repro.polyhedra.integer_points import integer_points
from repro.runtime.dense import _access_box
from repro.tiling.transform import TilingTransformation

Cell = Tuple[int, ...]
Box = Tuple[Cell, Cell]

SEQ_PROLOGUE = """\
static inline long min(long a, long b) { return a < b ? a : b; }
static inline long max(long a, long b) { return a > b ? a : b; }
/* x_k is read only by later phases: never the last one, and none of a
   rectangular tiling's. */
#pragma GCC diagnostic ignored "-Wunused-variable"
"""


class NoCompilerError(RuntimeError):
    """No C compiler to build the sequential text with."""


def _indent(lines: List[str], depth: int) -> List[str]:
    return ["    " * depth + line for line in lines]


def _ref_dims(ref: ArrayRef, n: int) -> List[str]:
    """The affine subscripts ``F j + f``, one expression per array dim."""
    names = [f"j{j}" for j in range(n)]
    return [affine_sum(row, names, off)[0] for row, off in zip(
        ref.access_matrix().to_int_rows(), ref.offset)]


def _ref_to_c(ref: ArrayRef, n: int) -> str:
    """Render ``A[F j + f]`` with one bracket per array dimension."""
    return ref.array + "".join(f"[{d}]" for d in _ref_dims(ref, n))


def _scaled_rows(rows: Sequence[Sequence[Fraction]],
                 var: str) -> Tuple[List[str], int]:
    """``M (var0, var1, ...)`` row by row with the denominators cleared:
    the integer numerator expressions and the common denominator."""
    den = lcm_den(x for row in rows for x in row)
    exprs = []
    for row in rows:
        terms = [f"{int(x * den)}*{var}{j}" for j, x in enumerate(row) if x]
        exprs.append(" + ".join(terms) if terms else "0")
    return exprs, den


def _domain_guards(nest: LoopNest) -> List[str]:
    """One integer ``(a . j) <= b`` conjunct per normalized domain
    constraint — the boundary guard against the original space."""
    guards: List[str] = []
    for c in nest.domain.normalized().constraints:
        dd = lcm_den([*c.a, c.b])
        terms = [f"{int(a * dd)}*j{i}" for i, a in enumerate(c.a) if a]
        lhs = " + ".join(terms) if terms else "0"
        guards.append(f"({lhs}) <= {int(c.b * dd)}")
    return guards


def _array_boxes(nest: LoopNest) -> Dict[str, Box]:
    """``array -> (origin, shape)``: the union of the access boxes of
    every reference to it, in first-reference order — ``bufs[i]`` of
    ``repro_seq`` is the ``i``-th array's box, row-major."""
    spans: Dict[str, Tuple[List[int], List[int]]] = {}
    for s in nest.statements:
        for ref in (s.write, *s.reads):
            lo, shape = _access_box(ref, nest.domain)
            hi = [a + b for a, b in zip(lo, shape)]
            old = spans.setdefault(ref.array, (list(lo), hi))
            spans[ref.array] = ([min(a, b) for a, b in zip(old[0], lo)],
                                [max(a, b) for a, b in zip(old[1], hi)])
    return {a: (tuple(lo), tuple(h - b for b, h in zip(lo, hi)))
            for a, (lo, hi) in spans.items()}


def _array_views(nest: LoopNest) -> List[str]:
    """Each buffer as a pointer-to-array indexed in global cells."""
    out = []
    for i, (a, (lo, shape)) in enumerate(_array_boxes(nest).items()):
        dims = "".join(f"[{s}]" for s in shape[1:])
        flat = sum(c * math.prod(shape[k + 1:]) for k, c in enumerate(lo))
        sign = "-" if flat >= 0 else "+"
        out.append(f"double (*{a}){dims} = "
                   f"(double (*){dims})(bufs[{i}] {sign} {abs(flat)});")
    return out


def generate_sequential_tiled_code(nest: LoopNest, h: RatMat) -> str:
    """The C translation unit of the sequential tiled execution of
    ``nest``: tile once, then :func:`render_sequential_tiled_code`."""
    return render_sequential_tiled_code(
        nest, TilingTransformation(h, nest.domain))


def render_sequential_tiled_code(nest: LoopNest,
                                 tiling: TilingTransformation) -> str:
    """The sequential text of an already-tiled nest (a compiled
    program's ``.nest`` and ``.tiling``); constructs nothing."""
    n = tiling.n
    ttis = tiling.ttis
    hnf = ttis.hnf.to_int_rows()
    tile_bounds = tiling.tile_space_bounds()
    ts_names = [f"jS{k}" for k in range(n)]
    tt_names = [f"jp{k}" for k in range(n)]

    out: List[str] = [C_PROLOGUE + SEQ_PROLOGUE, *kernel_definitions(nest)]
    out.append("void repro_seq(double **bufs)\n{")
    depth = 1
    out += _indent(_array_views(nest), depth)
    out += _indent([f"/* Sequential tiled code for '{nest.name}': "
                    f"tile volume {ttis.tile_volume}, strides {ttis.c} */"],
                   depth)
    # --- n outer tile loops ------------------------------------------------
    for k in range(n):
        lo = bound_to_c(tile_bounds[k], ts_names[:k], "lower")
        hi = bound_to_c(tile_bounds[k], ts_names[:k], "upper")
        out += _indent(
            [f"for (long {ts_names[k]} = {lo}; "
             f"{ts_names[k]} <= {hi}; {ts_names[k]}++) {{"], depth)
        depth += 1
    # Tile origin P jS.
    origin, _ = _scaled_rows(tiling.p.rows(), "jS")
    out += _indent([f"long o{i} = {e};" for i, e in enumerate(origin)], depth)
    # --- n inner TTIS loops ---------------------------------------------------
    # j'_k runs over phase(k) + c_k * step, phase from outer HNF coefficients.
    for k in range(n):
        ck = ttis.c[k]
        phase_terms = [f"{hnf[k][l]}*x{l}" for l in range(k) if hnf[k][l]]
        phase = " + ".join(phase_terms) if phase_terms else "0"
        body = [
            f"long ph{k} = {phase};",
            f"long lo{k} = ((ph{k} % {ck}) + {ck}) % {ck};  "
            f"/* smallest admissible j'_{k} */",
            f"for (long {tt_names[k]} = lo{k}; {tt_names[k]} < {ttis.v[k]}; "
            f"{tt_names[k]} += {ck}) {{",
        ]
        out += _indent(body, depth)
        depth += 1
        out += _indent(
            [f"long x{k} = ({tt_names[k]} - ph{k}) / {ck};"], depth)
    # Global point j = P jS + P' j' and boundary guard.
    exprs, den = _scaled_rows(ttis.p_prime.rows(), "jp")
    out += _indent([f"long j{i} = o{i} + ({expr}) / {den};"
                    for i, expr in enumerate(exprs)], depth)
    guards = _domain_guards(nest)
    out += _indent([f"if ({' && '.join(guards)}) {{"], depth)
    depth += 1
    for s in nest.statements:
        args = ", ".join(_ref_to_c(r, n) for r in s.reads)
        out += _indent(
            [f"{_ref_to_c(s.write, n)} = F_{s.write.array}({args});"], depth)
    while depth > 0:
        depth -= 1
        out += _indent(["}"], depth)
    return "\n".join(out) + "\n"


def run_sequential_tiled_code(nest: LoopNest, code: str,
                              init_value: Callable[[str, Cell], float],
                              ) -> Dict[str, Dict[Cell, float]]:
    """Compile ``code``, the translation unit rendered for ``nest``, and
    run it once.

    Every array's box is filled by scalar ``init_value`` calls, so a
    read of a cell not yet written sees exactly the value
    :func:`~repro.runtime.interpreter.run_sequential` reads.  Returns
    what that interpreter returns: per written array, the cells the
    nest writes.  Raises :class:`NoCompilerError` without a C compiler
    and :class:`~repro.native.compile.NativeCompileError` when the
    build fails.
    """
    cc = find_compiler()
    if cc is None:
        raise NoCompilerError("no C compiler found ($CC, cc, gcc, clang)")
    boxes = _array_boxes(nest)
    bufs: Dict[str, np.ndarray] = {}
    for a, (lo, shape) in boxes.items():
        buf = np.empty(shape, dtype=np.float64)
        for idx in np.ndindex(*shape):
            buf[idx] = init_value(a, tuple(i + b for i, b in zip(idx, lo)))
        bufs[a] = buf
    with tempfile.TemporaryDirectory(prefix="repro-seq-") as tmp:
        so_path = os.path.join(tmp, "seq.so")
        compile_shared_object(cc, code, so_path)
        lib = ctypes.CDLL(so_path)
        try:
            lib.repro_seq.argtypes = [ctypes.c_void_p]
            lib.repro_seq.restype = None
            lib.repro_seq((ctypes.c_void_p * len(bufs))(
                *(b.ctypes.data for b in bufs.values())))
        finally:
            _ctypes.dlclose(lib._handle)
    written: Dict[str, Dict[Cell, float]] = {
        a: {} for a in nest.written_arrays}
    for j in integer_points(nest.domain):
        for s in nest.statements:
            cell = s.write.index(j)
            lo = boxes[s.write.array][0]
            written[s.write.array][cell] = float(
                bufs[s.write.array][tuple(c - b for c, b in zip(cell, lo))])
    return written
