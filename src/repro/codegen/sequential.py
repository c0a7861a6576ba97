"""Sequential tiled code generation (paper §2.3 / their ref [7]).

Emits the 2n-deep loop: the ``n`` outer loops enumerate tiles with
Fourier-Motzkin bounds over the joint (tile, point) polyhedron; the
``n`` inner loops traverse the TTIS with strides ``c_k`` and incremental
offsets ``a_kl`` read off the Hermite Normal Form of ``H'``, plus the
boundary min/max correction against the original space.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from repro.codegen.exprs import C_PROLOGUE, affine_sum, bound_to_c, lcm_den
from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.loops.reference import ArrayRef
from repro.tiling.transform import TilingTransformation


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


def generate_sequential_tiled_code(nest: LoopNest, h: RatMat) -> str:
    """C-like source for the sequential tiled execution of ``nest``:
    tile once, then :func:`render_sequential_tiled_code`."""
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

    out: List[str] = [C_PROLOGUE]
    out.append(f"/* Sequential tiled code for '{nest.name}': "
               f"tile volume {ttis.tile_volume}, strides {ttis.c} */")
    depth = 0
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
    depth -= 1
    out += _indent(["}"], depth)
    while depth > 0:
        depth -= 1
        out += _indent(["}"], depth)
    return "\n".join(out) + "\n"
