"""Per-program C translation unit for the native tile-kernel backend.

One compiled shared object executes any run of wavefront-level segments
of one program through a single entry point::

    void repro_run(long nseg, const long *seg_off, const long *sel,
                   long shift, double **bufs, const long *wbase,
                   const long **rbase, const double **pure);

and writes a tile's computed points back to the global fields through a
second, fixed one (the same text in every translation unit)::

    void repro_write_back(long nlat, const unsigned char *mask,
                          const long *wbase, long shift,
                          const double *src, const long *gbase,
                          long gshift, double *dst,
                          unsigned char *written);

The caller (``repro.native.engine``) owns all index algebra that needs
floor semantics — C integer division truncates, numpy ``//`` floors, so
every flat LDS index is decomposed as ``base[i] + shift`` where the
``base`` arrays are precomputed with numpy over the tile lattice once
per rank and ``shift = t * (v_m / c_m) * strides[m]`` is the only
per-tile term (exact because the engine only goes native when
``c_m | v_m``).  Argument layout:

* ``sel``/``seg_off`` — lattice indices grouped into wavefront levels:
  segment ``s`` is ``sel[seg_off[s] : seg_off[s+1]]``.  Points within a
  segment are mutually independent; segments execute in order.
* ``bufs`` — one flat LDS buffer per written array, in ``arrays``
  order (the very same shared-memory/numpy buffers the dense and
  parallel engines address).
* ``wbase`` — write base per lattice point (shared by all statements:
  every write is ``A[j]`` in LDS space).
* ``rbase[k]`` — per dep-read-slot base (``((lat - d')//c + off) @
  strides``); slots with equal ``d'`` receive the same pointer.  A
  dependence read always loads the LDS: an out-of-domain source's
  halo cell already holds its boundary value.
* ``pure[k]`` — per pure-read-slot value table over the lattice,
  gathered per tile from the dense engine's :class:`InputTable`.

``repro_write_back`` copies ``src[wbase[i] + shift]`` to ``dst[gbase[i]
+ gshift]`` and marks ``written`` there, for every lattice point ``i``
the ``mask`` keeps (all of them when it is NULL: a full tile).

Each statement body is rendered as its own ``static double F_<array>``
function over the read slots, in the exact parenthesization of the
statement's :class:`~repro.loops.kexpr.KExpr` — these are the units
the TV05 translation-validation pass re-parses and proves against the
symbolic exprs.  :func:`kernel_definitions` is their one renderer; the
sequential tiled text (:mod:`repro.codegen.sequential`) calls the same
functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.loops import kexpr
from repro.loops.nest import LoopNest
from repro.runtime.dense import read_dependences

#: Bump when an exported signature or calling convention changes;
#: part of the ``.so`` cache key so stale ABIs can never be loaded.
NATIVE_ABI_VERSION = 2


#: The write-back entry, the same in every translation unit.
_WRITE_BACK = """
void repro_write_back(long nlat, const unsigned char *mask,
                      const long *wbase, long shift, const double *src,
                      const long *gbase, long gshift, double *dst,
                      unsigned char *written)
{
    for (long i_ = 0; i_ < nlat; ++i_) {
        if (mask && !mask[i_])
            continue;
        const long g_ = gbase[i_] + gshift;
        dst[g_] = src[wbase[i_] + shift];
        written[g_] = 1;
    }
}"""


@dataclass(frozen=True)
class ReadSlot:
    """One read of one statement, assigned to an argument slot."""

    stmt_index: int
    read_index: int
    kind: str              # "dep" | "pure"
    slot: int              # index into rbase or pure


@dataclass(frozen=True)
class KernelPlan:
    """Emitted source plus the slot tables the engine marshals by."""

    arrays: Tuple[str, ...]           # bufs order == program order
    slots: Tuple[ReadSlot, ...]       # statement-major, read order
    n_dep_slots: int
    n_pure_slots: int
    source: str
    source_hash: str                  # sha256 of ``source``

    def slot_for(self, stmt_index: int, read_index: int) -> ReadSlot:
        for s in self.slots:
            if (s.stmt_index, s.read_index) == (stmt_index, read_index):
                return s
        raise KeyError((stmt_index, read_index))


class NativeEmitError(ValueError):
    """The nest cannot be rendered natively (engine falls back)."""


def _c_name(array: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in array)
    return safe if safe else "arr"


def kernel_definitions(nest: LoopNest) -> List[str]:
    """One ``F_<array>`` C function per statement, over its read slots
    ``v0, v1, ...``: the kernels of the ``repro_run`` TU and of the
    sequential tiled text.  Raises :class:`NativeEmitError` when a
    statement lacks a symbolic ``expr`` or reads past its slots."""
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


def emit_translation_unit(nest: LoopNest,
                          arrays: Sequence[str],
                          program_name: Optional[str] = None,
                          ) -> KernelPlan:
    """Render the nest's statements into the ``repro_run`` TU.

    ``arrays`` fixes the ``bufs`` indexing and must list every written
    array (the engines pass ``program.arrays``).  Raises
    :class:`NativeEmitError` when any statement lacks a symbolic
    ``expr`` — the caller turns that into a numpy fallback, never a
    crash.
    """
    arrays = tuple(arrays)
    array_id = {a: i for i, a in enumerate(arrays)}
    deps = read_dependences(nest)
    fn_defs = kernel_definitions(nest)

    slots: List[ReadSlot] = []
    n_dep = 0
    n_pure = 0
    body: List[str] = []

    for si, stmt in enumerate(nest.statements):
        if stmt.write.array not in array_id:
            raise NativeEmitError(
                f"write array {stmt.write.array!r} not in program "
                f"arrays {arrays}")

        fname = f"F_{_c_name(stmt.write.array)}"
        args: List[str] = []
        for ri, read in enumerate(stmt.reads):
            if deps[si][ri] is None:
                k = n_pure
                slots.append(ReadSlot(si, ri, "pure", k))
                n_pure += 1
                args.append(f"pt{k}[i_]")
            else:
                if read.array not in array_id:
                    raise NativeEmitError(
                        f"dep read of unwritten array {read.array!r}")
                k = n_dep
                slots.append(ReadSlot(si, ri, "dep", k))
                n_dep += 1
                args.append(f"b_{_c_name(read.array)}[rb{k}[i_] + shift]")
        wname = f"b_{_c_name(stmt.write.array)}"
        call = ",\n                ".join(args)
        body.append(
            f"            {wname}[wbase[i_] + shift] = {fname}(\n"
            f"                {call});")

    hoist: List[str] = []
    for a in arrays:
        hoist.append(
            f"    double *b_{_c_name(a)} = bufs[{array_id[a]}];")
    for k in range(n_dep):
        hoist.append(f"    const long *rb{k} = rbase[{k}];")
    for k in range(n_pure):
        hoist.append(f"    const double *pt{k} = pure[{k}];")

    title = program_name if program_name is not None else nest.name
    lines: List[str] = [
        f"/* repro native tile kernels: {title}",
        " *",
        " * Generated translation unit — do not edit.  Each F_<array>",
        " * is the statement's kernel in exact IEEE-754 order (hex",
        " * double literals, full parenthesization); repro_run walks",
        " * wavefront-level segments of one tile lattice and",
        " * repro_write_back copies a tile to the global fields.",
        " * Compiled with -ffp-contract=off so a*b+c never fuses",
        " * into fma.",
        f" * abi={NATIVE_ABI_VERSION}",
        " */",
        "",
    ]
    lines.extend(fn_defs)
    lines.append(
        "void repro_run(long nseg, const long *seg_off, const long "
        "*sel,\n"
        "               long shift, double **bufs, const long *wbase,\n"
        "               const long **rbase, const double **pure)\n"
        "{")
    lines.extend(hoist)
    lines.append("    (void)pure; (void)rbase;")
    lines.append("    for (long s_ = 0; s_ < nseg; ++s_) {")
    lines.append("        for (long p_ = seg_off[s_]; "
                 "p_ < seg_off[s_ + 1]; ++p_) {")
    lines.append("            const long i_ = sel[p_];")
    lines.extend(body)
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    lines.append(_WRITE_BACK)
    source = "\n".join(lines) + "\n"

    return KernelPlan(
        arrays=arrays,
        slots=tuple(slots),
        n_dep_slots=n_dep,
        n_pure_slots=n_pure,
        source=source,
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
    )
