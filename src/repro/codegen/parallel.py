"""SPMD C+MPI code generation (paper §3).

Emits the complete node program the paper's tool generated: rank to
``pid`` mapping, LDS allocation, the RECEIVE (recv + unpack-to-halo) and
SEND (pack + send-per-successor-processor) routines with the
compile-time communication vector ``CC``, and the main per-tile loop.
All compile-time constants (``V``, strides, ``CC``, ``off``, ``D^S``,
``D^m``) are burned into the text, so the emitted program documents the
compilation result exactly; tests cross-check those constants against
the executable pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.codegen.exprs import C_PROLOGUE
from repro.codegen.sequential import _indent, _ref_to_c
from repro.linalg.ratmat import RatMat
from repro.loops.nest import LoopNest
from repro.runtime.dense import read_dependences

if TYPE_CHECKING:
    from repro.distribution.communication import CommunicationSpec
    from repro.runtime.executor import TiledProgram
    from repro.tiling.ttis import TTIS


def generate_mpi_code(nest: LoopNest, h: RatMat,
                      mapping_dim: Optional[int] = None) -> str:
    """Full SPMD C+MPI program text for ``nest`` tiled by ``h``:
    compile once, then :func:`render_mpi_code`."""
    from repro.runtime.executor import TiledProgram

    return render_mpi_code(TiledProgram(nest, h, mapping_dim=mapping_dim))


def render_mpi_code(prog: TiledProgram) -> str:
    """The C+MPI text of an already-compiled program.

    Reads the executable pipeline's own objects, so text and behaviour
    cannot drift; constructs nothing.
    """
    nest = prog.nest
    tiling, dist, comm = prog.tiling, prog.dist, prog.comm
    ttis = tiling.ttis
    n = tiling.n
    m = dist.m
    narr = len(prog.arrays)
    out: List[str] = [C_PROLOGUE]
    out.append(f"/* Data-parallel MPI code for '{nest.name}'")
    out.append(f" *   H tile volume : {ttis.tile_volume}")
    out.append(f" *   V (TTIS box)  : {ttis.v}")
    out.append(f" *   strides c_k   : {ttis.c}")
    out.append(f" *   mapping dim m : {m}")
    out.append(f" *   CC vector     : {comm.cc}")
    out.append(f" *   LDS offsets   : {comm.offsets}")
    out.append(f" *   D^S           : {comm.d_s}")
    out.append(f" *   D^m           : {comm.d_m}")
    out.append(" */")
    out.append("#include <mpi.h>")
    out.append("")
    shape_terms = []
    for k in range(n):
        rows = ttis.v[k] // ttis.c[k]
        if k == m:
            shape_terms.append(f"(OFF{k} + NTILES*{rows})")
        else:
            shape_terms.append(f"(OFF{k} + {rows})")
    for k in range(n):
        out.append(f"#define OFF{k} {comm.offsets[k]}")
    out.append("#define NTILES ntiles  /* chain length of this rank */")
    out.append(f"#define LDS_CELLS ({' * '.join(shape_terms)})")
    out.append("")
    # map() macro per Table 1.
    out.append("/* map(j', t): LDS cell of TTIS point j' in chain tile t "
               "(Table 1). */")
    idx_terms = []
    for k in range(n):
        ck = ttis.c[k]
        if k == m:
            idx_terms.append(
                f"(floord(t*{ttis.v[k]} + jp{k}, {ck}) + OFF{k})")
        else:
            idx_terms.append(f"(floord(jp{k}, {ck}) + OFF{k})")
    args = ", ".join(f"jp{k}" for k in range(n))
    out.append(f"#define MAP({args}, t) " +
               " , ".join(idx_terms) + "  /* one index per LDS dim */")
    out.append("")
    # RECEIVE routine.
    out.append("void RECEIVE(int *pid, long tS, double *LA, double *buf) {")
    body: List[str] = []
    for ds in comm.d_s:
        dm = comm.project(ds)
        if not any(dm):
            continue  # chain-internal dependence: data already local
        body.append(f"/* tile dependence d^S = {ds}, "
                    f"processor direction d^m = {dm} */")
        body.append(f"if (valid_pred(pid, tS, (long[]){{"
                    f"{', '.join(map(str, ds))}}}) && is_minsucc(...)) {{")
        body.append(f"    MPI_Recv(buf, count, MPI_DOUBLE, "
                    f"rank_of_pid_minus({_cvec(dm)}), TAG_{_tag(dm)}, "
                    f"MPI_COMM_WORLD, MPI_STATUS_IGNORE);")
        body.append("    long count = 0;")
        body += _pack_loops(ttis, comm, m, ds, unpack=True, narr=narr)
        body.append("}")
    out += _indent(body, 1)
    out.append("}")
    out.append("")
    # SEND routine.
    out.append("void SEND(int *pid, long tS, double *LA, double *buf) {")
    body = []
    for dm in comm.d_m:
        full = comm.send_direction(dm)
        body.append(f"/* processor dependence d^m = {dm} */")
        body.append("if (exists_valid_successor(pid, tS)) {")
        body.append("    long count = 0;")
        body += _pack_loops(ttis, comm, m, full, unpack=False, narr=narr)
        body.append(f"    MPI_Send(buf, count, MPI_DOUBLE, "
                    f"rank_of_pid_plus({_cvec(dm)}), TAG_{_tag(dm)}, "
                    f"MPI_COMM_WORLD);")
        body.append("}")
    out += _indent(body, 1)
    out.append("}")
    out.append("")
    # Main SPMD loop.
    out.append("int main(int argc, char **argv) {")
    body = [
        "MPI_Init(&argc, &argv);",
        "int rank; MPI_Comm_rank(MPI_COMM_WORLD, &rank);",
        f"int pid[{n - 1}]; pid_of_rank(rank, pid);  "
        "/* (n-1)-dim processor mesh */",
        "double *LA = calloc(LDS_CELLS, sizeof(double));",
        "double *buf = malloc(MAX_MSG * sizeof(double));",
        f"for (long tS = lS{m}; tS <= uS{m}; tS++) {{",
        "    if (!tile_valid(pid, tS)) continue;",
        "    RECEIVE(pid, tS, LA, buf);",
    ]
    inner: List[str] = []
    hnf = ttis.hnf.to_int_rows()
    depth = 0
    for k in range(n):
        ck = ttis.c[k]
        phase_terms = [f"{hnf[k][l]}*x{l}" for l in range(k) if hnf[k][l]]
        phase = " + ".join(phase_terms) if phase_terms else "0"
        inner += _indent([
            f"long ph{k} = {phase};",
            f"for (long jp{k} = ((ph{k} % {ck}) + {ck}) % {ck}; "
            f"jp{k} < {ttis.v[k]}; jp{k} += {ck}) {{",
        ], depth)
        depth += 1
        inner += _indent([f"long x{k} = (jp{k} - ph{k}) / {ck};"], depth)
    reads: List[str] = []
    deps = read_dependences(nest)
    for si, s in enumerate(nest.statements):
        call_args: List[str] = []
        for ri, r in enumerate(s.reads):
            d = deps[si][ri]
            if d is None:
                call_args.append(_ref_to_c(r, n))
            else:
                dp = ttis.transformed_dependences([d])[0]
                shifted = ", ".join(
                    f"jp{k} - {dp[k]}" if dp[k] else f"jp{k}"
                    for k in range(n))
                call_args.append(f"LA_{r.array}[MAP({shifted}, t)]")
        jp_list = ", ".join(f"jp{k}" for k in range(n))
        reads.append(f"LA_{s.write.array}[MAP({jp_list}, t)] = "
                     f"F_{s.write.array}({', '.join(call_args)});")
    inner += _indent(
        ["if (inside_original_space(jp, pid, tS)) {"] , depth)
    inner += _indent(reads, depth + 1)
    inner += _indent(["}"], depth)
    while depth > 0:
        depth -= 1
        inner += _indent(["}"], depth)
    body += _indent(inner, 1)
    body += [
        "    SEND(pid, tS, LA, buf);",
        "}",
        "writeback_to_global_DS(LA);  /* loc^-1 of Table 2 */",
        "MPI_Finalize();",
        "return 0;",
    ]
    out += _indent(body, 1)
    out.append("}")
    return "\n".join(out) + "\n"


def _tag(dm: Sequence[int]) -> str:
    return "_".join(str(x).replace("-", "m") for x in dm)


def _cvec(v: Sequence[int]) -> str:
    return "(int[]){" + ", ".join(map(str, v)) + "}"


def _pack_loops(ttis: TTIS, comm: CommunicationSpec, m: int,
                direction: Sequence[int], unpack: bool,
                narr: int) -> List[str]:
    """The §3.2 pack/unpack loop nest over the communication region."""
    n = ttis.n
    lbs = comm.pack_lower_bounds(direction)
    lines: List[str] = []
    depth = 0
    for k in range(n):
        ck = ttis.c[k]
        lo = f"max(l{k}p, {lbs[k]})" if lbs[k] > 0 else f"l{k}p"
        lines += _indent([
            f"for (long jp{k} = {lo}; jp{k} <= u{k}p; jp{k} += {ck}) {{"
        ], depth)
        depth += 1
    jp_list = ", ".join(f"jp{k}" for k in range(n))
    if unpack:
        shift = ", ".join(
            f"{direction[k]}*{ttis.v[k] // ttis.c[k]}" for k in range(n))
        lines += _indent([
            f"LA[MAP({jp_list}, tS) - ({shift})] = buf[count++];"
            f"  /* halo slot */"
        ], depth)
    else:
        lines += _indent([f"buf[count++] = LA[MAP({jp_list}, tS)];"], depth)
    while depth > 0:
        depth -= 1
        lines += _indent(["}"], depth)
    return lines
