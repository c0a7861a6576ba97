"""Translation-validation passes (TV01-TV04).

Each pass compares one aspect of an *emitted* artifact against the
*symbolic* pipeline objects it was generated from:

``TV01`` (pass ``transval-loops``)
    Loop structure: the TTIS loops' phases, strides ``c_k`` and extents
    ``v_k`` match the Hermite Normal Form of ``H'``; tile-loop bounds
    match the Fourier-Motzkin projection; boundary guards match the
    original domain.  Text the readers cannot parse is itself a TV01
    finding — unparseable output cannot be validated.

``TV02`` (pass ``transval-subscripts``)
    Subscripts: every LDS address stays inside the allocated box
    including the ``off_k`` halo slices (by exact interval abstract
    interpretation over the loop domain), read shifts equal the
    transformed dependences ``d'``, and sequential subscripts equal the
    statements' affine references.

``TV03`` (pass ``transval-constants``)
    Burned-in constants: the header block, ``OFF``/``LDS_CELLS``
    defines, the ``MAP`` macro, RECEIVE/SEND block metadata
    (``d^S``/``d^m``/tag/peer), pack lower bounds against ``CC``, and
    the pygen rank/schedule tables.

``TV04`` (pass ``transval-dependences``)
    Declared dependence matrices: re-derive the uniform flow
    dependences from the statement bodies and cross-check the
    hand-declared vectors (a missing real dependence is an ERROR, a
    declared-but-underivable one a WARNING).
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.analysis.transval.creader import (
    parse_expr,
    read_mpi,
    read_sequential,
)
from repro.analysis.transval.loopir import (
    Atom,
    Const,
    Expr,
    Interval,
    NotAffine,
    ReaderError,
    affine,
    atom_from_affine,
    bound_atoms,
    interval,
    rounded_atom,
    substitute,
)
from repro.analysis.transval.model import (
    BodyStmt,
    InnerLoop,
    ParsedMpi,
)
from repro.analysis.transval.pyreader import read_pygen
from repro.loops.dependence import (
    is_lexicographically_positive,
    nest_dependences,
)
from repro.loops.nest import LoopNest
from repro.runtime.dense import read_dependences
from repro.runtime.rankstep import build_rank_plans

PASS_LOOPS = "transval-loops"
PASS_SUBSCRIPTS = "transval-subscripts"
PASS_CONSTANTS = "transval-constants"
PASS_DEPENDENCES = "transval-dependences"

#: All transval pass names, in report order.
TRANSVAL_PASSES = (PASS_LOOPS, PASS_SUBSCRIPTS, PASS_CONSTANTS,
                   PASS_DEPENDENCES)

__all__ = [
    "PASS_LOOPS", "PASS_SUBSCRIPTS", "PASS_CONSTANTS", "PASS_DEPENDENCES",
    "TRANSVAL_PASSES", "check_mpi_text", "check_sequential_text",
    "check_pygen_source", "check_declared_dependences",
]

Subject = Tuple[Tuple[str, Any], ...]


def _diag(code: str, pass_name: str, message: str, *,
          severity: str = ERROR, equation: str = "",
          subject: Subject = (), suggestion: str = "") -> Diagnostic:
    return Diagnostic(code=code, severity=severity, pass_name=pass_name,
                      message=message, equation=equation, subject=subject,
                      suggestion=suggestion)


def _parse_error(artifact: str, exc: ReaderError) -> Diagnostic:
    return _diag(
        "TV01", PASS_LOOPS,
        f"emitted {artifact} does not match the expected grammar: {exc}",
        equation="emitted text must be readable back into the loop model",
        subject=(("artifact", artifact), ("line", exc.line)),
        suggestion="the emitter and the validator grammar must agree; "
                   "regenerate the code or fix the reader",
    )


def _atom_str(atom: Atom) -> str:
    rounding, coeffs, const = atom
    terms = [f"{f}*{n}" for n, f in coeffs]
    if const or not terms:
        terms.append(str(const))
    body = " + ".join(terms)
    return body if rounding == "exact" else f"{rounding}({body})"


def _check_atom(actual: Expr, expected: Atom, code: str, pass_name: str,
                what: str, equation: str, subject: Subject,
                diags: List[Diagnostic]) -> None:
    """Canonicalize ``actual`` and compare against the expected atom."""
    try:
        got = rounded_atom(actual)
    except NotAffine as exc:
        diags.append(_diag(code, pass_name,
                           f"{what} is not a rounded-affine form: {exc}",
                           equation=equation, subject=subject))
        return
    if got != expected:
        diags.append(_diag(
            code, pass_name,
            f"{what} is {_atom_str(got)}, pipeline expects "
            f"{_atom_str(expected)}",
            equation=equation, subject=subject))


def _affine_atom(coeffs: Mapping[str, int], const: int = 0) -> Atom:
    return atom_from_affine(
        {n: Fraction(c) for n, c in coeffs.items()}, Fraction(const),
        "floor")


# -- shared inner-TTIS-loop check (TV01) --------------------------------------


def _check_inner_loops(ttis: Any, loops: Sequence[InnerLoop],
                       artifact: str, diags: List[Diagnostic]) -> None:
    """The n TTIS loops: phase from HNF, start, extent v_k, stride c_k."""
    n = ttis.n
    hnf = ttis.hnf.to_int_rows()
    if len(loops) != n:
        diags.append(_diag(
            "TV01", PASS_LOOPS,
            f"{artifact} has {len(loops)} TTIS loops, pipeline expects "
            f"{n}",
            equation="one loop per TTIS dimension (§2.3)",
            subject=(("artifact", artifact),)))
        return
    for k, loop in enumerate(loops):
        subj: Subject = (("artifact", artifact), ("dim", k),
                         ("line", loop.line))
        ck = ttis.c[k]
        if loop.limit != ttis.v[k]:
            diags.append(_diag(
                "TV01", PASS_LOOPS,
                f"TTIS loop {k} runs to {loop.limit}, tile extent is "
                f"v_{k} = {ttis.v[k]}",
                equation="0 <= j'_k < v_kk (TTIS box, §3.1)",
                subject=subj))
        if loop.step != ck:
            diags.append(_diag(
                "TV01", PASS_LOOPS,
                f"TTIS loop {k} has stride {loop.step}, HNF stride is "
                f"c_{k} = {ck}",
                equation="c_k = h̃'_kk (lattice stride, §2.3)",
                subject=subj))
        phase_expected = _affine_atom(
            {f"x{l}": hnf[k][l] for l in range(k) if hnf[k][l]})
        _check_atom(loop.phase, phase_expected, "TV01", PASS_LOOPS,
                    f"phase ph{k}",
                    "ph_k = sum_{l<k} a_kl x_l (HNF offsets, §2.3)",
                    subj, diags)
        start_expected = parse_expr(f"((ph{k} % {ck}) + {ck}) % {ck}")
        if loop.start != start_expected:
            diags.append(_diag(
                "TV01", PASS_LOOPS,
                f"TTIS loop {k} starts at an expression other than the "
                f"smallest admissible lattice point "
                f"((ph{k} % {ck}) + {ck}) % {ck}",
                equation="j'_k starts at ph_k mod c_k (§2.3)",
                subject=subj))
        xdef_expected = atom_from_affine(
            {f"jp{k}": Fraction(1, ck), f"ph{k}": Fraction(-1, ck)},
            Fraction(0), "floor")
        _check_atom(loop.xdef, xdef_expected, "TV01", PASS_LOOPS,
                    f"auxiliary x{k}",
                    "x_k = (j'_k - ph_k) / c_k (§2.3)", subj, diags)


# -- MPI text (TV01 + TV02 + TV03) --------------------------------------------


def _tag(dm: Sequence[int]) -> str:
    return "_".join(str(x).replace("-", "m") for x in dm)


def _lds_box(program: Any, ntiles: int) -> Tuple[Tuple[int, int], ...]:
    """Allocated LDS extent per dimension for a chain of ``ntiles``."""
    ttis = program.tiling.ttis
    comm = program.comm
    m = program.dist.m
    shape = []
    for k in range(ttis.n):
        rows = ttis.rows_per_dim[k]
        if k == m:
            shape.append((comm.offsets[k], ntiles * rows))
        else:
            shape.append((comm.offsets[k], rows))
    return tuple(shape)


def _check_lds_interval(map_params: Sequence[str],
                        map_indices: Sequence[Expr],
                        args: Sequence[Expr],
                        shift: Sequence[int],
                        box: Sequence[Tuple[int, int]],
                        env: Mapping[str, Interval], what: str,
                        subject: Subject,
                        diags: List[Diagnostic]) -> None:
    """Interval membership of one MAP use inside the allocated box."""
    if len(args) != len(map_params):
        diags.append(_diag(
            "TV02", PASS_SUBSCRIPTS,
            f"{what} passes {len(args)} MAP arguments, macro takes "
            f"{len(map_params)}",
            subject=subject))
        return
    bind = dict(zip(map_params, args))
    for k, idx in enumerate(map_indices):
        if k >= len(box):
            break
        expr = substitute(idx, bind)
        try:
            lo, hi = interval(expr, env)
        except ReaderError as exc:
            diags.append(_diag(
                "TV02", PASS_SUBSCRIPTS,
                f"{what}: LDS index {k} cannot be bounded: {exc}",
                equation="map(j', t) (Table 1)",
                subject=subject + (("dim", k),)))
            continue
        off, rows = box[k]
        lo -= shift[k]
        hi -= shift[k]
        if lo < 0 or hi > off + rows - 1:
            diags.append(_diag(
                "TV02", PASS_SUBSCRIPTS,
                f"{what}: LDS index {k} spans [{lo}, {hi}] but the "
                f"allocated extent is [0, {off + rows - 1}] "
                f"(off_{k} = {off} halo rows + {rows} tile rows)",
                equation="0 <= map(j', t) - d^S_k v_k / c_k < "
                         "off_k + v_k / c_k (§3.2, Tables 1-2)",
                subject=subject + (("dim", k), ("span", (lo, hi)))))


def check_mpi_text(program: Any, text: str) -> List[Diagnostic]:
    """Validate the emitted C+MPI node program against ``program``."""
    try:
        parsed = read_mpi(text)
    except ReaderError as exc:
        return [_parse_error("mpi", exc)]
    diags: List[Diagnostic] = []
    ttis = program.tiling.ttis
    comm = program.comm
    n = ttis.n
    m = program.dist.m
    ntiles = max((program.dist.chain_length(pid)
                  for pid in program.pids), default=1)
    ntiles = max(2, ntiles)
    box = _lds_box(program, ntiles)
    no_shift = (0,) * n
    # The macro body references the OFF defines by name; resolve them so
    # atom comparison and interval evaluation see concrete constants.
    off_env: Dict[str, Expr] = {
        f"OFF{k}": Const(v) for k, v in enumerate(parsed.offsets)}
    map_indices = tuple(substitute(e, off_env)
                        for e in parsed.map_indices)

    # ---- TV03: burned-in constants ------------------------------------------
    expected_header = {
        "H tile volume": str(ttis.tile_volume),
        "V (TTIS box)": str(ttis.v),
        "strides c_k": str(ttis.c),
        "mapping dim m": str(m),
        "CC vector": str(comm.cc),
        "LDS offsets": str(comm.offsets),
        "D^S": str(comm.d_s),
        "D^m": str(comm.d_m),
    }
    for key, want in expected_header.items():
        got = parsed.header.get(key)
        if got != want:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"header constant '{key}' is {got!r}, pipeline computed "
                f"{want!r}",
                equation="burned-in constants document the compilation "
                         "result (§3)",
                subject=(("artifact", "mpi"), ("key", key))))
    if parsed.offsets != comm.offsets:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"OFF defines are {parsed.offsets}, pipeline halo offsets "
            f"are {comm.offsets}",
            equation="off_k = ceil(max_l d'_kl / c_k); off_m = v_m / c_m "
                     "(§3.2)",
            subject=(("artifact", "mpi"),)))
    expected_rows = tuple(
        (ttis.rows_per_dim[k], k == m) for k in range(n))
    if parsed.lds_rows != expected_rows:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"LDS_CELLS terms are {parsed.lds_rows}, pipeline expects "
            f"{expected_rows} (rows v_k / c_k, NTILES on dim {m})",
            equation="LDS size = prod (off_k + v_k / c_k), chain-scaled "
                     "on the mapping dimension (§3.2)",
            subject=(("artifact", "mpi"),)))
    expected_params = tuple(f"jp{k}" for k in range(n)) + ("t",)
    if parsed.map_params != expected_params:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"MAP macro parameters are {parsed.map_params}, expected "
            f"{expected_params}",
            subject=(("artifact", "mpi"),)))
    elif len(map_indices) != n:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"MAP macro produces {len(map_indices)} indices for "
            f"{n} LDS dimensions",
            subject=(("artifact", "mpi"),)))
    else:
        for k in range(n):
            ck = ttis.c[k]
            coeffs: Dict[str, Fraction] = {f"jp{k}": Fraction(1, ck)}
            if k == m:
                coeffs["t"] = Fraction(ttis.v[k], ck)
            expected = atom_from_affine(coeffs, Fraction(comm.offsets[k]),
                                        "floor")
            _check_atom(
                map_indices[k], expected, "TV03", PASS_CONSTANTS,
                f"MAP index {k}",
                "map_k(j', t) = floor((t v_k + j'_k) / c_k) + off_k on "
                "the mapping dim, floor(j'_k / c_k) + off_k elsewhere "
                "(Table 1)",
                (("artifact", "mpi"), ("dim", k)), diags)
    if parsed.pid_dim != n - 1:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"processor mesh is pid[{parsed.pid_dim}], the distribution "
            f"uses an (n-1)-dimensional mesh = {n - 1}",
            equation="pid = (j^S_0..j^S_{m-1}, j^S_{m+1}..j^S_{n-1}) "
                     "(§3.1)",
            subject=(("artifact", "mpi"),)))
    if parsed.ts_index != m:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"chain loop runs over lS{parsed.ts_index}..uS"
            f"{parsed.ts_index}, the mapping dimension is {m}",
            equation="tiles of one rank differ only in j^S_m (§3.1)",
            subject=(("artifact", "mpi"),)))

    # ---- RECEIVE blocks -----------------------------------------------------
    expected_recv = [(ds, comm.project(ds)) for ds in comm.d_s
                     if any(comm.project(ds))]
    if len(parsed.recv_blocks) != len(expected_recv):
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"RECEIVE has {len(parsed.recv_blocks)} blocks, pipeline "
            f"expects {len(expected_recv)} (one per cross-processor "
            f"d^S)",
            equation="RECEIVE iterates the cross-processor D^S (§3.3)",
            subject=(("artifact", "mpi"),)))
    for bi, (block, (ds, dm)) in enumerate(
            zip(parsed.recv_blocks, expected_recv)):
        subj = (("artifact", "mpi"), ("block", bi), ("line", block.line))
        if block.d_s != ds or block.d_m != dm:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"RECEIVE block {bi} handles d^S = {block.d_s}, d^m = "
                f"{block.d_m}; pipeline expects d^S = {ds}, d^m = {dm}",
                subject=subj))
            continue
        if block.src != dm:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"RECEIVE block {bi} receives from pid - {block.src}, "
                f"the predecessor direction is {dm}",
                equation="source = pid - d^m (§3.3)", subject=subj))
        if block.tag != _tag(dm):
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"RECEIVE block {bi} uses TAG_{block.tag}, pipeline "
                f"expects TAG_{_tag(dm)}",
                subject=subj))
        _check_pack_loops(ttis, comm, block.loops, ds,
                          f"RECEIVE block {bi}", subj, diags)
        expected_shift = tuple(
            ds[k] * ttis.rows_per_dim[k] for k in range(n))
        if block.shift != expected_shift:
            diags.append(_diag(
                "TV02", PASS_SUBSCRIPTS,
                f"RECEIVE block {bi} stores into halo slot MAP - "
                f"{block.shift}, pipeline expects MAP - "
                f"{expected_shift} (d^S_k v_k / c_k)",
                equation="halo slot = map(j', t) - d^S_k v_k / c_k "
                         "(§3.2)",
                subject=subj))
        env = _pack_env(ttis, comm, ds, ntiles)
        _check_lds_interval(parsed.map_params, map_indices,
                            block.store_args, block.shift, box, env,
                            f"RECEIVE block {bi} halo store", subj, diags)

    # ---- SEND blocks --------------------------------------------------------
    if len(parsed.send_blocks) != len(comm.d_m):
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"SEND has {len(parsed.send_blocks)} blocks, pipeline "
            f"expects {len(comm.d_m)} (one per d^m)",
            equation="SEND iterates D^m (§3.3)",
            subject=(("artifact", "mpi"),)))
    for bi, (block, dm) in enumerate(zip(parsed.send_blocks, comm.d_m)):
        subj = (("artifact", "mpi"), ("block", bi), ("line", block.line))
        full = comm.send_direction(dm)
        if block.d_m != dm:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"SEND block {bi} handles d^m = {block.d_m}, pipeline "
                f"expects {dm}",
                subject=subj))
            continue
        if block.dst != dm:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"SEND block {bi} sends to pid + {block.dst}, the "
                f"successor direction is {dm}",
                equation="destination = pid + d^m (§3.3)", subject=subj))
        if block.tag != _tag(dm):
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"SEND block {bi} uses TAG_{block.tag}, pipeline "
                f"expects TAG_{_tag(dm)}",
                subject=subj))
        _check_pack_loops(ttis, comm, block.loops, full,
                          f"SEND block {bi}", subj, diags)
        env = _pack_env(ttis, comm, full, ntiles)
        _check_lds_interval(parsed.map_params, map_indices,
                            block.pack_args, no_shift, box, env,
                            f"SEND block {bi} pack load", subj, diags)

    # ---- TV01: inner loops; TV02: compute body ------------------------------
    _check_inner_loops(ttis, parsed.inner_loops, "mpi", diags)
    env = {f"jp{k}": (0, ttis.v[k] - 1) for k in range(n)}
    env["t"] = (0, ntiles - 1)
    env["tS"] = (0, ntiles - 1)
    _check_mpi_body(program, parsed, map_indices, box, env, diags)
    return diags


def _pack_env(ttis: Any, comm: Any, direction: Sequence[int],
              ntiles: int) -> Dict[str, Interval]:
    """Interval box of the §3.2 pack region loops (plus chain position)."""
    lbs = comm.pack_lower_bounds(direction)
    env = {f"jp{k}": (max(0, lbs[k]), ttis.v[k] - 1)
           for k in range(ttis.n)}
    env["tS"] = (0, ntiles - 1)
    env["t"] = (0, ntiles - 1)
    return env


def _check_pack_loops(ttis: Any, comm: Any, loops: Sequence[Any],
                      direction: Sequence[int], what: str, subj: Subject,
                      diags: List[Diagnostic]) -> None:
    """Pack loop bounds vs ``max(l_kp, d_k cc_k)`` and strides (TV03)."""
    n = ttis.n
    if len(loops) != n:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"{what} has {len(loops)} pack loops for {n} TTIS "
            f"dimensions",
            subject=subj))
        return
    lbs = comm.pack_lower_bounds(direction)
    for k, loop in enumerate(loops):
        if loop.var != f"jp{k}" or loop.upper_var != f"u{k}p":
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"{what} pack loop {k} runs {loop.var} up to "
                f"{loop.upper_var}; expected jp{k} up to u{k}p",
                subject=subj + (("dim", k),)))
            continue
        if loop.lower != lbs[k]:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"{what} pack loop {k} starts at max(l{k}p, "
                f"{loop.lower}), the communication criterion gives "
                f"max(l{k}p, {lbs[k]})",
                equation="pack from max(l'_k, d_k cc_k); "
                         "cc_k = v_k - max_l d'_kl (§3.2)",
                subject=subj + (("dim", k),)))
        if loop.step != ttis.c[k]:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"{what} pack loop {k} has stride {loop.step}, the "
                f"lattice stride is c_{k} = {ttis.c[k]}",
                subject=subj + (("dim", k),)))


def _check_mpi_body(program: Any, parsed: ParsedMpi,
                    map_indices: Sequence[Expr],
                    box: Sequence[Tuple[int, int]],
                    env: Mapping[str, Interval],
                    diags: List[Diagnostic]) -> None:
    """Compute statements: write/read MAP args vs transformed deps."""
    ttis = program.tiling.ttis
    n = ttis.n
    nest = program.nest
    deps = read_dependences(nest)
    no_shift = (0,) * n
    if len(parsed.body) != len(nest.statements):
        diags.append(_diag(
            "TV02", PASS_SUBSCRIPTS,
            f"compute body has {len(parsed.body)} statements, nest has "
            f"{len(nest.statements)}",
            subject=(("artifact", "mpi"),)))
        return
    plain_args = tuple(
        _affine_atom({f"jp{k}": 1}) for k in range(n)) + (
        _affine_atom({"t": 1}),)
    for si, (stmt, s) in enumerate(zip(parsed.body, nest.statements)):
        subj: Subject = (("artifact", "mpi"), ("statement", si),
                         ("line", stmt.line))
        if stmt.array != s.write.array:
            diags.append(_diag(
                "TV02", PASS_SUBSCRIPTS,
                f"statement {si} writes LA_{stmt.array}, nest writes "
                f"{s.write.array}",
                subject=subj))
            continue
        for k, (arg, want) in enumerate(zip(stmt.write_args, plain_args)):
            _check_atom(arg, want, "TV02", PASS_SUBSCRIPTS,
                        f"statement {si} write MAP argument {k}",
                        "the write lands on map(j', t) (Table 1)",
                        subj, diags)
        _check_lds_interval(parsed.map_params, map_indices,
                            stmt.write_args, no_shift, box, env,
                            f"statement {si} write", subj, diags)
        if len(stmt.reads) != len(s.reads):
            diags.append(_diag(
                "TV02", PASS_SUBSCRIPTS,
                f"statement {si} has {len(stmt.reads)} reads, nest has "
                f"{len(s.reads)}",
                subject=subj))
            continue
        for ri, read in enumerate(stmt.reads):
            d = deps[si][ri]
            rsubj = subj + (("read", ri),)
            if d is None:
                # Pure-input read: emitted in original coordinates,
                # outside the LDS; nothing to validate here.
                if read.array is not None:
                    diags.append(_diag(
                        "TV02", PASS_SUBSCRIPTS,
                        f"statement {si} read {ri} goes through the "
                        f"LDS but targets the never-written array "
                        f"{s.reads[ri].array}",
                        subject=rsubj))
                continue
            if read.array != s.reads[ri].array:
                diags.append(_diag(
                    "TV02", PASS_SUBSCRIPTS,
                    f"statement {si} read {ri} references "
                    f"LA_{read.array}, nest reads {s.reads[ri].array}",
                    subject=rsubj))
                continue
            dp = ttis.transformed_dependences([d])[0]
            want_args = tuple(
                _affine_atom({f"jp{k}": 1}, -dp[k]) for k in range(n)
            ) + (_affine_atom({"t": 1}),)
            for k, (arg, want) in enumerate(zip(read.args, want_args)):
                _check_atom(
                    arg, want, "TV02", PASS_SUBSCRIPTS,
                    f"statement {si} read {ri} MAP argument {k}",
                    "a read across dependence d resolves to "
                    "map(j' - d', t) (§3.2)",
                    rsubj, diags)
            _check_lds_interval(parsed.map_params, map_indices,
                                read.args, no_shift, box, env,
                                f"statement {si} read {ri}", rsubj, diags)


# -- sequential tiled C text (TV01 + TV02 + TV03) -----------------------------


def check_sequential_text(program: Any, text: str) -> List[Diagnostic]:
    """Validate the emitted sequential tiled C program."""
    from math import gcd

    artifact = "sequential"
    try:
        parsed = read_sequential(text)
    except ReaderError as exc:
        return [_parse_error(artifact, exc)]
    diags: List[Diagnostic] = []
    nest, tiling = program.nest, program.tiling
    ttis = tiling.ttis
    n = tiling.n
    if parsed.header_volume != ttis.tile_volume:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"header tile volume is {parsed.header_volume}, pipeline "
            f"computed {ttis.tile_volume}",
            equation="|det(P')| points per tile (§2.3)",
            subject=(("artifact", artifact),)))
    if parsed.header_strides != ttis.c:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"header strides are {parsed.header_strides}, HNF strides "
            f"are {ttis.c}",
            subject=(("artifact", artifact),)))
    if parsed.name != nest.name:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"header names nest {parsed.name!r}, validating against "
            f"{nest.name!r}",
            subject=(("artifact", artifact),)))

    # ---- TV01: tile loops vs Fourier-Motzkin --------------------------------
    tile_bounds = tiling.tile_space_bounds()
    if len(parsed.outer) != n:
        diags.append(_diag(
            "TV01", PASS_LOOPS,
            f"{artifact} has {len(parsed.outer)} tile loops, pipeline "
            f"expects {n}",
            subject=(("artifact", artifact),)))
        return diags
    for k, loop in enumerate(parsed.outer):
        subj: Subject = (("artifact", artifact), ("dim", k),
                         ("line", loop.line))
        names = [f"jS{l}" for l in range(k)]
        for kind, actual, side, rounding in (
                ("lower", loop.lower, tile_bounds[k].lowers, "ceil"),
                ("upper", loop.upper, tile_bounds[k].uppers, "floor")):
            expected = tuple(sorted(
                atom_from_affine(dict(zip(names, cs)), b, rounding)
                for cs, b in side))
            try:
                got = bound_atoms(actual, kind)
            except NotAffine as exc:
                diags.append(_diag(
                    "TV01", PASS_LOOPS,
                    f"tile loop jS{k} {kind} bound does not have the "
                    f"max/min-of-affine shape: {exc}",
                    equation="l_k = max(ceil(...)), u_k = "
                             "min(floor(...)) (§2.1)",
                    subject=subj))
                continue
            if got != expected:
                diags.append(_diag(
                    "TV01", PASS_LOOPS,
                    f"tile loop jS{k} {kind} bound is "
                    f"{{{', '.join(map(_atom_str, got))}}}, "
                    f"Fourier-Motzkin gives "
                    f"{{{', '.join(map(_atom_str, expected))}}}",
                    equation="tile bounds from FM elimination of the "
                             "joint (tile, point) polyhedron (§2.3)",
                    subject=subj))

    # ---- TV01: origins, inner loops, j recovery, guards ---------------------
    p = tiling.p.to_int_rows()
    if len(parsed.origins) == n:
        for i in range(n):
            expected = _affine_atom(
                {f"jS{j}": p[i][j] for j in range(n) if p[i][j]})
            _check_atom(parsed.origins[i], expected, "TV01", PASS_LOOPS,
                        f"tile origin o{i}",
                        "origin = P j^S (§2.3)",
                        (("artifact", artifact), ("dim", i)), diags)
    else:
        diags.append(_diag(
            "TV01", PASS_LOOPS,
            f"{artifact} defines {len(parsed.origins)} tile origins "
            f"for {n} dimensions",
            subject=(("artifact", artifact),)))
    _check_inner_loops(ttis, parsed.inner_loops, artifact, diags)
    pp = ttis.p_prime.rows()
    if len(parsed.jdefs) == n:
        for i in range(n):
            coeffs: Dict[str, Fraction] = {"o%d" % i: Fraction(1)}
            for j in range(n):
                if pp[i][j]:
                    coeffs[f"jp{j}"] = pp[i][j]
            expected = atom_from_affine(coeffs, Fraction(0), "floor")
            _check_atom(parsed.jdefs[i], expected, "TV01", PASS_LOOPS,
                        f"global point j{i}",
                        "j = P j^S + P' j' (§2.3)",
                        (("artifact", artifact), ("dim", i)), diags)
    else:
        diags.append(_diag(
            "TV01", PASS_LOOPS,
            f"{artifact} recovers {len(parsed.jdefs)} global "
            f"coordinates for {n} dimensions",
            subject=(("artifact", artifact),)))

    def canon_ineq(coeffs: Mapping[str, Fraction],
                   rhs: Fraction) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        den = rhs.denominator
        for f in coeffs.values():
            den = den * f.denominator // gcd(den, f.denominator)
        ints = {nm: int(f * den) for nm, f in coeffs.items() if f}
        r = int(rhs * den)
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        g = gcd(g, r)
        if g > 1:
            ints = {nm: v // g for nm, v in ints.items()}
            r //= g
        return tuple(sorted(ints.items())), r

    expected_guards = []
    for c in nest.domain.normalized().constraints:
        coeffs = {f"j{i}": a for i, a in enumerate(c.a) if a}
        expected_guards.append(canon_ineq(coeffs, c.b))
    actual_guards = []
    guard_bad = False
    for lhs, rhs in parsed.guards:
        try:
            gc, gk = affine(lhs)
        except NotAffine as exc:
            diags.append(_diag(
                "TV01", PASS_LOOPS,
                f"boundary guard conjunct is not affine: {exc}",
                subject=(("artifact", artifact),)))
            guard_bad = True
            continue
        actual_guards.append(canon_ineq(gc, Fraction(rhs) - gk))
    if not guard_bad and sorted(actual_guards) != sorted(expected_guards):
        diags.append(_diag(
            "TV01", PASS_LOOPS,
            f"boundary guard describes a different polyhedron than the "
            f"original domain ({len(actual_guards)} vs "
            f"{len(expected_guards)} canonical half-spaces or "
            f"different coefficients)",
            equation="guard iff j in the original iteration space "
                     "(§2.3 boundary tiles)",
            subject=(("artifact", artifact),)))

    # ---- TV02: body subscripts vs statement references ----------------------
    diags.extend(_check_sequential_body(nest, parsed.body))
    return diags


def _ref_atoms(ref: Any, n: int) -> Tuple[Atom, ...]:
    """Expected subscript atoms of ``A[F j + f]``, one per array dim."""
    fm = ref.access_matrix().to_int_rows()
    out = []
    for i in range(len(ref.offset)):
        out.append(_affine_atom(
            {f"j{j}": fm[i][j] for j in range(n) if fm[i][j]},
            int(ref.offset[i])))
    return tuple(out)


def _check_sequential_body(nest: LoopNest,
                           body: Sequence[BodyStmt]) -> List[Diagnostic]:
    artifact = "sequential"
    diags: List[Diagnostic] = []
    n = nest.depth
    if len(body) != len(nest.statements):
        diags.append(_diag(
            "TV02", PASS_SUBSCRIPTS,
            f"{artifact} body has {len(body)} statements, nest has "
            f"{len(nest.statements)}",
            subject=(("artifact", artifact),)))
        return diags
    for si, (stmt, s) in enumerate(zip(body, nest.statements)):
        subj: Subject = (("artifact", artifact), ("statement", si),
                         ("line", stmt.line))
        refs = [(f"write of {s.write.array}", stmt.array,
                 stmt.write_args, s.write)]
        if len(stmt.reads) != len(s.reads):
            diags.append(_diag(
                "TV02", PASS_SUBSCRIPTS,
                f"statement {si} has {len(stmt.reads)} reads, nest has "
                f"{len(s.reads)}",
                subject=subj))
        else:
            for ri, read in enumerate(stmt.reads):
                refs.append((f"read {ri}", read.array, read.args,
                             s.reads[ri]))
        for what, arr, args, ref in refs:
            if arr != ref.array:
                diags.append(_diag(
                    "TV02", PASS_SUBSCRIPTS,
                    f"statement {si} {what} references {arr}, nest "
                    f"references {ref.array}",
                    subject=subj))
                continue
            want = _ref_atoms(ref, n)
            if len(args) != len(want):
                diags.append(_diag(
                    "TV02", PASS_SUBSCRIPTS,
                    f"statement {si} {what} has {len(args)} subscripts "
                    f"for a {len(want)}-dimensional array",
                    subject=subj))
                continue
            for i, (arg, w) in enumerate(zip(args, want)):
                _check_atom(
                    arg, w, "TV02", PASS_SUBSCRIPTS,
                    f"statement {si} {what} subscript {i}",
                    "subscripts are the affine references F j + f of "
                    "the statement (§2.1)",
                    subj + (("subscript", i),), diags)
    return diags


# -- pygen schedule tables (TV03) ---------------------------------------------


def check_pygen_source(program: Any, source: str,
                       spec: Any = None) -> List[Diagnostic]:
    """Validate the emitted SPMD schedule module against ``program``."""
    try:
        parsed = read_pygen(source)
    except ReaderError as exc:
        return [_parse_error("pygen", exc)]
    diags: List[Diagnostic] = []
    if parsed.num_ranks != program.num_processors:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"RANKS covers {parsed.num_ranks} ranks, the distribution "
            f"uses {program.num_processors} processors",
            subject=(("artifact", "pygen"),)))
    expected_pids = {r: tuple(p) for p, r in program.rank_of.items()}
    if dict(parsed.pid_of_rank) != expected_pids:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            "PID_OF_RANK disagrees with the distribution's rank "
            "numbering",
            equation="pid = j^S with the mapping dimension dropped "
                     "(§3.1)",
            subject=(("artifact", "pygen"),)))
    for rank, plan in build_rank_plans(program).items():
        expected: List[Tuple[Any, ...]] = []
        for recvs, sends in zip(plan.recvs, plan.sends):
            for r in recvs:
                expected.append(("recv", r.src_rank, r.tag, r.nelems))
                expected.append(("compute",))
            expected.append(("compute",))
            for s in sends:
                expected.append(("compute",))
                expected.append(("send", s.dst_rank, s.tag, s.nelems))
        got = parsed.schedules.get(rank)
        if got is None:
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"rank {rank} has no schedule entry",
                subject=(("artifact", "pygen"), ("rank", rank))))
            continue
        if len(got) != len(expected):
            diags.append(_diag(
                "TV03", PASS_CONSTANTS,
                f"rank {rank} schedule has {len(got)} events, pipeline "
                f"expects {len(expected)}",
                equation="recv / unpack / compute / pack / send per "
                         "tile (§3.3)",
                subject=(("artifact", "pygen"), ("rank", rank))))
            continue
        for ei, (gev, eev) in enumerate(zip(got, expected)):
            if not gev or gev[0] != eev[0]:
                diags.append(_diag(
                    "TV03", PASS_CONSTANTS,
                    f"rank {rank} event {ei} is {gev!r}, pipeline "
                    f"expects a {eev[0]!r} event",
                    subject=(("artifact", "pygen"), ("rank", rank),
                             ("event", ei))))
                continue
            if eev[0] == "compute":
                continue        # timing payload is machine-dependent
            if tuple(gev[1:]) != tuple(eev[1:]):
                diags.append(_diag(
                    "TV03", PASS_CONSTANTS,
                    f"rank {rank} event {ei} is {gev!r}, pipeline "
                    f"expects {(eev[0],) + tuple(eev[1:])!r} "
                    f"(peer rank, tag, element count)",
                    equation="message size = |pack region| x #arrays "
                             "(§3.2)",
                    subject=(("artifact", "pygen"), ("rank", rank),
                             ("event", ei))))
    extra = set(parsed.schedules) - {program.rank_of[p]
                                     for p in program.pids}
    if extra:
        diags.append(_diag(
            "TV03", PASS_CONSTANTS,
            f"schedule table has entries for unknown ranks "
            f"{sorted(extra)}",
            subject=(("artifact", "pygen"),)))
    return diags


# -- declared dependence matrices (TV04) --------------------------------------


def check_declared_dependences(nest: LoopNest) -> List[Diagnostic]:
    """Cross-check ``nest.dependences`` against the statement bodies.

    The frontend pass re-derives the uniform flow dependences from the
    array references (``F d = f_w - f_r``) and compares them with the
    hand-declared matrix: a derivable-but-undeclared vector means the
    compilation pipeline ignored a real dependence (ERROR); a
    declared-but-underivable one over-constrains the schedule
    (WARNING); a non-lexicographically-positive declaration is not a
    valid sequential program (ERROR).
    """
    diags: List[Diagnostic] = []
    declared = tuple(tuple(int(x) for x in d) for d in nest.dependences)
    try:
        derived = nest_dependences(nest.statements)
    except ValueError as exc:
        return [_diag(
            "TV04", PASS_DEPENDENCES,
            f"cannot derive uniform dependences from the statement "
            f"bodies: {exc}",
            equation="F d = f_w - f_r must have an integral solution "
                     "(§2.1 uniform dependences)",
            subject=(("nest", nest.name),))]
    for d in derived:
        if d not in declared:
            diags.append(_diag(
                "TV04", PASS_DEPENDENCES,
                f"dependence {d} derived from the statement bodies is "
                f"missing from the declared matrix {declared}: the "
                f"tiling legality check never saw it",
                equation="D must contain every flow dependence (§2.1)",
                subject=(("nest", nest.name), ("dep", d)),
                suggestion="add the vector to the declared dependence "
                           "matrix"))
    for d in declared:
        if d not in derived:
            diags.append(_diag(
                "TV04", PASS_DEPENDENCES,
                f"declared dependence {d} is not derivable from any "
                f"read/write pair; it over-constrains tiling legality",
                severity=WARNING,
                equation="each column of D comes from a read "
                         "translation (§2.1)",
                subject=(("nest", nest.name), ("dep", d)),
                suggestion="drop the vector or add the read it "
                           "describes"))
        if not is_lexicographically_positive(d):
            diags.append(_diag(
                "TV04", PASS_DEPENDENCES,
                f"declared dependence {d} is not lexicographically "
                f"positive: the nest as written is not a valid "
                f"sequential program",
                equation="d >lex 0 (flow dependences, §2.1)",
                subject=(("nest", nest.name), ("dep", d))))
    return diags
