"""Parsed-program structures the readers produce and the passes check.

One neutral vocabulary for the emitted artifacts: the C+MPI node
program and the sequential tiled C text (read by
:mod:`repro.analysis.transval.creader`) and the pygen schedule module
(read by :mod:`repro.analysis.transval.pyreader`).  Both C texts share
:class:`InnerLoop`, so the TTIS-loop check is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.analysis.transval.loopir import Expr


@dataclass(frozen=True)
class PackLoop:
    """One ``for (jp_k = <lo>; jp_k <= u_kp; jp_k += c_k)`` pack loop."""

    var: str                    # "jp0"
    lower: int                  # the X in ``max(l_kp, X)``; 0 when absent
    upper_var: str              # "u0p"
    step: int
    line: int


@dataclass(frozen=True)
class RecvBlock:
    """One RECEIVE block: guard, MPI_Recv, unpack loops, halo store."""

    d_s: Tuple[int, ...]
    d_m: Tuple[int, ...]
    src: Tuple[int, ...]        # vector inside rank_of_pid_minus
    tag: str
    loops: Tuple[PackLoop, ...]
    store_args: Tuple[Expr, ...]    # MAP argument expressions
    shift: Tuple[int, ...]          # evaluated halo shift per dimension
    line: int


@dataclass(frozen=True)
class SendBlock:
    """One SEND block: pack loops, packed MAP args, MPI_Send."""

    d_m: Tuple[int, ...]
    dst: Tuple[int, ...]
    tag: str
    loops: Tuple[PackLoop, ...]
    pack_args: Tuple[Expr, ...]
    line: int


@dataclass(frozen=True)
class InnerLoop:
    """One TTIS loop level: phase, start, extent, stride, x-recovery."""

    k: int
    phase: Expr                 # RHS of ``ph_k = ...``
    start: Expr                 # loop init expression (``lo_k``'s RHS)
    limit: int                  # exclusive upper bound (``jp_k < limit``)
    step: int
    xdef: Expr                  # RHS of ``x_k = ...``
    line: int


@dataclass(frozen=True)
class ReadRef:
    """One read in a statement body.

    For the MPI text, ``array``/``args`` are set for LDS reads
    (``LA_A[MAP(...)]``) and ``array is None`` for pure-input reads the
    emitter renders in original coordinates.  For sequential artifacts,
    ``args`` holds one affine expression per array dimension.
    """

    array: Optional[str]
    args: Tuple[Expr, ...]
    raw: str


@dataclass(frozen=True)
class BodyStmt:
    """One emitted assignment ``write = F_<arr>(reads...)``."""

    array: str
    write_args: Tuple[Expr, ...]
    reads: Tuple[ReadRef, ...]
    line: int


@dataclass(frozen=True)
class ParsedMpi:
    """The §3 SPMD node program, read back from the emitted C text."""

    name: str
    header: Mapping[str, str]           # comment block key -> raw value
    offsets: Tuple[int, ...]            # #define OFFk
    lds_rows: Tuple[Tuple[int, bool], ...]  # per dim (rows, is_mapping)
    map_params: Tuple[str, ...]
    map_indices: Tuple[Expr, ...]
    recv_blocks: Tuple[RecvBlock, ...]
    send_blocks: Tuple[SendBlock, ...]
    pid_dim: int                        # int pid[<pid_dim>]
    ts_index: int                       # m in ``for (tS = lS<m>; ...)``
    inner_loops: Tuple[InnerLoop, ...]
    body: Tuple[BodyStmt, ...]


@dataclass(frozen=True)
class SeqLoop:
    """One outer tile loop with Fourier-Motzkin bounds."""

    k: int
    lower: Expr
    upper: Expr
    line: int


@dataclass(frozen=True)
class ParsedSequential:
    """The §2.3 sequential tiled loop, read back from the C text."""

    name: str
    header_volume: int
    header_strides: Tuple[int, ...]
    outer: Tuple[SeqLoop, ...]
    origins: Tuple[Expr, ...]           # RHS of ``o_i = ...``
    inner_loops: Tuple[InnerLoop, ...]
    jdefs: Tuple[Expr, ...]             # RHS of ``j_i = ...``
    guards: Tuple[Tuple[Expr, int], ...]    # (lhs, rhs) of ``lhs <= rhs``
    body: Tuple[BodyStmt, ...]


@dataclass(frozen=True)
class ParsedSchedule:
    """The pygen module: rank tables plus per-rank event schedules."""

    num_ranks: int
    pid_of_rank: Mapping[int, Tuple[int, ...]]
    schedules: Mapping[int, Tuple[Tuple[object, ...], ...]]
