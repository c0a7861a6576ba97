"""Reader for the emitted pygen schedule module.

The module is valid Python, so the standard :mod:`ast` module does the
tokenizing; this reader lowers its rank and schedule tables into the
neutral :class:`~repro.analysis.transval.model.ParsedSchedule` the
TV03 pass checks.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.transval.loopir import ReaderError
from repro.analysis.transval.model import ParsedSchedule

__all__ = ["read_pygen"]


def _target_name(node: ast.stmt) -> Optional[str]:
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return node.targets[0].id
    return None


def _range_call(node: ast.expr, line: int) -> List[ast.expr]:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range"):
        raise ReaderError("loop iterator is not a range() call", line)
    return list(node.args)


def _const_int(node: ast.expr, line: int, what: str) -> int:
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)):
        return -node.operand.value
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    raise ReaderError(f"{what} is not an integer literal", line)


def read_pygen(source: str) -> ParsedSchedule:
    """Parse the pygen module tables into a :class:`ParsedSchedule`."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ReaderError(f"pygen module does not parse: {exc}",
                          exc.lineno or 0) from None
    num_ranks: Optional[int] = None
    pid_of_rank: Optional[Dict[int, Tuple[int, ...]]] = None
    schedules: Optional[Dict[int, Tuple[Tuple[object, ...], ...]]] = None
    for node in tree.body:
        name = _target_name(node)
        if name is None or not isinstance(node, ast.Assign):
            continue
        if name == "RANKS":
            # Emitted as ``tuple(range(N))``.
            val = node.value
            if (isinstance(val, ast.Call) and isinstance(val.func, ast.Name)
                    and val.func.id == "tuple" and len(val.args) == 1):
                args = _range_call(val.args[0], node.lineno)
                if len(args) == 1:
                    num_ranks = _const_int(args[0], node.lineno, "RANKS")
                    continue
            raise ReaderError("RANKS is not tuple(range(N))", node.lineno)
        if name == "PID_OF_RANK":
            try:
                raw = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                raise ReaderError("PID_OF_RANK is not a literal dict",
                                  node.lineno) from None
            pid_of_rank = {int(r): tuple(p) for r, p in raw.items()}
        if name == "SCHEDULES":
            try:
                raw = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                raise ReaderError("SCHEDULES is not a literal dict",
                                  node.lineno) from None
            schedules = {int(r): tuple(tuple(ev) for ev in evs)
                         for r, evs in raw.items()}
    if num_ranks is None:
        raise ReaderError("RANKS table not found")
    if pid_of_rank is None:
        raise ReaderError("PID_OF_RANK table not found")
    if schedules is None:
        raise ReaderError("SCHEDULES table not found")
    return ParsedSchedule(
        num_ranks=num_ranks,
        pid_of_rank=pid_of_rank,
        schedules=schedules,
    )
