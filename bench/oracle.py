"""Independent oracle and compute denominator: the hand-written untiled
C loops of ``bench/ref`` called through ctypes.

Nothing here goes through the tiling pipeline: the loops run in original
coordinates over plain row-major arrays whose initial plane and boundary
the harness fills by calling the workload's ``init`` function cell by
cell — the same scalar calls the engines make, so the final fields must
agree at ``max_abs_err == 0.0``.  Build flags match the native backend's
(no contraction, no fast-math), otherwise bitwise equality would be luck.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
SOURCES = ("sor.c", "jacobi.c", "adi.c")
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

InitFn = Callable[[str, Tuple[int, ...]], float]
_DP = ctypes.POINTER(ctypes.c_double)


class OracleError(RuntimeError):
    """No working C compiler, or the reference loops failed to build."""


def find_cc() -> str:
    name = (os.environ.get("CC") or "cc").split()[0]
    path = shutil.which(name)
    if path is None:
        raise OracleError(f"no C compiler: {name!r} is not on PATH "
                          "(the oracle needs one; set $CC)")
    return path


def cc_version() -> str:
    out = subprocess.run([find_cc(), "--version"], capture_output=True,
                         text=True, timeout=30, check=False)
    lines = (out.stdout or out.stderr).splitlines()
    return lines[0].strip() if lines else f"rc={out.returncode}"


def build(out_dir: str) -> ctypes.CDLL:
    """Compile ``bench/ref/*.c`` into ``out_dir/ref.so`` and load it."""
    cc = find_cc()
    so_path = os.path.join(out_dir, "ref.so")
    cmd = [cc, *CFLAGS, *(os.path.join(REF_DIR, s) for s in SOURCES),
           "-o", so_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise OracleError(f"{cc} failed to run: {exc}") from exc
    if proc.returncode != 0 or not os.path.exists(so_path):
        raise OracleError(f"{cc} exited {proc.returncode}: "
                          f"{(proc.stderr or proc.stdout).strip()[:2000]}")
    lib = ctypes.CDLL(so_path)
    lib.ref_sor.restype = None
    lib.ref_sor.argtypes = [ctypes.c_long, ctypes.c_long,
                            ctypes.c_double, ctypes.c_double, _DP]
    lib.ref_jacobi.restype = None
    lib.ref_jacobi.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_long,
                               ctypes.c_double, _DP]
    lib.ref_adi.restype = None
    lib.ref_adi.argtypes = [ctypes.c_long, ctypes.c_long, _DP, _DP, _DP]
    return lib


@dataclass
class Reference:
    """Final fields of the untiled loop (interior views, origin 1,1,1)
    and the median wall time of the loop itself."""

    fields: Dict[str, np.ndarray]
    c_loop_s: float


def _boundary(shape: Sequence[int], array: str, init: InitFn,
              high_border: bool) -> np.ndarray:
    """NaN-filled ``shape`` array with the t = 0 plane and the spatial
    borders of every plane set from ``init`` (cell == array index)."""
    a = np.full(shape, np.nan, dtype=np.float64)
    nt, ni, nj = shape
    a[0] = [[init(array, (0, i, j)) for j in range(nj)] for i in range(ni)]
    for t in range(1, nt):
        a[t, 0, :] = [init(array, (t, 0, j)) for j in range(nj)]
        a[t, :, 0] = [init(array, (t, i, 0)) for i in range(ni)]
        if high_border:
            a[t, ni - 1, :] = [init(array, (t, ni - 1, j))
                               for j in range(nj)]
            a[t, :, nj - 1] = [init(array, (t, i, nj - 1))
                               for i in range(ni)]
    return a


def _ptr(a: np.ndarray) -> "ctypes._Pointer[ctypes.c_double]":
    assert a.dtype == np.float64 and a.flags.c_contiguous
    return a.ctypes.data_as(_DP)


def _timed(call: Callable[[], None], repeats: int = 3) -> float:
    # The loops are idempotent (every interior cell is rewritten from the
    # boundary in order), so repeating them in place is safe.
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        call()
        times.append((time.perf_counter_ns() - t0) / 1e9)
    return statistics.median(times)


def solve(lib: ctypes.CDLL, app: str, sizes: Sequence[int],
          init: InitFn) -> Reference:
    """Run the C reference for ``app`` at ``sizes`` under ``init``."""
    from repro.apps import jacobi, sor   # kernel constants only

    if app == "sor":
        m, n = sizes
        a = _boundary((m + 1, n + 2, n + 2), "A", init, True)
        secs = _timed(lambda: lib.ref_sor(
            m, n, sor.OMEGA / 4.0, 1.0 - sor.OMEGA, _ptr(a)))
        return Reference({"A": a[1:, 1:-1, 1:-1]}, secs)
    if app == "jacobi":
        tt, ni, nj = sizes
        a = _boundary((tt + 1, ni + 2, nj + 2), "A", init, True)
        secs = _timed(lambda: lib.ref_jacobi(
            tt, ni, nj, jacobi.COEF, _ptr(a)))
        return Reference({"A": a[1:, 1:-1, 1:-1]}, secs)
    if app == "adi":
        tt, n = sizes
        x = _boundary((tt + 1, n + 1, n + 1), "X", init, False)
        b = _boundary((tt + 1, n + 1, n + 1), "B", init, False)
        coef = np.full((n + 1, n + 1), np.nan, dtype=np.float64)
        coef[1:, 1:] = [[init("A", (i, j)) for j in range(1, n + 1)]
                        for i in range(1, n + 1)]
        secs = _timed(lambda: lib.ref_adi(
            tt, n, _ptr(coef), _ptr(x), _ptr(b)))
        return Reference({"X": x[1:, 1:, 1:], "B": b[1:, 1:, 1:]}, secs)
    raise ValueError(f"no C reference for app {app!r}")


def max_abs_err(fields: Mapping[str, object], ref: Reference) -> float:
    """Largest |engine - reference| over all written arrays; ``inf`` on
    any structural disagreement or NaN (a read of an unfilled cell)."""
    if set(fields) != set(ref.fields):
        return float("inf")
    worst = 0.0
    for name, want in ref.fields.items():
        f = fields[name]
        if (tuple(f.origin) != (1, 1, 1) or f.values.shape != want.shape
                or not f.written.all()):
            return float("inf")
        err = float(np.max(np.abs(f.values - want)))
        if err != err:
            return float("inf")
        worst = max(worst, err)
    return worst


# Tiny sizes for the selftest: every boundary kind is touched, and the
# dict-based references stay in the millisecond range.
SELFTEST_SIZES = {"sor": (4, 6), "jacobi": (3, 5, 4), "adi": (4, 5)}


def selftest(lib: ctypes.CDLL) -> Dict[str, float]:
    """C reference vs ``repro.apps.<app>.reference`` at tolerance 0.0.

    Returns ``app -> max_abs_err``; every value must be exactly 0.0.
    """
    from repro.apps import adi, jacobi, sor

    errs: Dict[str, float] = {}
    for name, mod in (("sor", sor), ("jacobi", jacobi), ("adi", adi)):
        sizes = SELFTEST_SIZES[name]
        got = solve(lib, name, sizes, mod.init_value).fields
        want = mod.reference(*sizes)
        if name != "adi":
            want = {"A": want}
        worst = 0.0
        for arr, cells in want.items():
            if len(cells) != got[arr].size:
                worst = float("inf")
                continue
            for (t, i, j), v in cells.items():
                err = abs(float(got[arr][t - 1, i - 1, j - 1]) - v)
                worst = float("inf") if err != err else max(worst, err)
        errs[name] = worst
    return errs
