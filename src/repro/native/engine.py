"""Build pipeline and runtime objects for the native kernel backend.

``build_native_library`` runs once per program (at program-build /
CLI-startup time): it renders the translation unit, resolves a C
compiler, and obtains the shared object from the content-addressed
:class:`~repro.artifacts.cache.ArtifactCache` — compiling only on a
cold key.  The resulting :class:`NativeKernelLibrary` is a small
picklable value object (workers receive it through the spawn/fork
pickle path and ``dlopen`` the cached ``.so`` themselves); every
condition that prevents native execution is recorded as a
``fallback_reason`` instead of raised, so the engines degrade to the
numpy path without ceremony.

The runtime side passes constants only; the ``.so`` derives every
address from the TTIS loops (:mod:`repro.native.emit`):

* per run (:class:`NativeRuntime`): the pure-input tables of the dense
  engine's :class:`~repro.runtime.dense.InputTable`, the fields and
  their :class:`~repro.runtime.dense.GlobalTable` geometry ``gtile,
  gconst``;
* per rank (:class:`RankKernels`): the LDS buffers, the geometry
  ``strides, off, shift_unit`` of the rank's
  :class:`~repro.runtime.dense.RankLDS` and its chain's tile origins;
* per tile: the chain index ``t``; per phase of the overlapped
  schedule, the phase's window ``[klo, khi)`` of the overlap key and
  the tile's send boxes (one C array per send signature).

A dependence read needs nothing per tile: its out-of-domain sources
were filled into their halo cells by the rank's LDS before the tile
runs.  Bitwise identity with the dense engine follows: every point
reads the same cells into the same IEEE-754 operations, only the order
of mutually independent points changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.native.compile import (
    NativeCompileError,
    compile_shared_object,
    compiler_fingerprint,
    find_compiler,
)
from repro.native.emit import (
    NATIVE_ABI_VERSION,
    KernelPlan,
    NativeEmitError,
    emit_translation_unit,
)

if TYPE_CHECKING:
    from repro.runtime.dense import DenseData, RankLDS

InitFn = Callable[[str, Tuple[int, ...]], float]


def default_cache_root() -> str:
    """Per-user scratch cache used when no explicit cache is given."""
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def native_key(content: str, source_hash: str,
               compiler_fp: str) -> str:
    """Cache key of one shared object.

    Folds the program content key (geometry), the emitted C source
    hash (kernel arithmetic — deliberately outside the content key),
    the compiler fingerprint and the ABI version, so editing a kernel,
    upgrading the compiler or changing the calling convention each
    miss cleanly instead of loading a stale object.
    """
    doc = (f"repro-native\x00{content}\x00{source_hash}\x00"
           f"{compiler_fp}\x00abi={NATIVE_ABI_VERSION}")
    return hashlib.sha256(doc.encode()).hexdigest()


class _Entries(NamedTuple):
    tile: Any
    write_back: Any


# Per-process dlopen memo: CDLL handles are not picklable, so workers
# re-open the cached .so by path (cheap, and the OS shares the pages).
_FN_CACHE: Dict[str, _Entries] = {}

#: Added to ``COMPILE_FLAGS`` for the rank body: its loops run as fast
#: at -O1 as at -O2 (sor, jacobi and adi of ``bench/``) and compile in
#: about four fifths of the time, which every cold build pays.
BODY_FLAGS = ["-O1"]

_VP, _L = ctypes.c_void_p, ctypes.c_long
#: argtypes per exported entry (see :mod:`repro.native.emit`)
_SIGNATURES = {
    # t, org, geo, bufs, pure, klo, khi, box
    "repro_tile": [_L, _VP, _VP, _VP, _VP, _L, _L, _VP],
    # t, org, geo, bufs, dst, written, fgeo
    "repro_write_back": [_L, _VP, _VP, _VP, _VP, _VP, _VP],
}


def _load_fn(so_path: str) -> _Entries:
    entries = _FN_CACHE.get(so_path)
    if entries is None:
        lib = ctypes.CDLL(so_path)
        fns = []
        try:
            for name, argtypes in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.restype = None
                fn.argtypes = argtypes
                fns.append(fn)
        except AttributeError:
            # unload it, or an object rebuilt at this path resolves to
            # this one (dlopen matches loaded libraries by name)
            import _ctypes
            _ctypes.dlclose(lib._handle)
            raise
        entries = _FN_CACHE[so_path] = _Entries(*fns)
    return entries


@dataclass
class NativeKernelLibrary:
    """Outcome of one native build: a loadable ``.so`` or a reason.

    A plain picklable value, so the parallel engine ships it to
    workers inside ``_RunConfig``.
    """

    status: str                       # "hit" | "miss" | "fallback"
    fallback_reason: Optional[str] = None
    key: Optional[str] = None
    so_path: Optional[str] = None
    source: Optional[str] = None
    source_hash: Optional[str] = None
    compiler: Optional[str] = None
    compiler_fp: Optional[str] = None
    plan: Optional[KernelPlan] = None

    @property
    def available(self) -> bool:
        return self.so_path is not None

    def runtime(self, program: Any,
                init_value: InitFn) -> Optional["NativeRuntime"]:
        """A :class:`NativeRuntime` for a standalone caller, or
        ``None`` (see :meth:`runtime_for`)."""
        from repro.runtime.dense import DenseData
        return self.runtime_for(DenseData(program, init_value))

    def runtime_for(self, data: "DenseData") -> Optional["NativeRuntime"]:
        """The native runtime over one run's dense data, or ``None``
        ("use the numpy path": the library fell back at build time)."""
        if not self.available:
            return None
        return NativeRuntime(data, self)


def build_native_library(program: Any,
                         cache: Optional[Any] = None,
                         cache_root: Optional[str] = None,
                         ) -> NativeKernelLibrary:
    """Emit + compile (or cache-hit) the program's kernel ``.so``.

    Never raises for an unusable toolchain or nest — every such
    condition returns a ``status="fallback"`` library whose
    ``fallback_reason`` the CLI and tests surface.  ``cache`` is an
    :class:`~repro.artifacts.cache.ArtifactCache` (or anything with
    its native methods); by default ``$REPRO_CACHE_DIR`` and then a
    per-user temp directory are used.
    """
    from repro.artifacts.cache import ArtifactCache, cache_from_env
    from repro.artifacts.hashing import content_key

    def fallback(reason: str) -> NativeKernelLibrary:
        return NativeKernelLibrary(status="fallback",
                                   fallback_reason=reason)

    if ctypes.sizeof(ctypes.c_long) != 8:
        return fallback("C long is not 64-bit on this platform")

    try:
        plan = emit_translation_unit(
            program.nest, tuple(program.arrays), program.nest.name,
            program.tiling)
    except NativeEmitError as exc:
        return fallback(str(exc))

    cc = find_compiler()
    if cc is None:
        return fallback("no C compiler found ($CC, cc, gcc, clang)")
    cc_fp = compiler_fingerprint(cc)
    key = native_key(
        content_key(program.nest, program.tiling.h, program.dist.m),
        plan.source_hash, cc_fp)

    if cache is None:
        cache = cache_from_env(cache_root)
    if cache is None:
        cache = ArtifactCache(default_cache_root())

    so_path = cache.native_lookup(key)
    status = "hit"
    if so_path is not None:
        # The memoised dlopen the run needs anyway: a torn or foreign
        # object is rebuilt here instead of crashing a run (or worker).
        try:
            _load_fn(so_path)
        except (OSError, AttributeError):
            cache.native_reject()
            so_path = None
    if so_path is None:
        status = "miss"
        so_path = cache.native_path(key)
        try:
            compile_shared_object(cc, plan.source, so_path, BODY_FLAGS)
        except NativeCompileError as exc:
            return fallback(f"compile failed: {exc}")
        cache.native_store_source(key, plan.source)

    return NativeKernelLibrary(
        status=status,
        key=key,
        so_path=so_path,
        source=plan.source,
        source_hash=plan.source_hash,
        compiler=cc,
        compiler_fp=cc_fp,
        plan=plan,
    )


# -- runtime ------------------------------------------------------------------


def _ptrs(arrays: Sequence[np.ndarray]) -> Any:
    """A C array of the data pointers of ``arrays`` (at least one slot);
    it does not keep them alive — their owner does."""
    return (ctypes.c_void_p * max(len(arrays), 1))(
        *[a.ctypes.data for a in arrays])


def _longs(values: Sequence[int]) -> Any:
    return (ctypes.c_long * len(values))(*values)


class NativeRuntime:
    """The loaded entries of one run, on top of the run's
    :class:`~repro.runtime.dense.DenseData`: its input tables and fields
    as C pointer arrays (the arrays stay owned by ``data``)."""

    def __init__(self, data: "DenseData", library: NativeKernelLibrary):
        assert library.so_path is not None
        assert library.plan is not None
        self.data = data
        self.plan = library.plan
        self.fns = _load_fn(library.so_path)
        assert data.arrays == self.plan.arrays, \
            "library built for a different array layout"
        dense_s = tuple(data.prog.stage("dense_s"))
        assert dense_s == self.plan.dense_s, "library built for other levels"
        pures = [rp.table.values for plan in data.plans for rp in plan.reads
                 if rp.table is not None]
        for a in [*pures, *(g.values for g in data.gtables)]:
            assert a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]
        self.pure = _ptrs(pures)
        self.dst = _ptrs([g.values for g in data.gtables])
        self.written = _ptrs([g.written for g in data.gtables])
        self.fgeo = _longs([v for g in data.gtables
                            for v in (*g.gtile.tolist(), g.gconst)])
        self._boxes: Dict[Tuple[Tuple[int, ...], ...], Any] = {}

    def box(self, sends: Tuple[Tuple[int, ...], ...]) -> Any:
        """The send boxes of a tile sending toward ``sends``, ``[count,
        lower bounds...]`` (one C array per send signature)."""
        box = self._boxes.get(sends)
        if box is None:
            comm = self.data.prog.comm
            box = self._boxes[sends] = _longs([len(sends), *(
                lb for d in sends for lb in comm.pack_lower_bounds(d))])
        return box

    def for_rank(self, lds: "RankLDS") -> "RankKernels":
        return RankKernels(self, lds)


class RankKernels:
    """One rank's native executor over its LDS buffers: one
    ``repro_tile`` call per non-empty tile (``run_tile``) or per
    non-empty phase of an overlapped tile (``run_phase``, on the
    context ``(t, box)`` of :meth:`tile`), one ``repro_write_back``
    call per non-empty tile (``write_back``)."""

    def __init__(self, rt: NativeRuntime, lds: "RankLDS"):
        self.rt = rt
        self.lds = lds                  # keeps the pointed-to buffers alive
        bufs = [lds.local[a] for a in rt.plan.arrays]
        for buf in bufs:
            assert buf.dtype == np.float64 and buf.flags["C_CONTIGUOUS"]
        self._bufs = _ptrs(bufs)
        self._geo = _longs([*lds.strides.tolist(), *lds.offsets.tolist(),
                            lds.tables.shift_unit])
        assert lds.origins.flags["C_CONTIGUOUS"]
        self._org = lds.origins.ctypes.data
        self._org_step = lds.origins.strides[0]
        self.points = rt.data.prog.tiling.tile_point_count

    def _call(self, t: int, klo: int, khi: int, box: Any) -> None:
        """One ``repro_tile`` call on chain tile ``t``: the points of
        window ``[klo, khi)`` of ``box``, or all of them (``None``)."""
        rt = self.rt
        rt.fns.tile(t, self._org + self._org_step * t, self._geo,
                    self._bufs, rt.pure, klo, khi, box)

    def tile(self, t: int,
             sends: Tuple[Tuple[int, ...], ...]) -> Tuple[int, Any]:
        """The context of overlapped chain tile ``t`` sending toward
        ``sends``: its index and send boxes."""
        return t, self.rt.box(sends)

    def run_tile(self, tile: Tuple[int, ...], t: int) -> None:
        """Every point of one tile in one native call (none when the
        tile is empty)."""
        if self.points(tile):
            self._call(t, 0, 0, None)

    def run_phase(self, ctx: Tuple[int, Any], klo: int, khi: int) -> None:
        """The points of key window ``[klo, khi)`` of an overlapped
        tile — one phase of its plan — in one native call."""
        t, box = ctx
        self._call(t, klo, khi, box)

    def write_back(self, tile: Tuple[int, ...], t: int) -> None:
        """One ``repro_write_back`` call: chain tile ``t``'s points of
        every written array, from the LDS to the fields."""
        if self.points(tile):
            rt = self.rt
            rt.fns.write_back(t, self._org + self._org_step * t,
                              self._geo, self._bufs, rt.dst, rt.written,
                              rt.fgeo)
