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

The runtime side derives no address and no boundary value of its own:
it marshals the dense engine's objects to C, so its index algebra is
the dense engine's by construction:

* the LDS flat address of lattice point ``i`` of the tile with chain
  index ``t`` is ``base[i] + t * shift_unit`` — the
  :class:`~repro.runtime.dense.LdsTables` of the rank's
  :class:`~repro.runtime.dense.RankLDS` (``RankLDS.to_flat`` at
  ``t = 0`` per LDS geometry; the shift is exact because
  ``TTIS.__init__`` refuses any tiling with ``c_k`` not dividing
  ``v_k``);
* per tile, the :class:`~repro.runtime.dense.TileContext` the numpy
  batches read too: the executed points and, per pure-input read
  (ADI's coefficient array), the values gathered from the dense
  engine's :class:`~repro.runtime.dense.InputTable`.  A dependence read
  needs nothing per tile: its out-of-domain sources were filled into
  their halo cells by the rank's LDS before the tile runs;
* per (tile, written array), the write-back's global addresses: the
  :class:`~repro.runtime.dense.GlobalTable` ``gbase`` plus the tile's
  ``gshift``, copied by ``repro_write_back``.

Bitwise identity with the dense engine follows: same values flow into
the same IEEE-754 operations in the same order, only the loop driver
changes.
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
    from repro.runtime.dense import (
        DenseData,
        GlobalTable,
        RankLDS,
        TileContext,
    )

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
    run: Any
    write_back: Any


# Per-process dlopen memo: CDLL handles are not picklable, so workers
# re-open the cached .so by path (cheap, and the OS shares the pages).
_FN_CACHE: Dict[str, _Entries] = {}

_VP, _L = ctypes.c_void_p, ctypes.c_long
#: argtypes per exported entry (see :mod:`repro.native.emit`)
_SIGNATURES = {
    # nseg, seg_off, sel, shift, bufs, wbase, rbase, pure
    "repro_run": [_L, _VP, _VP, _L, _VP, _VP, _VP, _VP],
    # nlat, mask, wbase, shift, src, gbase, gshift, dst, written
    "repro_write_back": [_L, _VP, _VP, _L, _VP, _VP, _L, _VP, _VP],
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

    def runtime(self, program: Any, init_value: InitFn,
                dtype: Any = np.float64) -> Optional["NativeRuntime"]:
        """A :class:`NativeRuntime` for a standalone caller, or
        ``None`` (see :meth:`runtime_for`)."""
        from repro.runtime.dense import DenseData
        return self.runtime_for(DenseData(program, init_value, dtype))

    def runtime_for(self, data: "DenseData") -> Optional["NativeRuntime"]:
        """The native runtime over one run's dense data, or ``None``.

        ``None`` means "use the numpy path": the library fell back at
        build time, or this run's dtype is not float64 (the emitted
        kernels compute in double).
        """
        if not self.available or np.dtype(data.dtype) != np.float64:
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
            program.nest, tuple(program.arrays), program.nest.name)
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
            compile_shared_object(cc, plan.source, so_path)
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


class NativeRuntime:
    """The loaded entries of one run, on top of the run's
    :class:`~repro.runtime.dense.DenseData` (whose plans, tables and
    per-tile contexts it marshals — it derives no address itself)."""

    def __init__(self, data: "DenseData", library: NativeKernelLibrary):
        assert library.so_path is not None
        assert library.plan is not None
        self.data = data
        self.plan = library.plan
        self.fns = _load_fn(library.so_path)
        assert data.arrays == self.plan.arrays, \
            "library built for a different array layout"
        for g in data.gtables:          # repro_write_back's arguments
            assert g.gbase.dtype == np.int64 and g.gbase.flags["C_CONTIGUOUS"]
            assert g.values.dtype == np.float64 and g.written.itemsize == 1

    def for_rank(self, lds: "RankLDS") -> "RankKernels":
        return RankKernels(self, lds)


class RankKernels:
    """One rank's native executor over its LDS buffers.

    ``run_tile`` executes a whole tile (all wavefront levels, one C
    call); ``run_segments`` executes a range of the tile context's
    segments — one phase of the overlapped schedule — in one C call;
    ``write_back`` copies one tile's points of one array to its field.
    """

    def __init__(self, rt: NativeRuntime, lds: "RankLDS"):
        self.rt = rt
        self.lds = lds                  # keeps the pointed-to buffers alive
        arrays = rt.plan.arrays
        for a in arrays:
            buf = lds.local[a]
            assert buf.dtype == np.float64 and buf.flags["C_CONTIGUOUS"]
        self._bufs = (ctypes.c_void_p * len(arrays))(
            *[lds.local[a].ctypes.data for a in arrays])
        self._wbase = lds.tables.wbase.ctypes.data
        n_dep = max(rt.plan.n_dep_slots, 1)
        n_pure = max(rt.plan.n_pure_slots, 1)
        self._rb = (ctypes.c_void_p * n_dep)()
        for slot in rt.plan.slots:
            if slot.kind == "dep":
                rbase = lds.rbase[slot.stmt_index][slot.read_index]
                assert rbase is not None
                self._rb[slot.slot] = rbase.ctypes.data
        self._pure = (ctypes.c_void_p * n_pure)()
        self._pure_slots = [s for s in rt.plan.slots if s.kind == "pure"]
        self._ctx: Optional["TileContext"] = None   # the one marshalled
        self._sel = self._seg = 0       # addresses of its sel and seg

    def _marshal(self, ctx: "TileContext") -> None:
        """Point the per-tile argument arrays at ``ctx`` (which pins
        what they point to for as long as it is the current one)."""
        for idx in (ctx.sel, ctx.seg):
            if idx.dtype != np.int64 or not idx.flags["C_CONTIGUOUS"]:
                raise ValueError(
                    "tile segments must be C-contiguous int64 arrays")
        for slot in self._pure_slots:
            vals = ctx.pure[slot.stmt_index][slot.read_index]
            assert vals is not None
            self._pure[slot.slot] = vals.ctypes.data
        self._sel, self._seg = ctx.sel.ctypes.data, ctx.seg.ctypes.data
        self._ctx = ctx

    def _call(self, ctx: "TileContext", lo: int, hi: int) -> None:
        """``repro_run`` over segments ``[lo, hi)`` of ``ctx``.  The
        driver reads ``seg_off`` as absolute offsets into ``sel``, so a
        sub-range is the same two arrays entered ``lo`` words in."""
        if ctx is not self._ctx:
            self._marshal(ctx)
        self.rt.fns.run(
            hi - lo,
            self._seg + 8 * lo,
            self._sel,
            ctx.shift,
            ctypes.addressof(self._bufs),
            self._wbase,
            ctypes.addressof(self._rb),
            ctypes.addressof(self._pure),
        )

    def run_tile(self, ctx: "TileContext") -> None:
        """All wavefront levels of one tile in one native call."""
        if len(ctx.sel):
            self._call(ctx, 0, len(ctx.seg) - 1)

    def run_segments(self, ctx: "TileContext", lo: int, hi: int) -> None:
        """Segments ``[lo, hi)`` of one tile — a phase of the
        overlapped schedule — in one native call (none when empty)."""
        if ctx.seg[lo] < ctx.seg[hi]:
            self._call(ctx, lo, hi)

    def write_back(self, mask: Optional[np.ndarray], shift: int,
                   g: "GlobalTable", gshift: int) -> None:
        """One ``repro_write_back`` call: the tile's points kept by
        ``mask`` (``None``: every lattice point) of ``g.array``, from
        LDS cell ``wbase + shift`` to field cell ``gbase + gshift``."""
        tb = self.lds.tables
        self.rt.fns.write_back(
            len(tb.wbase),
            None if mask is None else mask.ctypes.data,
            self._wbase,
            shift,
            self.lds.local[g.array].ctypes.data,
            g.gbase.ctypes.data,
            gshift,
            g.values.ctypes.data,
            g.written.ctypes.data,
        )
