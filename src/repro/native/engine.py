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

The runtime side reuses the dense engine's own objects — the statement
plans of :class:`~repro.runtime.dense.DenseData` and the addressing of
:class:`~repro.runtime.dense.RankLDS` — so its index algebra is the
dense engine's by construction:

* the LDS flat address of lattice point ``i`` of the tile with chain
  index ``t`` is ``base[i] + t * (V_m/c_m) * strides[m]`` — ``base``
  is ``RankLDS.to_flat`` at ``t = 0`` (numpy floor division) per LDS
  geometry, the shift exact because the backend only engages when
  ``c_m | V_m``;
* a read slot's source is in-domain iff ``A @ (g - dep) <= b``;
  rewritten per tile as ``A_tis[:, i] <= b - A @ (origin - dep)`` with
  ``A_tis = A @ tis.T`` precomputed (all int64, so the rearrangement
  is exact).  A per-dependence row-max of ``A_tis`` decides "whole
  tile in-domain" in O(rows) — the common interior-tile case passes
  NULL masks to C and skips all boundary work;
* out-of-domain reads are replaced by the *same scalar*
  ``init_value(array, ref.index(g))`` calls the dense engine's
  ``fix_out_of_domain`` makes, precomputed per tile into ``fix``
  arrays the C conditional selects from;
* pure-input reads (ADI's coefficient array) gather per tile from the
  dense engine's :class:`~repro.runtime.dense.InputTable` into flat
  per-lattice tables.

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
    List,
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


# Per-process dlopen memo: CDLL handles are not picklable, so workers
# re-open the cached .so by path (cheap, and the OS shares the pages).
_FN_CACHE: Dict[str, Any] = {}


def _load_fn(so_path: str) -> Any:
    fn = _FN_CACHE.get(so_path)
    if fn is None:
        lib = ctypes.CDLL(so_path)
        fn = lib.repro_run
        fn.restype = None
        fn.argtypes = [
            ctypes.c_long,    # nseg
            ctypes.c_void_p,  # seg_off
            ctypes.c_void_p,  # sel
            ctypes.c_long,    # shift
            ctypes.c_void_p,  # bufs
            ctypes.c_void_p,  # wbase
            ctypes.c_void_p,  # rbase
            ctypes.c_void_p,  # pure
            ctypes.c_void_p,  # oob
            ctypes.c_void_p,  # fix
        ]
        _FN_CACHE[so_path] = fn
    return fn


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

    ttis = program.tiling.ttis
    m = program.dist.m
    v_m, c_m = int(ttis.v[m]), int(ttis.c[m])
    if c_m == 0 or v_m % c_m != 0:
        return fallback(
            f"stride c[{m}]={c_m} does not divide box V[{m}]={v_m}; "
            f"per-tile flat shifts would be inexact")

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
        content_key(program.nest, program.tiling.h, m),
        plan.source_hash, cc_fp)

    if cache is None:
        cache = cache_from_env(cache_root)
    if cache is None:
        cache = ArtifactCache(default_cache_root())

    so_path = cache.native_lookup(key)
    status = "hit"
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


@dataclass
class _DepSlot:
    slot: int                 # C-side dep-slot index
    ref: Any                  # ArrayRef
    indexer: Any              # RefIndexer (int64 twin of ref.index)
    dep: np.ndarray           # original dependence (int64, n)
    dep_key: Tuple[int, ...]
    dp: np.ndarray            # its TTIS image d' (int64, n)
    dp_key: Tuple[int, ...]


@dataclass
class _PureSlot:
    slot: int
    table: Any                # InputTable
    indexer: Any              # RefIndexer
    group: int                # shared-gather group id


@dataclass
class _Bases:
    wbase: np.ndarray
    rbase: Dict[Tuple[int, ...], np.ndarray]
    shift_unit: int


class NativeRuntime:
    """Program-level precompute shared by every rank of one run, on
    top of the run's :class:`~repro.runtime.dense.DenseData`."""

    def __init__(self, data: "DenseData", library: NativeKernelLibrary):
        assert library.so_path is not None
        assert library.plan is not None
        program = data.prog
        self.program = program
        self.plan = library.plan
        self.fn = _load_fn(library.so_path)
        self.init_value = data.init_value

        self.arrays: Tuple[str, ...] = data.arrays
        assert self.arrays == self.plan.arrays, \
            "library built for a different array layout"
        self.lat = np.ascontiguousarray(data.lat, dtype=np.int64)
        self.tis = np.ascontiguousarray(data.tis, dtype=np.int64)
        self.nlat = len(self.lat)
        self.amat = data.amat
        self.bvec = data.bvec
        self.m = data.m
        self.shift_rows = int(data.rows[self.m])

        self.dep_slots: List[_DepSlot] = []
        self.pure_slots: List[_PureSlot] = []
        pure_groups: Dict[Tuple[Any, ...], int] = {}
        for slot in self.plan.slots:
            rp = data.plans[slot.stmt_index].reads[slot.read_index]
            if slot.kind == "dep":
                assert rp.dep is not None and rp.dep_prime is not None
                self.dep_slots.append(_DepSlot(
                    slot=slot.slot, ref=rp.ref, indexer=rp.indexer,
                    dep=rp.dep,
                    dep_key=tuple(int(x) for x in rp.dep),
                    dp=rp.dep_prime,
                    dp_key=tuple(int(x) for x in rp.dep_prime)))
            else:
                assert rp.table is not None
                gkey = (id(rp.table),
                        tuple(rp.indexer.offset.tolist()),
                        None if rp.indexer.f_int is None
                        else tuple(map(tuple,
                                       rp.indexer.f_int.tolist())))
                group = pure_groups.setdefault(gkey, len(pure_groups))
                self.pure_slots.append(_PureSlot(
                    slot=slot.slot, table=rp.table,
                    indexer=rp.indexer, group=group))
        self.distinct_deps: List[Tuple[Tuple[int, ...], np.ndarray]] = []
        seen: Dict[Tuple[int, ...], None] = {}
        for ds in self.dep_slots:
            if ds.dep_key not in seen:
                seen[ds.dep_key] = None
                self.distinct_deps.append((ds.dep_key, ds.dep))

        # In-domain fast path: A_tis[:, i] = A @ tis_i, with row maxima
        # (all int64 → the per-tile threshold comparison is exact).
        self.a_tis = np.ascontiguousarray(self.amat @ self.tis.T)
        self.a_tis_rowmax = (self.a_tis.max(axis=1)
                             if self.a_tis.size
                             else np.zeros(len(self.bvec),
                                           dtype=np.int64))

        self._bases: Dict[Tuple[Any, ...], _Bases] = {}
        self._full_segments: Optional[
            Tuple[np.ndarray, np.ndarray]] = None

    # -- segments (sel + per-level prefix offsets) ------------------------

    def segments(self, tile: Tuple[int, ...]
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated wavefront-level batches of one tile."""
        full = self.program.tiling.classify_tile(tile) == "full"
        if full and self._full_segments is not None:
            return self._full_segments
        batches = self.program.dense_level_batches(tile)
        if batches:
            sel = np.ascontiguousarray(
                np.concatenate(batches), dtype=np.int64)
        else:
            sel = np.zeros(0, dtype=np.int64)
        seg = np.zeros(len(batches) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in batches], out=seg[1:])
        out = (sel, seg)
        if full:
            self._full_segments = out
        return out

    # -- per-LDS-geometry base arrays -------------------------------------

    def bases_for(self, lds: "RankLDS") -> _Bases:
        """Chain-tile-0 flat addresses of every lattice point (writes)
        and of its ``d'``-shifted sources (reads), per LDS geometry —
        computed by the LDS's own ``to_flat``."""
        key = (lds.geom.shape, lds.geom.offsets)
        bases = self._bases.get(key)
        if bases is None:
            rbase: Dict[Tuple[int, ...], np.ndarray] = {}
            for ds in self.dep_slots:
                if ds.dp_key not in rbase:
                    rbase[ds.dp_key] = np.ascontiguousarray(
                        lds.to_flat(self.lat - ds.dp, 0))
            bases = _Bases(
                wbase=np.ascontiguousarray(lds.to_flat(self.lat, 0)),
                rbase=rbase,
                shift_unit=self.shift_rows * int(lds.strides[self.m]))
            self._bases[key] = bases
        return bases

    def for_rank(self, lds: "RankLDS") -> "RankKernels":
        return RankKernels(self, lds)


class _TileCtx(NamedTuple):
    """Per-(rank, tile) marshalled arguments, built once per tile."""

    shift: int
    oob_addr: Any
    fix_addr: Any
    pure_addr: Any
    keep: List[np.ndarray]              # pins the pointed-to arrays


class RankKernels:
    """One rank's native executor over its LDS buffers.

    ``run_tile`` executes a whole tile (all wavefront levels, one C
    call); ``run_segment`` executes one (sub-)batch — the overlap
    schedule's boundary/interior slices — reusing the tile context.
    """

    def __init__(self, rt: NativeRuntime, lds: "RankLDS"):
        self.rt = rt
        bases = rt.bases_for(lds)
        self.bases = bases
        self.lds = lds                  # keeps the pointed-to buffers alive
        local = lds.local
        for a in rt.arrays:
            buf = local[a]
            assert buf.dtype == np.float64 and buf.flags["C_CONTIGUOUS"]
        self._bufs = (ctypes.c_void_p * len(rt.arrays))(
            *[local[a].ctypes.data for a in rt.arrays])
        n_dep = max(rt.plan.n_dep_slots, 1)
        self._rb = (ctypes.c_void_p * n_dep)()
        for ds in rt.dep_slots:
            self._rb[ds.slot] = bases.rbase[ds.dp_key].ctypes.data
        self._ctx_key: Optional[Tuple[Tuple[int, ...], int]] = None
        self._ctx: Optional[_TileCtx] = None

    # -- per-tile context -------------------------------------------------

    def _tile_ctx(self, tile: Tuple[int, ...], t: int,
                  origin: np.ndarray) -> _TileCtx:
        key = (tuple(int(x) for x in tile), int(t))
        if self._ctx_key == key and self._ctx is not None:
            return self._ctx
        rt = self.rt
        shift = int(t) * self.bases.shift_unit
        keep: List[np.ndarray] = []
        n_dep = max(rt.plan.n_dep_slots, 1)
        n_pure = max(rt.plan.n_pure_slots, 1)
        oob_ptrs = (ctypes.c_void_p * n_dep)()
        fix_ptrs = (ctypes.c_void_p * n_dep)()
        pure_ptrs = (ctypes.c_void_p * n_pure)()

        origin64 = np.asarray(origin, dtype=np.int64)
        masks: Dict[Tuple[int, ...], Optional[np.ndarray]] = {}
        sel_all: Optional[np.ndarray] = None
        for dep_key, dep in rt.distinct_deps:
            thr = rt.bvec - rt.amat @ (origin64 - dep)
            if np.all(rt.a_tis_rowmax <= thr):
                masks[dep_key] = None        # whole tile in-domain
                continue
            in_dom = np.all(rt.a_tis <= thr[:, None], axis=0)
            if sel_all is None:
                sel_all = rt.segments(tile)[0]
            if bool(in_dom[sel_all].all()):
                masks[dep_key] = None        # executed points all in
                continue
            oob = np.ascontiguousarray(
                (~in_dom).astype(np.uint8))
            masks[dep_key] = oob
            keep.append(oob)

        for ds in rt.dep_slots:
            oob = masks[ds.dep_key]
            if oob is None:
                continue
            oob_ptrs[ds.slot] = oob.ctypes.data
            # Same scalar boundary values as fix_out_of_domain, filled
            # only at executed out-of-domain points (the cells come
            # from the vectorized int64 indexer — identical integers
            # to ref.index, without the per-point rational matvec).
            assert sel_all is not None
            fix = np.zeros(rt.nlat, dtype=np.float64)
            ood = sel_all[oob[sel_all].view(np.bool_)]
            arr_name = ds.ref.array
            init_value = rt.init_value
            cells = ds.indexer.cells(rt.tis[ood] + origin64)
            for i, cell in zip(ood.tolist(), cells.tolist()):
                fix[i] = init_value(arr_name, tuple(cell))
            fix_ptrs[ds.slot] = fix.ctypes.data
            keep.append(fix)

        if rt.pure_slots:
            # Gather only at executed points: a partial tile's clipped
            # lattice points can map outside the input-table box.
            if sel_all is None:
                sel_all = rt.segments(tile)[0]
            gsel = rt.tis[sel_all] + origin64
            group_vals: Dict[int, np.ndarray] = {}
            for ps in rt.pure_slots:
                vals = group_vals.get(ps.group)
                if vals is None:
                    vals = np.zeros(rt.nlat, dtype=np.float64)
                    vals[sel_all] = ps.table.gather(
                        ps.indexer.cells(gsel))
                    group_vals[ps.group] = vals
                    keep.append(vals)
                pure_ptrs[ps.slot] = vals.ctypes.data

        ctx = _TileCtx(shift=shift,
                       oob_addr=oob_ptrs,
                       fix_addr=fix_ptrs,
                       pure_addr=pure_ptrs,
                       keep=keep)
        self._ctx_key = key
        self._ctx = ctx
        return ctx

    # -- execution --------------------------------------------------------

    def _call(self, ctx: _TileCtx, sel: np.ndarray,
              seg: np.ndarray) -> None:
        self.rt.fn(
            len(seg) - 1,
            seg.ctypes.data,
            sel.ctypes.data,
            ctx.shift,
            ctypes.addressof(self._bufs),
            self.bases.wbase.ctypes.data,
            ctypes.addressof(self._rb),
            ctypes.addressof(ctx.pure_addr),
            ctypes.addressof(ctx.oob_addr),
            ctypes.addressof(ctx.fix_addr),
        )

    def run_tile(self, tile: Tuple[int, ...], t: int,
                 origin: np.ndarray) -> None:
        """All wavefront levels of one tile in one native call."""
        sel, seg = self.rt.segments(tile)
        if not len(sel):
            return
        self._call(self._tile_ctx(tile, t, origin), sel, seg)

    def run_segment(self, tile: Tuple[int, ...], t: int,
                    origin: np.ndarray, batch: np.ndarray) -> None:
        """One wavefront (sub-)batch — the overlap engine's unit."""
        if not len(batch):
            return
        ctx = self._tile_ctx(tile, t, origin)
        sel = np.ascontiguousarray(batch, dtype=np.int64)
        seg = np.array([0, len(sel)], dtype=np.int64)
        self._call(ctx, sel, seg)
