"""Native compiled tile-kernel backend.

Turns each app's symbolic kernel expressions (``Statement.expr``) into
a per-program C translation unit, compiles it to a shared object, and
executes tile wavefront levels through ``ctypes`` instead of per-level
numpy dispatch.  Results are bitwise identical (tol=0.0) to the dense
engine; when anything prevents native execution (no C compiler, a
non-float64 dtype, a tiling whose strides don't divide the box) the
engines fall back to numpy and record why.

Modules (the kernel expression IR and its C renderer live with the
loop-nest IR, in :mod:`repro.loops.kexpr`):

* ``emit``    — per-program C translation unit emitter;
* ``compile`` — compiler discovery, fingerprinting, ``cc`` wrapper and
  the content-addressed ``.so`` cache hook;
* ``engine``  — build pipeline plus the per-rank runtime objects the
  dense and parallel engines call.

The package root deliberately avoids importing ``engine`` eagerly: the
translation validator imports :mod:`repro.native.emit`, and pulling the
full build pipeline (which reaches into ``repro.artifacts`` and thus
the executor) along would be both heavy and a cycle hazard.
``build_native_library`` and friends resolve lazily.
"""

from typing import Any

_ENGINE_EXPORTS = (
    "NativeKernelLibrary", "RankKernels", "build_native_library",
)

__all__ = list(_ENGINE_EXPORTS)


def __getattr__(name: str) -> Any:  # PEP 562 lazy re-export
    if name in _ENGINE_EXPORTS:
        from repro.native import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
