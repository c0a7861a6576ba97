"""Tracing from outside: a per-layer self-time profile and stage spans.

Both instruments live in ``bench/`` and see the program only through
its call boundary, so no file under ``src/`` changes:

* :class:`LayerProfiler` installs a ``sys.setprofile`` hook around one
  timed body.  Elapsed time is charged to the package of the innermost
  ``repro`` frame on the stack; numpy, ctypes, ``fractions`` and builtin
  time therefore belongs to the ``repro`` caller above it, and time
  before the first ``repro`` frame to the harness.
* :class:`SpanLog` records named spans (start, end, parent, request)
  around the harness's own calls to public functions, kept in memory
  and dumped when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Layers = packages under ``src/repro``.  Other ``repro`` modules (cli,
#: serve, experiments) count as callers' time, like third-party code.
LAYERS = ("linalg", "polyhedra", "loops", "tiling", "distribution",
          "analysis", "codegen", "artifacts", "native", "runtime",
          "tuning", "schedule", "apps")

_fork_guard_installed = False


class LayerProfiler:
    """Context manager measuring per-layer self time of its body.

    Forked children (the parallel runtime's workers) drop the hook, so
    only the calling process is profiled; what the workers did comes
    from the measured ``RunStats`` instead.
    """

    def __init__(self, package_root: str) -> None:
        self._root = os.path.join(os.path.abspath(package_root), "")
        self.self_ns: Dict[Optional[str], int] = {
            layer: 0 for layer in LAYERS}
        self.self_ns[None] = 0
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.total_ns = 0

    def _layer_of(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._root):
            return None
        head = filename[len(self._root):].split(os.sep, 1)[0]
        return head if head in self.calls else None

    def __enter__(self) -> "LayerProfiler":
        global _fork_guard_installed
        if not _fork_guard_installed:
            os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
            _fork_guard_installed = True

        self_ns, calls = self.self_ns, self.calls
        layer_of, clock = self._layer_of, time.perf_counter_ns
        code_layer: Dict[Any, Optional[str]] = {}
        stack: List[Optional[str]] = []
        cur: Optional[str] = None
        last = clock()
        self._t0 = last

        def hook(frame: Any, event: str, _arg: Any) -> None:
            nonlocal cur, last
            if event == "call":
                code = frame.f_code
                try:
                    layer = code_layer[code]
                except KeyError:
                    layer = code_layer[code] = layer_of(code.co_filename)
                stack.append(cur)
                if layer is not None:
                    calls[layer] += 1
                    if layer != cur:
                        now = clock()
                        self_ns[cur] += now - last
                        last = now
                        cur = layer
            elif event == "return" and stack:
                prev = stack.pop()
                if prev != cur:
                    now = clock()
                    self_ns[cur] += now - last
                    last = now
                    cur = prev

        def finish() -> None:
            now = clock()
            self_ns[cur] += now - last
            self.total_ns = now - self._t0

        self._finish = finish
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)
        self._finish()

    def self_s(self) -> Dict[str, float]:
        return {layer: self.self_ns[layer] / 1e9 for layer in LAYERS}


class SpanLog:
    """In-memory span recorder; ``spans`` is the JSON-ready list."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str,
             request: Optional[str] = None) -> Iterator[None]:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "request": request, "start_ns": time.perf_counter_ns(),
               "end_ns": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def total_s(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans
                   if s["name"] == name and s["end_ns"] is not None) / 1e9
