"""The long-running compile server behind ``repro serve``.

A single asyncio process owns an :class:`~repro.artifacts.ArtifactCache`
and an in-memory registry of already-loaded programs.  Each client
connection is a stream of framed JSON requests (see
:mod:`repro.serve.protocol`); compile work runs on a thread-pool
executor so the event loop keeps multiplexing other clients while a
cold compile is in flight.

Requests for the same content key are *single-flighted*: concurrent
clients asking for an uncached program share one compile instead of
racing N identical pipelines; whoever loses the race still gets a
"memory" hit.  Hit/miss accounting distinguishes the three sources:

* ``memory`` — the program object is already resident in this server;
* ``disk``   — reconstructed from an artifact (pipeline skipped);
* ``compile``— cold compile (then stored, so it is a hit next time).

Verification (``verify=True`` → the static verifier ``verify_program``:
legality, races, eager deadlock, halo bounds) runs at artifact-creation
time only — a deliberate property of the design: a content-addressed
hit ships the already-proved program.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.apps import resolve_config
from repro.artifacts import ArtifactCache, content_key
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.serve.protocol import read_frame, write_frame


def resolve_request(params: Dict[str, Any]):
    """Turn a wire request into ``(nest, h, mapping_dim)``.

    Resolves through :func:`repro.apps.resolve_config`, the registry
    behind the CLI's ``--app/--sizes/--tile/--shape``, so the server
    accepts exactly the configurations the command line does and a bad
    request raises ``ValueError`` with the same message.
    """
    app_name = params.get("app")
    sizes = params.get("sizes")
    tile = params.get("tile")
    shape = params.get("shape", "rect")
    if not isinstance(app_name, str) or not isinstance(sizes, list) \
            or not isinstance(tile, list):
        raise ValueError("compile needs string 'app' and list "
                         "'sizes'/'tile' fields")
    app, h = resolve_config(app_name, [int(x) for x in sizes], shape,
                            [int(x) for x in tile])
    mapping_dim = params.get("mapping_dim", app.mapping_dim)
    if mapping_dim is not None:
        mapping_dim = int(mapping_dim)
    return app, h, mapping_dim


def _program_info(prog: TiledProgram, key: str, source: str
                  ) -> Dict[str, Any]:
    ttis = prog.tiling.ttis
    return {
        "status": "ok",
        "key": key,
        "source": source,
        "nest": prog.nest.name,
        "mapping_dim": prog.dist.m,
        "tiles": len(prog.dist.tiles),
        "processors": prog.num_processors,
        "v": list(ttis.v),
        "strides": list(ttis.c),
        "cc": list(prog.comm.cc),
    }


class CompileServer:
    """Asyncio TCP server multiplexing compile/simulate requests."""

    def __init__(self, cache_dir: str, host: str = "127.0.0.1",
                 port: int = 0, verify: bool = False):
        self.cache = ArtifactCache(cache_dir)
        self.host = host
        self.port = port
        self.verify = verify
        self._registry: Dict[str, TiledProgram] = {}
        self._locks: Dict[str, asyncio.Lock] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._done = asyncio.Event()
        self.counters = {
            "requests": 0,
            "errors": 0,
            "hits_memory": 0,
            "hits_disk": 0,
            "compiles": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._done.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    def request_shutdown(self) -> None:
        self._done.set()

    # -- program acquisition --------------------------------------------------

    async def _get_program(self, params: Dict[str, Any]
                           ) -> Tuple[TiledProgram, str, str]:
        app, h, mapping_dim = resolve_request(params)
        key = content_key(app.nest, h, mapping_dim)
        prog = self._registry.get(key)
        if prog is not None:
            self.counters["hits_memory"] += 1
            return prog, key, "memory"
        lock = self._locks.setdefault(key, asyncio.Lock())
        async with lock:
            # Single-flight: a concurrent request may have populated the
            # registry while we waited on the lock.
            prog = self._registry.get(key)
            if prog is not None:
                self.counters["hits_memory"] += 1
                return prog, key, "memory"
            loop = asyncio.get_running_loop()
            prog, status = await loop.run_in_executor(
                None, lambda: self.cache.get_or_compile(
                    app.nest, h, mapping_dim, verify=self.verify))
            self._registry[key] = prog
            if status == "hit":
                self.counters["hits_disk"] += 1
                return prog, key, "disk"
            self.counters["compiles"] += 1
            return prog, key, "compile"

    # -- request dispatch -----------------------------------------------------

    async def _dispatch(self, req: Dict[str, Any]) -> Dict[str, Any]:
        op = req.get("op")
        if op == "ping":
            return {"status": "ok", "pong": True}
        if op == "stats":
            return {"status": "ok",
                    "server": dict(self.counters),
                    "cache": self.cache.stats()}
        if op == "compile":
            prog, key, source = await self._get_program(req)
            return _program_info(prog, key, source)
        if op == "simulate":
            prog, key, source = await self._get_program(req)
            spec = ClusterSpec(**req.get("spec", {}))
            loop = asyncio.get_running_loop()
            stats = await loop.run_in_executor(
                None, lambda: DistributedRun(prog, spec).simulate())
            info = _program_info(prog, key, source)
            info["run"] = {
                "makespan": stats.makespan,
                "total_messages": stats.total_messages,
                "total_elements": stats.total_elements,
                "compute_time": list(stats.compute_time),
                "comm_time": list(stats.comm_time),
            }
            return info
        if op == "shutdown":
            self.request_shutdown()
            return {"status": "ok", "stopping": True}
        return {"status": "error", "error": f"unknown op {op!r}"}

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                req = await read_frame(reader)
                if req is None:
                    break
                self.counters["requests"] += 1
                try:
                    resp = await self._dispatch(req)
                except (ValueError, KeyError, TypeError) as exc:
                    resp = {"status": "error", "error": str(exc)}
                if resp.get("status") != "ok":
                    self.counters["errors"] += 1
                await write_frame(writer, resp)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection still open; the
            # client sees EOF, nothing to salvage here.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def run_server(cache_dir: str, host: str = "127.0.0.1",
                     port: int = 0, verify: bool = False,
                     ready: Optional[asyncio.Event] = None,
                     announce=print) -> None:
    """Start a :class:`CompileServer` and block until shutdown."""
    server = CompileServer(cache_dir, host, port, verify=verify)
    bound_host, bound_port = await server.start()
    announce(f"repro serve: listening on {bound_host}:{bound_port} "
             f"(cache: {server.cache.root})")
    if ready is not None:
        ready.set()
    await server.serve_forever()
    announce(f"repro serve: stopped; "
             f"server={server.counters} cache={server.cache.stats()}")
