"""`repro serve`: concurrency, hit/miss accounting, error handling.

The server runs in a daemon thread with its own event loop; clients are
the real synchronous :class:`ServeClient` over real TCP sockets, so
these tests exercise the full wire path including framing.
"""

import asyncio
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps import resolve_config
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.serve import CompileServer, ServeClient, ServeError
from repro.serve.protocol import MAX_FRAME, recv_frame_sync

REQ = {"app": "sor", "sizes": [4, 6], "tile": [2, 3, 4],
       "shape": "rect"}


class ServerThread:
    """A CompileServer on a background event loop, for blocking tests."""

    def __init__(self, cache_dir):
        self.cache_dir = str(cache_dir)
        self.addr = None
        self.server = None
        #: what reached the event loop's exception handler
        self.unhandled = []
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._started.wait(timeout=30), "server failed to start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: self.unhandled.append(context))
        self.server = CompileServer(self.cache_dir)
        self.addr = await self.server.start()
        self._started.set()
        await self.server.serve_forever()

    def client(self):
        return ServeClient(*self.addr)

    def join(self, timeout=30):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "server did not stop"


@pytest.fixture
def server(tmp_path):
    srv = ServerThread(tmp_path / "cache")
    yield srv
    try:
        with srv.client() as c:
            c.shutdown()
    except (ConnectionError, OSError):
        pass  # a test already shut it down
    srv.join()


class TestBasics:
    def test_ping(self, server):
        with server.client() as c:
            assert c.ping()

    def test_compile_then_memory_hit(self, server):
        with server.client() as c:
            r1 = c.compile(**REQ)
            r2 = c.compile(**REQ)
        assert r1["status"] == r2["status"] == "ok"
        assert r1["source"] == "compile"
        assert r2["source"] == "memory"
        assert r1["key"] == r2["key"]
        assert r1["tiles"] == r2["tiles"] > 0

    def test_simulate_returns_run_stats(self, server):
        req = dict(REQ, shape="nonrect")
        with server.client() as c:
            r = c.simulate(**req)
        app, h = resolve_config("sor", req["sizes"], "nonrect", req["tile"])
        stats = DistributedRun(TiledProgram(app.nest, h, mapping_dim=2),
                               ClusterSpec()).simulate()
        assert r["run"]["makespan"] == stats.makespan > 0
        assert r["run"]["total_messages"] == stats.total_messages > 0
        # seconds per rank, in rank order (not the rank numbers)
        ranks = range(r["processors"])
        assert r["run"]["compute_time"] == [
            stats.compute_time[rank] for rank in ranks]
        assert r["run"]["comm_time"] == [
            stats.comm_time[rank] for rank in ranks]

    def test_bad_requests_are_errors_not_disconnects(self, server):
        with server.client() as c:
            with pytest.raises(ServeError, match="unknown app"):
                c.compile(app="nope", sizes=[4, 6], tile=[2, 3, 4])
            with pytest.raises(ServeError):
                c.request("compile", app="sor")  # missing fields
            with pytest.raises(ServeError, match="unknown op"):
                c.request("frobnicate")
            # The connection survives all three errors.
            assert c.ping()
            stats = c.stats()
        assert stats["server"]["errors"] == 3


class TestConcurrencyAndAccounting:
    def test_two_concurrent_clients_single_compile(self, server):
        """Two clients racing the same cold key: the compile is
        single-flighted — exactly one pipeline run, the loser gets a
        memory hit, and the accounting adds up."""

        def one_client(_):
            with server.client() as c:
                return c.compile(**REQ)["source"]

        with ThreadPoolExecutor(2) as ex:
            sources = sorted(ex.map(one_client, range(2)))
        assert sources == ["compile", "memory"]

        with server.client() as c:
            stats = c.stats()
        assert stats["server"]["compiles"] == 1
        assert stats["server"]["hits_memory"] == 1
        assert stats["cache"]["stores"] == 1
        assert stats["cache"]["misses"] == 1

    def test_disk_hit_after_server_restart(self, tmp_path):
        """A second server over the same cache directory serves the
        program from disk — the pipeline ran once, ever."""
        srv1 = ServerThread(tmp_path / "cache")
        with srv1.client() as c:
            assert c.compile(**REQ)["source"] == "compile"
            c.shutdown()
        srv1.join()

        srv2 = ServerThread(tmp_path / "cache")
        try:
            with srv2.client() as c:
                r = c.compile(**REQ)
                stats = c.stats()
        finally:
            with srv2.client() as c:
                c.shutdown()
            srv2.join()
        assert r["source"] == "disk"
        assert stats["server"]["hits_disk"] == 1
        assert stats["server"]["compiles"] == 0
        assert stats["cache"]["hits"] == 1


def _frame(body):
    return struct.pack(">I", len(body)) + body


class TestMalformedFrames:
    """A frame that is not one JSON object gets an ``error`` response
    and counts as an error; nothing escapes the connection handler, and
    the server goes on serving."""

    @staticmethod
    def _still_serving(server, errors):
        with server.client() as c:
            assert c.ping()
            deadline = time.monotonic() + 30
            while c.stats()["server"]["errors"] < errors:
                assert time.monotonic() < deadline, "error not counted"
                time.sleep(0.02)
            assert c.stats()["server"]["errors"] == errors
        assert server.unhandled == []

    @pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe{}",
                                      b"[1, 2, 3]", b"[" * 100000],
                             ids=["bad-json", "non-utf8", "non-object",
                                  "deep-nesting"])
    def test_bad_body_keeps_the_connection(self, server, body):
        with socket.create_connection(server.addr, timeout=30) as sock:
            sock.sendall(_frame(body) + _frame(b'{"op": "ping"}'))
            assert recv_frame_sync(sock)["status"] == "error"
            assert recv_frame_sync(sock) == {"status": "ok", "pong": True}
        self._still_serving(server, errors=1)

    def test_oversized_prefix_gets_an_error_then_close(self, server):
        with socket.create_connection(server.addr, timeout=30) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME + 1) + b"{}")
            resp = recv_frame_sync(sock)
            assert resp["status"] == "error"
            assert "too large" in resp["error"]
            assert recv_frame_sync(sock) is None      # closed
        self._still_serving(server, errors=1)

    def test_mid_frame_disconnect(self, server):
        with socket.create_connection(server.addr, timeout=30) as sock:
            sock.sendall(struct.pack(">I", 100) + b'{"op": ')
        self._still_serving(server, errors=1)
