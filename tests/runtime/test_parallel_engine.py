"""Correctness and failure modes of the real multiprocess backend.

The dense engine is the reference: every parallel run here must be
**bitwise** identical (``tol=0.0``) — same batched kernels, same pack
order, so any drift is a transport bug, not float noise.  RunStats
event counts must equal the simulator's.  The failure-mode tests pin
the contract that a broken run *reports* instead of hanging: worker
crashes surface as :class:`ParallelWorkerError` with the remote
traceback, genuine protocol deadlocks as
:class:`ParallelTimeoutError` (mirroring the simulator's
``DeadlockError`` on the same schedule).
"""

import dataclasses
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import adi, heat, jacobi, sor
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    EventTrace,
    ParallelRuntimeError,
    ParallelTimeoutError,
    ParallelWorkerError,
    TiledProgram,
    arrays_match,
    dense_to_cells,
    run_parallel,
)
from repro.runtime.parallel import (
    _COMPUTE,
    _END,
    _RECV,
    _SEND,
    _WAIT,
    EdgeSpec,
    _decode_spans,
    _Edge,
    _partition,
    _RingPort,
    build_edges,
    build_rank_plans,
)
from repro.runtime.vmpi import DeadlockError

SPEC = ClusterSpec()

# (app, tiling, mapping_dim) — the dense-engine matrix, minus the
# heaviest entries (each parallel run spawns real OS processes).
PARALLEL_CONFIGS = [
    pytest.param(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2,
                 id="sor-rect"),
    pytest.param(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2,
                 id="sor-nonrect"),
    pytest.param(sor.app(5, 7), sor.h_rectangular(3, 4, 5), 2,
                 id="sor-partial-tiles"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3), 0,
                 id="jacobi-rect"),
    pytest.param(adi.app(4, 5), adi.h_rectangular(2, 3, 3), 0,
                 id="adi-rect"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(2, 4), 1,
                 id="heat-rect"),
]


def _dense_ref(app, h, mdim):
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    fields, stats = DistributedRun(prog, SPEC).execute_dense(
        app.init_value)
    return prog, dense_to_cells(fields), stats


class TestBitwiseAgainstDense:
    @pytest.mark.parametrize("app,h,mdim", PARALLEL_CONFIGS)
    def test_matches_dense_engine(self, app, h, mdim):
        prog, ref, ref_stats = _dense_ref(app, h, mdim)
        fields, stats = run_parallel(prog, SPEC, app.init_value,
                                     workers=2)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)
        # Event counts must equal the simulator's (the clocks are
        # measured wall time, so only the counting side is comparable).
        assert stats.total_messages == ref_stats.total_messages
        assert stats.total_elements == ref_stats.total_elements

    def test_single_worker_matches(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=1)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_workers_above_processor_count_clamped(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value,
                                 workers=prog.num_processors + 50)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_event_counts_match_simulator(self):
        app, h = jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3)
        prog = TiledProgram(app.nest, h, mapping_dim=0)
        sim_stats = DistributedRun(prog, SPEC).simulate()
        _, stats = run_parallel(prog, SPEC, app.init_value, workers=2)
        assert stats.total_messages == sim_stats.total_messages
        assert stats.total_elements == sim_stats.total_elements

    def test_executor_method_and_trace(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        trace = EventTrace()
        run = DistributedRun(prog, SPEC, trace=trace)
        fields, stats = run.execute_parallel(app.init_value, workers=2)
        _, ref, _ = _dense_ref(app, h, 2)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)
        # One measured send/recv event per message on each side.
        sends = [e for e in trace.events if e.kind == "send"]
        recvs = [e for e in trace.events if e.kind == "recv"]
        assert len(sends) == stats.total_messages
        assert len(recvs) == stats.total_messages
        assert all(e.label == "measured" for e in trace.events)
        assert all(e.end >= e.start >= 0.0 for e in trace.events)

    def test_measured_stats_are_wall_clock(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        _, stats = run_parallel(prog, SPEC, app.init_value, workers=2)
        assert stats.makespan > 0.0
        assert all(c >= 0.0 for c in stats.clocks.values())
        assert stats.makespan == pytest.approx(
            max(stats.clocks.values()))
        for rank in stats.clocks:
            busy = stats.compute_time[rank] + stats.comm_time[rank]
            assert busy <= stats.clocks[rank] * 1.001 + 1e-9


class TestProtocols:
    def test_eager_bitwise(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=2,
                                 protocol="eager")
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_eager_minimal_mailbox_backpressure(self):
        # depth=1 forces maximal backpressure: every edge blocks after
        # one in-flight message; the cooperative scheduler must still
        # drain the schedule, bitwise-identically.
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=2,
                                 protocol="eager", mailbox_depth=1)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_rendezvous_bitwise_on_safe_schedule(self):
        # Jacobi's single-tag-per-step schedule is rendezvous-safe
        # (the simulator agrees); results must still be bitwise.
        app, h = jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3)
        prog, ref, _ = _dense_ref(app, h, 0)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=2,
                                 protocol="rendezvous")
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_rendezvous_deadlock_mirrors_simulator(self):
        # SOR's multi-tag schedule deadlocks under a forced rendezvous
        # protocol.  The simulator proves it statically; the real
        # backend must *report* it (timeout), never hang — naming the
        # stuck mailbox edges and attaching the HB02 cycle hint.
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        spec_rdv = dataclasses.replace(SPEC, rendezvous_threshold=0)
        with pytest.raises(DeadlockError):
            DistributedRun(prog, spec_rdv).simulate()
        with pytest.raises(ParallelTimeoutError) as exc:
            run_parallel(prog, SPEC, app.init_value, workers=2,
                         protocol="rendezvous", timeout=5.0)
        msg = str(exc.value)
        assert "blocked edges" in msg
        assert "tag" in msg and "sent" in msg and "consumed" in msg
        assert "HB certificate reports a wait cycle" in msg
        # The hinted cycle is the statically certified one.
        cert = prog.hb_certificate(protocol="rendezvous")
        assert cert.cycle
        for r in cert.cycle:
            assert str(r) in msg

    def test_verify_refuses_certified_deadlock(self):
        # verify=True must catch the same hazard *before* forking any
        # worker: VerificationError with the HB02 diagnostic, no 5s
        # timeout paid.
        from repro.analysis.verifier import VerificationError
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        with pytest.raises(VerificationError) as exc:
            run_parallel(prog, SPEC, app.init_value, workers=2,
                         protocol="rendezvous", timeout=5.0,
                         verify=True)
        assert "HB02" in [d.code for d in exc.value.report.diagnostics]

    def test_verify_passes_clean_schedule(self):
        # On a certified-clean configuration verify=True must be
        # transparent: same bitwise results as the plain run.
        app, h = sor.app(4, 6), sor.h_nonrectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=2,
                                 protocol="eager", verify=True)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_invalid_arguments(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        with pytest.raises(ValueError):
            run_parallel(prog, SPEC, app.init_value, protocol="tcp")
        with pytest.raises(ValueError):
            run_parallel(prog, SPEC, app.init_value, mailbox_depth=0)


def _shm_segments():
    return ({n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            if os.path.isdir("/dev/shm") else set())


@pytest.mark.parametrize("overlap", [False, True],
                         ids=["blocking", "overlap"])
class TestFailureModes:
    """Fault drills over both schedules of the one walk.  The blocking
    crash lands after a tile's compute; the overlapped one while the
    tile's ring slots are reserved but not yet committed.  Each must
    end in a named :class:`ParallelWorkerError`, every worker reaped
    and no shared-memory segment left behind."""

    def _drill(self, overlap, **kwargs):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        before = _shm_segments()
        with pytest.raises(ParallelWorkerError) as exc_info:
            run_parallel(prog, SPEC, app.init_value, workers=2,
                         timeout=60.0, overlap=overlap, **kwargs)
        assert not multiprocessing.active_children()
        leaked = _shm_segments() - before
        assert not leaked, f"leaked segments: {leaked}"
        return str(exc_info.value)

    def test_worker_crash_surfaces_cleanly(self, overlap):
        # A crash in any rank must produce ParallelWorkerError with
        # the remote traceback — promptly (no hang).
        message = self._drill(overlap, _crash_rank=1)
        assert "injected crash in rank 1" in message

    def test_crash_leaves_no_shared_memory(self, overlap):
        self._drill(overlap, _crash_rank=0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the kill hook reaches the workers by fork inheritance")
    def test_sigkill_mid_chain(self, overlap, monkeypatch):
        # A real SIGKILL (no traceback, no clean-up in the victim) at
        # the second tile of rank 1: its first tile's messages are out,
        # its peers are waiting on the rest.
        def kill_at_second_tile(port):
            port.hits = getattr(port, "hits", 0) + port.crash
            if port.hits == 2:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(_RingPort, "crash_point", kill_at_second_tile)
        message = self._drill(overlap, _crash_rank=1,
                              start_method="fork")
        assert f"exit code {-signal.SIGKILL}" in message


class TestMailboxRing:
    def _edge(self, depth, capacity):
        spec = EdgeSpec(meta_off=0, data_off=0, depth=depth,
                        capacity=capacity)
        meta = np.zeros(2 + depth, dtype=np.int64)
        data = np.zeros(depth * capacity, dtype=np.float64)
        return _Edge(spec, meta, data)

    @staticmethod
    def _send(edge, values):
        """The producer path: reserve, fill the slot, commit."""
        view = edge.reserve(len(values))
        assert view is not None
        view[:] = values
        edge.commit(len(values))

    @staticmethod
    def _take(edge):
        """The consumer path: copy out of the slot, then release it."""
        got = edge.peek().tolist()
        edge.release()
        return got

    def test_fifo_and_wraparound(self):
        edge = self._edge(depth=2, capacity=3)
        for round_no in range(5):  # wraps the ring twice
            self._send(edge, [float(round_no)])
            assert edge.can_pop()
            assert self._take(edge) == [float(round_no)]
        assert not edge.can_pop()

    def test_backpressure_when_full(self):
        edge = self._edge(depth=2, capacity=1)
        self._send(edge, [1.0])
        self._send(edge, [2.0])
        assert edge.reserve(1) is None  # ring full: sender must wait
        assert self._take(edge) == [1.0]
        assert edge.reserve(1) is not None

    def test_rendezvous_drained_tracking(self):
        # what a rendezvous send waits for: its message (the latest on
        # the edge, and with it every earlier one) has been released
        edge = self._edge(depth=4, capacity=1)
        assert edge.drained()
        self._send(edge, [6.0])
        self._send(edge, [7.0])
        assert not edge.drained()
        self._take(edge)
        assert not edge.drained()
        self._take(edge)
        assert edge.drained()

    def test_variable_message_sizes(self):
        edge = self._edge(depth=2, capacity=4)
        self._send(edge, [1.0, 2.0, 3.0])
        self._send(edge, [4.0])
        assert self._take(edge) == [1.0, 2.0, 3.0]
        assert self._take(edge) == [4.0]

    def test_reserve_commit_zero_copy(self):
        # The one producer protocol: reserve a slot view, fill it
        # incrementally (one gather per array), publish with commit.
        # The consumer must not see the message before commit.
        edge = self._edge(depth=2, capacity=3)
        view = edge.reserve(3)
        assert view is not None and len(view) == 3
        assert np.shares_memory(view, edge.slots)
        view[0] = 1.0
        assert not edge.can_pop()       # invisible until commit
        view[1:] = [2.0, 3.0]
        edge.commit(3)
        assert edge.can_pop()
        assert self._take(edge) == [1.0, 2.0, 3.0]

    def test_reserve_full_ring_returns_none(self):
        edge = self._edge(depth=1, capacity=2)
        self._send(edge, [1.0, 2.0])
        assert edge.reserve(1) is None  # never blocks, never raises
        self._take(edge)
        assert edge.reserve(1) is not None

    def test_reserve_oversized_rejected(self):
        edge = self._edge(depth=1, capacity=2)
        with pytest.raises(ParallelRuntimeError):
            edge.reserve(3)

    def test_reserve_commit_wraparound(self):
        # Drive head past several multiples of depth; slot reuse must
        # stay FIFO-correct.
        edge = self._edge(depth=2, capacity=2)
        for i in range(7):
            self._send(edge, [float(i), float(-i)])
            assert self._take(edge) == [float(i), float(-i)]
        assert not edge.can_pop()

    def test_capacity_boundary_sequence(self):
        # Fill to exactly depth (capacity boundary), drain one, refill
        # one.
        edge = self._edge(depth=3, capacity=1)
        for v in (1.0, 2.0, 3.0):
            self._send(edge, [v])
        assert edge.reserve(1) is None
        assert self._take(edge) == [1.0]
        self._send(edge, [4.0])
        assert edge.reserve(1) is None
        assert [self._take(edge) for _ in range(3)] == [
            [2.0], [3.0], [4.0]]

    def test_peek_is_a_view_until_release(self):
        edge = self._edge(depth=2, capacity=2)
        self._send(edge, [5.0, 6.0])
        got = edge.peek()
        assert np.shares_memory(got, edge.slots)
        assert got.tolist() == [5.0, 6.0]
        assert edge.can_pop()           # peek does not retire it
        edge.release()
        assert not edge.can_pop()


def _segment(*ranks):
    """A spans segment holding each rank's rows, plus one unwritten row
    per block (a rank writes at most as many rows as its plan sizes)."""
    blocks = np.cumsum([0] + [len(rows) + 1 for rows in ranks])
    spans = np.zeros((blocks[-1], 6), dtype=np.int64)
    for r, rows in enumerate(ranks):
        spans[blocks[r]:blocks[r] + len(rows)] = rows
    return spans, blocks


class TestSpanDecoder:
    """``_decode_spans`` on hand-built segments: rank 0 sends one
    5-element message to rank 1 on tag 3 and waits for its rendezvous
    completion; times in ns."""

    BLOCKING = (
        [(_COMPUTE, 0, 10, -1, -1, 0), (_SEND, 10, 14, 1, 3, 5),
         (_WAIT, 14, 20, 1, 3, 5), (_END, 20, 20, -1, -1, 0)],
        [(_RECV, 2, 16, 0, 3, 5), (_COMPUTE, 16, 30, -1, -1, 0),
         (_END, 30, 30, -1, -1, 0)],
    )
    # one tile each: the tile span is recorded when the tile closes,
    # after the receives and sends taken inside it
    OVERLAP = (
        [(_SEND, 5, 8, 1, 3, 5), (_COMPUTE, 0, 20, -1, -1, 0),
         (_WAIT, 20, 25, 1, 3, 5), (_END, 25, 25, -1, -1, 0)],
        [(_RECV, 3, 9, 0, 3, 5), (_COMPUTE, 1, 30, -1, -1, 0),
         (_END, 30, 30, -1, -1, 0)],
    )

    @staticmethod
    def _ns(values):
        return {r: pytest.approx(v * 1e-9) for r, v in values.items()}

    def test_blocking_attribution(self):
        trace = EventTrace()
        stats = _decode_spans(*_segment(*self.BLOCKING), False, trace)
        assert stats.compute_time == self._ns({0: 10, 1: 14})
        assert stats.comm_time == self._ns({0: 4 + 6, 1: 14})
        assert stats.clocks == self._ns({0: 20, 1: 30})
        assert stats.makespan == pytest.approx(30e-9)
        assert (stats.total_messages, stats.total_elements) == (1, 5)
        assert stats.channel_messages == {(0, 1, 3): 1}
        assert stats.channel_elements == {(0, 1, 3): 5}
        # the wait is comm, but no trace event; record order per rank
        assert [(e.rank, e.kind, e.peer, e.tag, e.nelems)
                for e in trace.events] == [
            (0, "compute", None, None, 0), (0, "send", 1, 3, 5),
            (1, "recv", 0, 3, 5), (1, "compute", None, None, 0)]
        assert trace.events[1].start == pytest.approx(10e-9)
        assert all(e.label == "measured" for e in trace.events)

    def test_overlap_attribution(self):
        trace = EventTrace()
        stats = _decode_spans(*_segment(*self.OVERLAP), True, trace)
        # the tile span minus the receives and sends inside it
        assert stats.compute_time == self._ns({0: 20 - 3, 1: 29 - 6})
        assert stats.comm_time == self._ns({0: 3 + 5, 1: 6})
        assert stats.clocks == self._ns({0: 25, 1: 30})
        assert [e.kind for e in trace.events] == [
            "send", "compute", "recv", "compute"]

    def test_missing_receive_names_its_channel(self):
        sender, receiver = self.BLOCKING
        with pytest.raises(ParallelRuntimeError,
                           match=r"\(src, dst, tag\) = \(0, 1, 3\): "
                                 r"1 sent, 0 received"):
            _decode_spans(*_segment(sender, receiver[1:]), False)


class TestPartition:
    def test_round_robin(self):
        assert _partition(5, 2) == [(0, 2, 4), (1, 3)]

    def test_nranks_below_nworkers_leaves_empty_workers(self):
        # More workers than ranks: the surplus workers get empty
        # tuples (they start, find nothing to run, and exit cleanly).
        assert _partition(2, 4) == [(0,), (1,), (), ()]

    def test_single_worker_gets_everything(self):
        assert _partition(4, 1) == [(0, 1, 2, 3)]

    def test_single_rank(self):
        assert _partition(1, 3) == [(0,), (), ()]

    def test_empty(self):
        assert _partition(0, 2) == [(), ()]


class TestCompiledPlans:
    def test_plans_cover_simulator_counts(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        sim = DistributedRun(prog, SPEC).simulate()
        plans = build_rank_plans(prog)
        sends = sum(len(ss) for p in plans.values() for ss in p.sends)
        recvs = sum(len(rr) for p in plans.values() for rr in p.recvs)
        elems = sum(s.nelems for p in plans.values()
                    for ss in p.sends for s in ss)
        assert sends == sim.total_messages
        assert recvs == sim.total_messages
        assert elems == sim.total_elements

    def test_edges_sized_for_largest_message(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        plans = build_rank_plans(prog)
        edges = build_edges(plans, depth=8)
        for plan in plans.values():
            for ss in plan.sends:
                for s in ss:
                    spec = edges[(plan.rank, s.dst_rank, s.tag)]
                    assert spec.capacity >= s.nelems
                    assert 1 <= spec.depth <= 8


class TestRandomTilings:
    @settings(max_examples=6, deadline=None)
    @given(tx=st.integers(2, 4), ty=st.integers(2, 5),
           tz=st.integers(2, 6))
    def test_parallel_bitwise_equals_dense(self, tx, ty, tz):
        """Hypothesis: across random tile shapes the parallel backend
        is bitwise-identical to the dense engine."""
        app = sor.app(4, 6)
        h = sor.h_rectangular(tx, ty, tz)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        ref_fields, ref_stats = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        fields, stats = run_parallel(prog, SPEC, app.init_value,
                                     workers=2)
        assert arrays_match(dense_to_cells(fields),
                            dense_to_cells(ref_fields), tol=0.0)
        assert stats.total_messages == ref_stats.total_messages
        assert stats.total_elements == ref_stats.total_elements

    @settings(max_examples=6, deadline=None)
    @given(tx=st.integers(2, 4), ty=st.integers(2, 5),
           tz=st.integers(2, 6))
    def test_overlap_bitwise_equals_dense(self, tx, ty, tz):
        """Hypothesis: the overlapped schedule stays bitwise-identical
        across random tile shapes (partial tiles, varying wavefront
        depths, varying boundary/interior splits)."""
        app = sor.app(4, 6)
        h = sor.h_rectangular(tx, ty, tz)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        ref_fields, ref_stats = DistributedRun(prog, SPEC).execute_dense(
            app.init_value)
        fields, stats = run_parallel(prog, SPEC, app.init_value,
                                     workers=2, overlap=True)
        assert arrays_match(dense_to_cells(fields),
                            dense_to_cells(ref_fields), tol=0.0)
        assert stats.total_messages == ref_stats.total_messages
        assert stats.total_elements == ref_stats.total_elements


class TestOverlap:
    """The overlapped schedule: bitwise identity is the hard bar."""

    @pytest.mark.parametrize("app,h,mdim", PARALLEL_CONFIGS)
    def test_overlap_matches_dense_engine(self, app, h, mdim):
        prog, ref, ref_stats = _dense_ref(app, h, mdim)
        fields, stats = run_parallel(prog, SPEC, app.init_value,
                                     workers=2, overlap=True)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)
        assert stats.total_messages == ref_stats.total_messages
        assert stats.total_elements == ref_stats.total_elements

    @pytest.mark.parametrize("app,h,mdim", PARALLEL_CONFIGS)
    def test_overlap_matches_blocking_parallel(self, app, h, mdim):
        """Overlap vs blocking on the same backend: identical fields,
        identical message/element counts."""
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        bf, bstats = run_parallel(prog, SPEC, app.init_value,
                                  workers=2, overlap=False)
        of, ostats = run_parallel(prog, SPEC, app.init_value,
                                  workers=2, overlap=True)
        assert arrays_match(dense_to_cells(of), dense_to_cells(bf),
                            tol=0.0)
        assert ostats.total_messages == bstats.total_messages
        assert ostats.total_elements == bstats.total_elements

    def test_overlap_eager_minimal_mailbox(self):
        # depth=1 fills the ring whenever the previous message is
        # unconsumed, exercising publish's wait for a slot and the
        # drain-while-blocked path.
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=2,
                                 protocol="eager", mailbox_depth=1,
                                 overlap=True)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_overlap_rendezvous_safe_schedule(self):
        app, h = jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3)
        prog, ref, _ = _dense_ref(app, h, 0)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=2,
                                 protocol="rendezvous", overlap=True)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_overlap_single_worker(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog, ref, _ = _dense_ref(app, h, 2)
        fields, _ = run_parallel(prog, SPEC, app.init_value, workers=1,
                                 overlap=True)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)

    def test_overlap_trace_and_clocks(self):
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        trace = EventTrace()
        run = DistributedRun(prog, SPEC, trace=trace)
        fields, stats = run.execute_parallel(app.init_value, workers=2,
                                             overlap=True)
        _, ref, _ = _dense_ref(app, h, 2)
        assert arrays_match(dense_to_cells(fields), ref, tol=0.0)
        sends = [e for e in trace.events if e.kind == "send"]
        recvs = [e for e in trace.events if e.kind == "recv"]
        assert len(sends) == stats.total_messages
        assert len(recvs) == stats.total_messages
        assert all(e.end >= e.start >= 0.0 for e in trace.events)
        for rank in stats.clocks:
            busy = stats.compute_time[rank] + stats.comm_time[rank]
            assert busy <= stats.clocks[rank] * 1.001 + 1e-9

    def test_overlap_plan_structure(self):
        """The frozen phase table: windows of the overlap key walk the
        tile's levels once, each with the number of points it holds,
        and place every receive and publish of the rank plan."""
        from repro.runtime.dense import overlap_key, overlap_plan
        from repro.runtime.rankstep import region_mask

        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        lat = prog.tiling.ttis.lattice_points_np()
        s = np.asarray(prog.stage("dense_s"))
        for plan in build_rank_plans(prog).values():
            for t, tile in enumerate(plan.tiles):
                oplan = overlap_plan(prog, plan, t)
                sends = [s.direction for s in plan.sends[t]]
                recvs = plan.recvs[t]
                sel, keys = overlap_key(prog, tile, sends)
                level = lat @ s
                # boundary keys are even: the points of some send region
                inregion = np.zeros(len(lat), dtype=bool)
                for d, commit in zip(sends, oplan.commit_level):
                    region = region_mask(prog, tile, d)
                    inregion |= region
                    assert commit == level[region].max()
                assert np.array_equal(keys % 2 == 0, inregion[sel])
                assert np.array_equal(keys >> 1, level[sel])
                phases = oplan.phases
                assert all(isinstance(v, int) for ph in phases
                           for v in (ph.klo, ph.khi, ph.points))
                assert [ph.klo for ph in phases] == [
                    2 * level[sel].min()] + [ph.khi for ph in phases[:-1]]
                assert phases[-1].khi == 2 * level[sel].max() + 2
                assert [ph.points for ph in phases] == [
                    int(((keys >= ph.klo) & (keys < ph.khi)).sum())
                    for ph in phases]
                assert sorted(i for ph in phases for i in ph.recvs) == \
                    list(range(len(recvs)))
                assert [k for ph in phases for k in ph.sends] == \
                    list(range(len(sends)))
                for ph in phases:
                    for i in ph.recvs:
                        assert ph.klo == 2 * oplan.recv_level[i]
                    for k in ph.sends:
                        assert ph.khi >= 2 * oplan.commit_level[k] + 1
                # cut only where something has to happen in between
                for ph, nxt in zip(phases, phases[1:]):
                    assert ph.sends or nxt.recvs

    def test_overlap_analysis_pass_clean(self):
        from repro.analysis import analyze_program, check_overlap
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        assert check_overlap(prog) == []
        report = analyze_program(prog, overlap=True)
        assert "overlap" in report.passes_run
        assert not [d for d in report.diagnostics
                    if d.pass_name == "overlap"]

    @staticmethod
    def _mutated(mutate):
        """``check_overlap`` codes after ``mutate(plan)`` replaced one
        stored plan — one with receives, sends and > 1 phase."""
        from repro.analysis import check_overlap
        from repro.runtime.dense import prewarm_overlap_plans
        app, h = sor.app(4, 6), sor.h_rectangular(2, 3, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        prewarm_overlap_plans(prog)
        assert check_overlap(prog) == []
        plans = prog.stage("overlap_plans")
        key, plan = next(
            (k, p) for k, p in plans.items()
            if p.recv_level and p.commit_level and len(p.phases) > 1)
        plans[key] = mutate(plan)
        return {d.code for d in check_overlap(prog)}

    def test_overlap_analysis_pass_detects_corruption(self):
        # claim an earlier commit level
        assert "OV02" in self._mutated(lambda plan: dataclasses.replace(
            plan, commit_level=tuple(
                lv - 1 for lv in plan.commit_level)))

    def test_overlap_wrong_phase_points_is_ov03(self):
        def miscount(plan):
            first, *rest = plan.phases
            return dataclasses.replace(plan, phases=(
                first._replace(points=first.points + 1), *rest))
        assert self._mutated(miscount) == {"OV03"}

    def test_overlap_deferred_receive_is_ov03(self):
        assert self._mutated(lambda plan: dataclasses.replace(
            plan, recv_level=tuple(
                lv + 1 for lv in plan.recv_level))) == {"OV03"}

    def test_overlap_publish_before_its_boundary_is_ov02(self):
        def early(plan):
            # publish everything before the first segment has run
            first, *rest = plan.phases
            sends = tuple(k for ph in plan.phases for k in ph.sends)
            head = first._replace(khi=first.klo, sends=sends, points=0)
            body = first._replace(recvs=(), sends=())
            return dataclasses.replace(plan, phases=(
                head, body, *(ph._replace(sends=()) for ph in rest)))
        assert self._mutated(early) == {"OV02"}

    def test_overlap_receive_after_first_reader_is_ov03(self):
        def late(plan):
            # take every receive one phase after its place
            recvs = [ph.recvs for ph in plan.phases]
            assert recvs[0] and not recvs[-1]
            return dataclasses.replace(plan, phases=tuple(
                ph._replace(recvs=r)
                for ph, r in zip(plan.phases, [()] + recvs[:-1])))
        assert self._mutated(late) == {"OV03"}
