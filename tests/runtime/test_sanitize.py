"""Trace sanitizer (HB04): measured runs conform to the certificate;
doctored traces and mismatched modes are rejected."""

import dataclasses

import pytest

from repro.analysis.hb import sanitize_report, sanitize_trace
from repro.apps import jacobi, sor
from repro.runtime import (
    ClusterSpec,
    EventTrace,
    TiledProgram,
    run_parallel,
)
from repro.runtime.trace import TraceEvent

SPEC = ClusterSpec()


@pytest.fixture(scope="module")
def sor_prog():
    return TiledProgram(sor.app(4, 6).nest,
                        sor.h_nonrectangular(2, 3, 4), mapping_dim=2)


def _measure(prog, overlap):
    trace = EventTrace()
    app = sor.app(4, 6)
    run_parallel(prog, SPEC, app.init_value, workers=2,
                 trace=trace, overlap=overlap)
    return trace


@pytest.fixture(scope="module")
def blocking_trace(sor_prog):
    return _measure(sor_prog, overlap=False)


@pytest.fixture(scope="module")
def overlap_trace(sor_prog):
    return _measure(sor_prog, overlap=True)


class TestMeasuredTracesConform:
    def test_blocking_run_sanitizes_clean(self, sor_prog,
                                          blocking_trace):
        assert blocking_trace.events
        assert sanitize_trace(sor_prog, blocking_trace) == []

    def test_overlap_run_sanitizes_clean(self, sor_prog,
                                         overlap_trace):
        assert sanitize_trace(sor_prog, overlap_trace,
                              overlap=True) == []

    def test_report_wrapper_marks_pass(self, sor_prog,
                                       blocking_trace):
        rep = sanitize_report(sor_prog, blocking_trace,
                              subject="measured sor")
        assert rep.ok
        assert rep.passes_run == ["sanitize"]
        assert rep.meta["events"] == len(blocking_trace.events)

    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["blocking", "overlap"])
    @pytest.mark.parametrize("app,h,mdim", [
        pytest.param(sor.app(8, 12), sor.h_nonrectangular(2, 3, 4), 2,
                     id="sor"),
        pytest.param(jacobi.app(6, 12, 12),
                     jacobi.h_nonrectangular(2, 4, 4), 0, id="jacobi"),
    ])
    def test_measured_traces_are_physically_ordered(self, app, h, mdim,
                                                    overlap):
        """Every rank's spans are on one clock: on every channel the
        k-th receive ends at or after the k-th send started, with no
        tolerance (per-worker clocks broke this by milliseconds)."""
        prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        trace = EventTrace()
        run_parallel(prog, SPEC, app.init_value, workers=2, trace=trace,
                     overlap=overlap)
        sends, recvs = {}, {}
        for ev in trace.events:
            if ev.kind == "send":
                sends.setdefault((ev.rank, ev.peer, ev.tag), []).append(ev)
            elif ev.kind == "recv":
                recvs.setdefault((ev.peer, ev.rank, ev.tag), []).append(ev)
        assert sends and sends.keys() == recvs.keys()
        early = [(chan, k, s.start - r.end)
                 for chan in sorted(sends)
                 for k, (s, r) in enumerate(zip(sends[chan], recvs[chan]))
                 if r.end < s.start]
        assert not early
        assert sanitize_trace(prog, trace, overlap=overlap) == []


def _doctored(trace, mutate):
    """Copy the trace with one mutation applied to the event list."""
    out = EventTrace()
    out.events = mutate(list(trace.events))
    return out


class TestDoctoredTracesRejected:
    def test_mode_mismatch_is_flagged(self, sor_prog, overlap_trace):
        # An overlap trace replayed against the blocking certificate
        # must fail: sends precede the tile compute record.
        diags = sanitize_trace(sor_prog, overlap_trace, overlap=False)
        assert diags
        assert all(d.code == "HB04" for d in diags)

    def test_dropped_event_is_flagged(self, sor_prog, blocking_trace):
        def drop_first_send(events):
            i = next(k for k, e in enumerate(events)
                     if e.kind == "send")
            return events[:i] + events[i + 1:]

        diags = sanitize_trace(
            sor_prog, _doctored(blocking_trace, drop_first_send))
        assert any("event(s)" in d.message or "out of certified"
                   in d.message for d in diags)

    def test_swapped_events_are_flagged(self, sor_prog,
                                        blocking_trace):
        # Swap a rank's compute with its following send: program
        # order violated.
        def swap(events):
            for k, e in enumerate(events[:-1]):
                nxt = events[k + 1]
                if (e.kind == "compute" and nxt.kind == "send"
                        and e.rank == nxt.rank):
                    events[k], events[k + 1] = nxt, e
                    return events
            raise AssertionError("no compute/send pair found")

        diags = sanitize_trace(sor_prog,
                               _doctored(blocking_trace, swap))
        assert any("out of certified order" in d.message
                   for d in diags)

    def test_time_travel_is_flagged(self, sor_prog, blocking_trace):
        # Rewrite one recv to complete long before its send started:
        # publication-before-consumption violated on the wall clock.
        def warp(events):
            for k, e in enumerate(events):
                if e.kind == "recv":
                    events[k] = dataclasses.replace(
                        e, start=-100.0, end=-99.0)
                    return events
            raise AssertionError("no recv found")

        diags = sanitize_trace(sor_prog,
                               _doctored(blocking_trace, warp))
        assert any("before its send started" in d.message
                   for d in diags)

    def test_wrong_payload_size_is_flagged(self, sor_prog,
                                           blocking_trace):
        def grow(events):
            for k, e in enumerate(events):
                if e.kind == "recv":
                    events[k] = dataclasses.replace(
                        e, nelems=e.nelems + 1)
                    return events
            raise AssertionError("no recv found")

        diags = sanitize_trace(sor_prog,
                               _doctored(blocking_trace, grow))
        assert diags

    def test_foreign_rank_is_flagged(self, sor_prog, blocking_trace):
        def alien(events):
            events.append(TraceEvent("compute", 99, 0.0, 1.0))
            return events

        diags = sanitize_trace(sor_prog,
                               _doctored(blocking_trace, alien))
        assert any("rank 99" in d.message for d in diags)
