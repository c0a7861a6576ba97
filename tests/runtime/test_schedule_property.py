"""Property slice: both schedules stay inside their certificates on
drawn tilings (ROADMAP item 1; PR 14 pinned these on the six reference
configs only).

For every draw of :mod:`tests.runtime.tilings` and both the blocking and
the overlapped schedule of :func:`repro.runtime.rankstep.rank_walk`:

* the bounded static replay completes **iff** the real run does — a
  predicted wait cycle is a :class:`ParallelTimeoutError`, a predicted
  completion a bitwise (tol=0.0) result with the simulator's counts,
  on the numpy **and** the native kernels, the overlapped fields equal
  to the blocking ones array by array;
* the measured trace is accepted by the sanitizer (HB04), i.e. the
  workers took the steps the graph port wrote down;
* the cost certificate's COST03 clocks are the simulator's, rank by
  rank.

A fixed (derandomized) handful of draws plus two strided-HNF tilings
(``c_k > 1``: nearly every tile partial, many levels a mask empties):
each one forks real workers, and the whole slice must stay under 30 s
in tier-1.  Under the ``nightly`` Hypothesis profile (registered in
``tests/conftest.py``) both tests draw ten times as many examples,
seeded by ``--hypothesis-seed`` instead of derandomized.

The random stencils of the compiler-side property suites
(:func:`tests.runtime.tilings.random_cases`) go through the same ring
walk on the numpy kernels — inputs beyond the paper apps for the one
message path, at both a roomy and a one-slot mailbox.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.hb.graph import build_hb_graph, replay
from repro.analysis.hb.sanitize import sanitize_trace
from repro.artifacts import ArtifactCache
from repro.linalg import RatMat
from repro.native.engine import build_native_library
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    EventTrace,
    ParallelTimeoutError,
    TiledProgram,
    arrays_match,
    dense_to_cells,
    run_parallel,
)
from tests.runtime.tilings import (
    DRAWN,
    drawn_program,
    random_cases,
    stencil_init,
    stencil_nest,
)

SPEC = ClusterSpec()


def _draws(n):
    """``n`` derandomized draws; ``10 * n`` seeded ones at night."""
    nightly = settings.get_current_profile_name() == "nightly"
    return settings(max_examples=10 * n if nightly else n, deadline=None,
                    derandomize=not nightly)


@_draws(6)
@given(**DRAWN, protocol=st.sampled_from(["eager", "rendezvous"]))
@example(which="jacobi", x=2, y=4, z=3, protocol="eager")   # c = (1, 2, 1)
@example(which="adi", x=2, y=3, z=3, protocol="eager")      # c = (1, 1, 3)
def test_both_schedules_stay_inside_their_certificates(
        tmp_path_factory, which, x, y, z, protocol):
    app, prog = drawn_program(which, x, y, z)
    run = DistributedRun(prog, SPEC)
    sim = run.simulate()
    cert = prog.cost_certificate(protocol="spec", spec=SPEC)
    assert list(cert.rank_clocks) == [sim.clocks[r]
                                      for r in sorted(sim.clocks)]
    ref, _ = run.execute_dense(app.init_value)
    lib = build_native_library(prog, cache=ArtifactCache(
        str(tmp_path_factory.mktemp("native"))))
    kernels = (None, lib) if lib.available else (None,)
    blocking = {}
    for overlap in (False, True):
        verdict = replay(build_hb_graph(prog, protocol, overlap=overlap,
                                        spec=SPEC), bounded=True)
        kwargs = dict(workers=2, protocol=protocol, overlap=overlap)
        if not verdict.completed:
            assert verdict.cycle, (overlap, verdict.blocked)
            with pytest.raises(ParallelTimeoutError):
                run_parallel(prog, SPEC, app.init_value, timeout=1.5,
                             **kwargs)
            continue
        for native in kernels:
            trace = EventTrace()
            fields, stats = run_parallel(
                prog, SPEC, app.init_value, timeout=60.0, trace=trace,
                native=native, **kwargs)
            assert arrays_match(dense_to_cells(fields),
                                dense_to_cells(ref), tol=0.0)
            for name, was in blocking.setdefault(
                    native is None, fields).items():
                assert np.array_equal(fields[name].values, was.values)
                assert np.array_equal(fields[name].written, was.written)
            assert (stats.total_messages, stats.total_elements) == (
                sim.total_messages, sim.total_elements)
            assert stats.channel_messages == sim.channel_messages
            assert stats.channel_elements == sim.channel_elements
            assert sanitize_trace(prog, trace, protocol=protocol,
                                  overlap=overlap, spec=SPEC) == []


def test_a_rank_blocked_on_a_receive_drains_its_deferred_halos():
    """A counterexample the draws above found: on the overlapped
    schedule under rendezvous, rank 3 of this SOR tiling blocks on its
    first receive while rank 0 waits for it to take a later halo of the
    same tile.  The ring port drains deferred halos while blocked on a
    receive too, so the run completes whether or not that halo arrived
    before the tile opened, and the replay models the same drain (the
    blocking schedule, which has no deferred halos, keeps its cycle)."""
    app, prog = drawn_program("sor", 3, 5, 2)
    for overlap in (False, True):
        verdict = replay(build_hb_graph(prog, "rendezvous", overlap=overlap,
                                        spec=SPEC), bounded=True)
        assert verdict.completed == overlap, verdict.cycle
    ref, _ = DistributedRun(prog, SPEC).execute_dense(app.init_value)
    for _ in range(3):
        fields, _stats = run_parallel(prog, SPEC, app.init_value, workers=2,
                                      protocol="rendezvous", overlap=True,
                                      timeout=60.0)
        assert arrays_match(dense_to_cells(fields), dense_to_cells(ref),
                            tol=0.0)


@_draws(12)
@given(case=random_cases(), mapping_dim=st.sampled_from([0, 1]),
       depth=st.sampled_from([1, 8]))
# two ranks and no edge at all: the first counterexample these draws
# found (run_parallel sized an empty per-edge stats segment at 1 byte)
@example(case=([(1, 0)], RatMat([[2, 0], [0, 2]]).inverse(), (0, 0),
               (3, 3), (0.0625,)), mapping_dim=0, depth=1)
def test_random_stencils_on_the_ring_walk(case, mapping_dim, depth):
    deps, h, lo, hi, coeffs = case
    prog = TiledProgram(stencil_nest(deps, lo, hi, coeffs), h,
                        mapping_dim=mapping_dim)
    run = DistributedRun(prog, SPEC)
    sim = run.simulate()
    ref, _ = run.execute_dense(stencil_init)
    for overlap in (False, True):
        verdict = replay(build_hb_graph(
            prog, "eager", overlap=overlap, mailbox_depth=depth,
            spec=SPEC), bounded=True)
        assert verdict.completed, (overlap, verdict.blocked)
        trace = EventTrace()
        fields, stats = run_parallel(
            prog, SPEC, stencil_init, workers=2, protocol="eager",
            mailbox_depth=depth, overlap=overlap, timeout=60.0,
            trace=trace)
        assert arrays_match(dense_to_cells(fields), dense_to_cells(ref),
                            tol=0.0)
        assert (stats.total_messages, stats.total_elements) == (
            sim.total_messages, sim.total_elements)
        assert stats.channel_messages == sim.channel_messages
        assert stats.channel_elements == sim.channel_elements
        assert sanitize_trace(prog, trace, protocol="eager",
                              overlap=overlap, spec=SPEC) == []
