"""Cost certifier: COST03 is the simulator's clock, COST01 exact
against the simulator and the parallel runtime on the six reference
configs, wiring surfaces, and the lower-bound verdict."""

import dataclasses

import pytest

from repro.analysis import analyze_program
from repro.analysis.cost import certify_cost
from repro.apps import adi, heat, jacobi, sor
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import DeadlockError

# The six reference configs of the parallel-engine suite.
COST_CONFIGS = [
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

# Cluster models spanning the protocol space the simulator executes:
# pure eager, overlapped sends, rendezvous for large messages, and
# the rendezvous/overlap combination (overlap suppresses handshakes).
SPECS = [
    pytest.param(ClusterSpec(), id="eager"),
    pytest.param(dataclasses.replace(ClusterSpec(), overlap=True),
                 id="eager-overlap"),
    pytest.param(dataclasses.replace(ClusterSpec(),
                                     rendezvous_threshold=64),
                 id="rdv64"),
    pytest.param(dataclasses.replace(ClusterSpec(),
                                     rendezvous_threshold=64,
                                     overlap=True),
                 id="rdv64-overlap"),
]


def _prog(app, h, mdim):
    return TiledProgram(app.nest, h, mapping_dim=mdim)


class TestSimulatorExactness:
    """COST01: closed form == simulated, per edge; COST03: the
    simulator's own makespan and clocks."""

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("app,h,mdim", COST_CONFIGS)
    def test_channels_and_makespan_match_simulator(self, app, h, mdim,
                                                   spec):
        prog = _prog(app, h, mdim)
        # protocol='spec' is exactly the simulator's dispatch rule.
        cert = prog.cost_certificate(protocol="spec", spec=spec)
        assert cert.ok, [d.message for d in cert.diagnostics]
        stats = DistributedRun(prog, spec).simulate()
        assert cert.channel_messages() == stats.channel_messages
        assert cert.channel_elements() == stats.channel_elements
        assert cert.total_messages == stats.total_messages
        assert cert.total_elements == stats.total_elements
        assert cert.makespan == stats.makespan
        assert list(cert.rank_clocks) == \
            [stats.clocks[r] for r in sorted(stats.clocks)]

    @pytest.mark.parametrize("threshold", [None, 64],
                             ids=["eager", "rdv64"])
    @pytest.mark.parametrize("app,h,mdim", COST_CONFIGS)
    def test_heterogeneous_ranks_stay_bitwise(self, app, h, mdim,
                                              threshold):
        spec = dataclasses.replace(
            ClusterSpec(), node_speed_factors=(1.0, 3.0, 1.0, 2.0),
            rendezvous_threshold=threshold)
        prog = _prog(app, h, mdim)
        cert = prog.cost_certificate(protocol="spec", spec=spec)
        stats = DistributedRun(prog, spec).simulate()
        assert cert.makespan == stats.makespan
        assert list(cert.rank_clocks) == \
            [stats.clocks[r] for r in sorted(stats.clocks)]

    @pytest.mark.parametrize("app,h,mdim", COST_CONFIGS)
    def test_protocol_reaches_the_simulator(self, app, h, mdim):
        # protocol="rendezvous" on the default spec is the simulator
        # under a spec that sends every message by rendezvous.
        prog = _prog(app, h, mdim)
        spec = ClusterSpec()
        cert = prog.cost_certificate(protocol="rendezvous", spec=spec)
        forced = dataclasses.replace(spec, rendezvous_threshold=0)
        try:
            stats = DistributedRun(prog, forced).simulate()
        except DeadlockError as exc:
            assert cert.makespan == float("inf")
            assert cert.rank_clocks == ()
            stuck = [d.subject_dict()["stuck_ranks"]
                     for d in cert.diagnostics if d.code == "COST03"]
            assert stuck == [exc.ranks]
            return
        assert cert.ok, [d.message for d in cert.diagnostics]
        assert cert.makespan == stats.makespan
        assert list(cert.rank_clocks) == \
            [stats.clocks[r] for r in sorted(stats.clocks)]

    def test_forced_rendezvous_deadlock_is_cost03(self):
        # The rect SOR pipeline deadlocks under forced rendezvous in
        # the simulator: COST03, no makespan and no clocks.
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=0)
        cert = certify_cost(prog, spec=spec, protocol="spec")
        assert not cert.ok
        assert cert.makespan == float("inf")
        assert cert.rank_clocks == ()
        assert "COST03" in {d.code for d in cert.diagnostics}
        with pytest.raises(DeadlockError):
            DistributedRun(prog, spec).simulate()


class TestParallelRuntimeExactness:
    """The measured runtime moves exactly the certified volumes."""

    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["blocking", "overlap"])
    def test_parallel_channels_match_certificate(self, overlap):
        app = sor.app(4, 6)
        prog = _prog(app, sor.h_nonrectangular(2, 3, 4), 2)
        spec = ClusterSpec()
        cert = prog.cost_certificate(protocol="spec", spec=spec)
        _, stats = DistributedRun(prog, spec).execute_parallel(
            app.init_value, workers=2, overlap=overlap)
        assert cert.channel_messages() == stats.channel_messages
        assert cert.channel_elements() == stats.channel_elements

    def test_parallel_channels_match_jacobi(self):
        app = jacobi.app(3, 5, 5)
        prog = _prog(app, jacobi.h_rectangular(2, 3, 3), 0)
        spec = ClusterSpec()
        cert = prog.cost_certificate(protocol="spec", spec=spec)
        _, stats = DistributedRun(prog, spec).execute_parallel(
            app.init_value, workers=2)
        assert cert.channel_messages() == stats.channel_messages
        assert cert.channel_elements() == stats.channel_elements


class TestRankVolumesAndBound:
    @pytest.mark.parametrize("app,h,mdim", COST_CONFIGS)
    def test_rank_points_cover_the_nest(self, app, h, mdim):
        prog = _prog(app, h, mdim)
        cert = prog.cost_certificate()
        assert sum(r.points for r in cert.ranks) == prog.total_points()
        assert cert.imbalance >= 1.0

    @pytest.mark.parametrize("app,h,mdim", COST_CONFIGS)
    def test_lower_bound_floors_the_actual_comm(self, app, h, mdim):
        cert = _prog(app, h, mdim).cost_certificate()
        if cert.bound.applicable:
            assert cert.bound.bound_elements <= \
                cert.bound.actual_elements * (1 + 1e-12)

    def test_elongated_shape_warns_cost04(self):
        # A needle tile (16x1x2 on SOR) concentrates the surface on
        # its thin dimensions — 2.25x the balanced-shape lower bound.
        prog = _prog(sor.app(8, 36), sor.h_rectangular(16, 1, 2), 2)
        cert = certify_cost(prog)
        warns = [d for d in cert.diagnostics if d.code == "COST04"]
        assert warns and warns[0].severity == "warning"
        assert "dimension" in warns[0].message
        assert warns[0].suggestion        # names the rescaling move


class TestWiring:
    def test_certificate_is_cached(self):
        prog = _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2)
        assert prog.cost_certificate() is prog.cost_certificate()
        spec = dataclasses.replace(ClusterSpec(), overlap=True)
        assert prog.cost_certificate(spec=spec) is not \
            prog.cost_certificate()

    def test_analyze_program_cost_pass(self):
        prog = _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2)
        report = analyze_program(prog, cost=True)
        assert report.ok
        assert "cost" in report.passes_run
        meta = report.meta["cost"]
        assert meta["ok"] and meta["edges"]
        assert meta["totals"]["elements"] > 0
        assert meta["makespan"] > 0

    def test_cost_certificate_covers_spec_protocol(self):
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=0)
        assert prog.cost_certificate(spec=spec).ok
        cert = prog.cost_certificate(protocol="spec", spec=spec)
        # eager certifies clean; the spec protocol deadlocks (COST03).
        assert "COST03" in {d.code for d in cert.diagnostics}

    def test_unknown_mutation_rejected(self):
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        with pytest.raises(ValueError, match="unknown mutation"):
            certify_cost(prog, mutation="nonsense")
