"""Happens-before certifier: HB01/HB02 verdicts on the reference
configs, the forced-rendezvous SOR deadlock as an explicit HB cycle,
known-bad programs, and the analyze-surface wiring."""

import dataclasses

import pytest

from repro.analysis import analyze_program, check_program_deadlock
from repro.analysis.hb import check_hb
from repro.analysis.hb.graph import (
    build_hb_graph,
    certify_program,
    happens_before,
    vector_clocks,
)
from repro.apps import adi, heat, jacobi, sor
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import DeadlockError

# The six reference configs of the parallel-engine suite.
HB_CONFIGS = [
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


def _prog(app, h, mdim):
    return TiledProgram(app.nest, h, mapping_dim=mdim)


class TestReferenceConfigsCertify:
    @pytest.mark.parametrize("app,h,mdim", HB_CONFIGS)
    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["blocking", "overlap"])
    def test_eager_certifies_clean(self, app, h, mdim, overlap):
        cert = certify_program(_prog(app, h, mdim), protocol="eager",
                               overlap=overlap)
        assert cert.ok, [d.message for d in cert.diagnostics]
        assert cert.pairs_checked == cert.pairs_proved > 0
        assert cert.machine.completed

    @pytest.mark.parametrize("app,h,mdim", HB_CONFIGS)
    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["blocking", "overlap"])
    def test_spec_protocol_certifies_clean(self, app, h, mdim, overlap):
        # 'spec' with the default spec (rendezvous_threshold=None)
        # must behave exactly like eager.
        spec = ClusterSpec()
        cert = certify_program(_prog(app, h, mdim), protocol="spec",
                               overlap=overlap, spec=spec)
        assert cert.ok, [d.message for d in cert.diagnostics]

    def test_tight_ring_still_certifies(self):
        # depth-1 mailboxes force maximal backpressure; the drain
        # logic must still complete the overlap schedule.
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        for overlap in (False, True):
            cert = certify_program(prog, protocol="eager",
                                   overlap=overlap, mailbox_depth=1)
            assert cert.ok, (overlap,
                             [d.message for d in cert.diagnostics])


class TestRendezvousDeadlock:
    def test_sor_rect_cycle_matches_simulator(self):
        # The paper's rect SOR tiling deadlocks under forced
        # rendezvous: the certifier must report it as an explicit
        # HB02 cycle, and every rank on the cycle must be among the
        # ranks the simulator reports blocked.
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        cert = certify_program(prog, protocol="rendezvous")
        assert not cert.ok
        codes = {d.code for d in cert.diagnostics}
        assert codes == {"HB02"}
        assert len(cert.cycle) >= 2
        diag = cert.diagnostics[0]
        assert "cyclic wait" in diag.message
        assert diag.subject_dict()["cycle"] == list(cert.cycle) or \
            tuple(diag.subject_dict()["cycle"]) == cert.cycle

        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=0)
        with pytest.raises(DeadlockError) as exc:
            DistributedRun(prog, spec).simulate()
        blocked = str(exc.value)
        for rank in cert.cycle:
            assert f"{rank}:" in blocked

    @pytest.mark.parametrize("app,h,mdim", HB_CONFIGS)
    @pytest.mark.parametrize("threshold", [None, 0],
                             ids=["eager", "rendezvous-threshold-0"])
    def test_dl03_and_hb02_report_one_cycle(self, app, h, mdim,
                                            threshold):
        # One static replay: the deadlock pass (unbounded channels)
        # and the HB02 machine (bounded rings) must name the same
        # ranks, and the simulator must deadlock exactly then.
        prog = _prog(app, h, mdim)
        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=threshold)
        cert = certify_program(prog, protocol="spec", spec=spec)
        dl03 = [d for d in check_program_deadlock(
            prog, synchronous=threshold is not None) if d.code == "DL03"]
        cycle = tuple(dl03[0].subject_dict()["cycle"]) if dl03 else ()
        assert cycle == cert.cycle
        try:
            DistributedRun(prog, spec).simulate()
            deadlocked = False
        except DeadlockError:
            deadlocked = True
        assert deadlocked == bool(cycle)

    def test_spec_protocol_with_forced_threshold_deadlocks(self):
        # protocol='spec' + threshold 0 is the same hazard.
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=0)
        cert = certify_program(prog, protocol="spec", spec=spec)
        assert not cert.ok
        assert {d.code for d in cert.diagnostics} == {"HB02"}

    def test_rendezvous_safe_schedule_certifies(self):
        # Jacobi is rendezvous-safe (single tag per step); the
        # certifier must agree with the simulator here too.
        prog = _prog(jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3),
                     0)
        cert = certify_program(prog, protocol="rendezvous")
        assert cert.ok


class _DroppedSend(TiledProgram):
    """Miscompiled program: tile (0,0,0) forgets its last send."""

    def send_plan(self, tile):
        plan = super().send_plan(tile)
        if tile == (0, 0, 0):
            return plan[:-1]
        return plan


class TestKnownBadPrograms:
    @pytest.fixture(scope="class")
    def broken(self, sor_small):
        return _DroppedSend(sor_small.nest,
                            sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)

    def test_dropped_send_jams_the_machine(self, broken):
        cert = certify_program(broken, protocol="eager")
        assert not cert.ok
        assert "HB02" in {d.code for d in cert.diagnostics}
        assert len(cert.graph.unmatched_recvs) == 1
        assert not cert.machine.completed

    def test_dropped_send_is_a_race_in_overlap_mode(self, broken):
        # In overlap mode the producing event is the send itself, so
        # the missing message is also an HB01 unprovable pair.
        cert = certify_program(broken, protocol="eager", overlap=True)
        codes = {d.code for d in cert.diagnostics}
        assert "HB01" in codes and "HB02" in codes


class TestVectorClocks:
    def test_po_and_message_edges_are_ordered(self):
        g = build_hb_graph(
            _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2),
            protocol="eager")
        clocks, processed = vector_clocks(g)
        assert processed.all()
        # program order
        for order in g.rank_order:
            for a, b in zip(order, order[1:]):
                assert happens_before(g, clocks, processed, a, b)
                assert not happens_before(g, clocks, processed, b, a)
        # message edges
        assert g.msg_edges
        for s, r in g.msg_edges:
            assert happens_before(g, clocks, processed, s, r)


class TestCheckHbDriver:
    def test_clean_config_no_diagnostics(self):
        prog = _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2)
        assert check_hb(prog) == []

    def test_rendezvous_only_hazard_demoted_to_warning(self):
        # Mirrors the DL03 dual-protocol policy: the rect SOR tiling
        # completes under eager, so its rendezvous-only cycle is a
        # warning, never an error.
        prog = _prog(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2)
        diags = check_hb(prog)
        assert diags
        assert all(d.severity == "warning" for d in diags)
        assert {d.code for d in diags} == {"HB02"}
        assert "rendezvous" in diags[0].message

    def test_certificate_is_cached_on_the_program(self):
        prog = _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2)
        c1 = prog.hb_certificate(protocol="eager")
        c2 = prog.hb_certificate(protocol="eager")
        assert c1 is c2
        c3 = prog.hb_certificate(protocol="eager", overlap=True)
        assert c3 is not c1

    def test_analyze_program_hb_pass_is_opt_in(self):
        prog = _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2)
        rep = analyze_program(prog, subject="hb opt-in")
        assert "hb" not in rep.passes_run
        rep_hb = analyze_program(prog, subject="hb opt-in", hb=True)
        assert "hb" in rep_hb.passes_run
        assert rep_hb.ok
