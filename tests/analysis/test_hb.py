"""Happens-before certifier: HB01/HB02 verdicts on the reference
configs, the forced-rendezvous SOR deadlock as an explicit HB cycle,
known-bad programs, and the analyze-surface wiring."""

import dataclasses
import hashlib

import pytest

from repro.analysis import analyze_program
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
from tests.analysis.test_known_bad import _DroppedSend

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
    def test_hb02_cycle_iff_simulator_deadlocks(self, app, h, mdim,
                                                threshold):
        # The static replay (bounded rings) names a cycle exactly when
        # the simulator (unbounded buffering) deadlocks.
        prog = _prog(app, h, mdim)
        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=threshold)
        cert = certify_program(prog, protocol="spec", spec=spec)
        try:
            DistributedRun(prog, spec).simulate()
            deadlocked = False
        except DeadlockError:
            deadlocked = True
        assert deadlocked == bool(cert.cycle)

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
        # The dual-protocol policy: the rect SOR tiling completes under
        # eager, so its rendezvous-only cycle is a warning, never an
        # error.
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
        # every report certifies the eager blocking schedule; only
        # hb=True builds the overlapped certificate
        prog = _prog(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2)
        rep = analyze_program(prog, subject="hb opt-in")
        assert rep.passes_run.count("hb") == 1
        assert {k[:2] for k in prog.stage("hb_certificates")} == {
            ("eager", False)}
        rep_hb = analyze_program(prog, subject="hb opt-in", hb=True)
        assert rep_hb.passes_run == rep.passes_run
        assert ("eager", True) in {
            k[:2] for k in prog.stage("hb_certificates")}
        assert rep_hb.ok


# -- pinned event sequences ----------------------------------------------------------
#
# sha256 of every graph's (kind, rank, tile, tix, peer, tag, nelems)
# sequence plus its msg_edges, written at the commit *before* the HB
# graph became a port of ``rankstep.rank_walk``: whoever builds the
# graph, the sanitizer, DL01/02/04, HB01/02, COST03 and TV03 must keep
# seeing exactly these inputs.  ``spec`` runs under a 24-byte threshold
# so every config mixes eager and rendezvous messages.  A moved hash is
# a changed schedule — fix the change or re-pin deliberately and say why.

PIN_SPEC = ClusterSpec(rendezvous_threshold=24)

HB_GRAPH_PINS = {
    ("sor-rect", "eager", False): "edaa65a21abcdf86a89ecd9c426117b4bb9e964717f43729c20783fdb95a419e",
    ("sor-rect", "eager", True): "93f51a779fdc900894e008ae371f315c0db5047c618ef3137f0afcea7b18bfee",
    ("sor-rect", "rendezvous", False): "3c59819e39650149c8d30749c0c06f4cb0df4a23752ceaf86f0971801ae23837",
    ("sor-rect", "rendezvous", True): "350dbe19003bd085bef53ed234a7947fd07600be78efe1a87752ba7ae27904ff",
    ("sor-rect", "spec", False): "659271d2bb4e806d0ef6e69d05cc96bbc04ba2992cec2fb050bba83e191cc193",
    ("sor-rect", "spec", True): "8507a6b9c7c96799de403fea13ecd80ce619e852d2a146f9c71865dfad4e1c15",
    ("sor-nonrect", "eager", False): "e1b8ec813749047d2359be94961a6e8c463abac842abd10f9090bb24e6de1ab7",
    ("sor-nonrect", "eager", True): "4ee24a33de59907110b926662177aecb01decb51875e3d2ef1f43929f2b11817",
    ("sor-nonrect", "rendezvous", False): "0e2d4f48601e04e69fec10e011787128d0f1eee7718d067e1d55bce30f5182b5",
    ("sor-nonrect", "rendezvous", True): "d932d21c4d8e554e683f30cf1e53b4f91ee20749c489219070d6b1a25d2fa8e9",
    ("sor-nonrect", "spec", False): "2b6ea6dbce0eb310311f1ba767ed223cc3d476ff8827caf86759d7c972198a3b",
    ("sor-nonrect", "spec", True): "33b20d51b082aaa16afe4523e13d7af86c89eb2a83c9474f83b15f37f34d5b5e",
    ("sor-partial-tiles", "eager", False): "402c9d17e1cddb4d08328c999a8d3401b3b429da5ba519c0c4e0bc69708f1c53",
    ("sor-partial-tiles", "eager", True): "8cfabf1e8411635a4fd675e2a46d93254294d6025776962801135e81b7829808",
    ("sor-partial-tiles", "rendezvous", False): "45a2043ca00e529cd6e5c8d5dd97d043c01d59e0a0b4352190918ba6b6d3cd3b",
    ("sor-partial-tiles", "rendezvous", True): "c107b39b54d9b72f00d7ef43d7bb7b25ffb663bf9003954e32b3bdfe0664e469",
    ("sor-partial-tiles", "spec", False): "cc27903dc86d39e54aa97e0e874e13feaba709877dc1f2ada997d1230b2c2d2c",
    ("sor-partial-tiles", "spec", True): "c9d5083090f974e08fae9b6bf5d463e864812a90d0602e4a8854837ce9620d28",
    ("jacobi-rect", "eager", False): "c0952a94d338f636a11a6203be57e529fe11eb10281d7b37adf0b3196dd9c658",
    ("jacobi-rect", "eager", True): "5cd438362e803b8199000fb77250e38526251f103ebe16a682352704c68d1c0e",
    ("jacobi-rect", "rendezvous", False): "ee525196d8c73078d234f82ce19157dbe21d4e4522639eb58734388ccf896dca",
    ("jacobi-rect", "rendezvous", True): "72163af50ff28eafee8600b3c7e1824aa65c99356319e27ee630b4b52f7c7bf2",
    ("jacobi-rect", "spec", False): "260816981277ab644e347b55963a1693484d8eb95426adb18ebea0f1281b304b",
    ("jacobi-rect", "spec", True): "90d447a77d5d321f0f77e00b7ef57d03f9076892cec08c334710d9e90146146c",
    ("adi-rect", "eager", False): "8d6bd964742e3996cd1a4ee4a0512d0fb5e95c77334c13375c3127f6eb3ee497",
    ("adi-rect", "eager", True): "0d2ff6349c5d0dc6c91c1186ea8eaedaa1f17e326bc8289d23abcbe56f0756f2",
    ("adi-rect", "rendezvous", False): "a8c79d137de76984fb11a7e89f15450326daa57ec8923d03c04bf651fe845587",
    ("adi-rect", "rendezvous", True): "3628552a5faaedc24eb25b2639d8ef179fa7f2d63864850b2a1f7917838ac335",
    ("adi-rect", "spec", False): "a8c79d137de76984fb11a7e89f15450326daa57ec8923d03c04bf651fe845587",
    ("adi-rect", "spec", True): "3628552a5faaedc24eb25b2639d8ef179fa7f2d63864850b2a1f7917838ac335",
    ("heat-rect", "eager", False): "29c4ef491a745b36c4b918378de660eff465f8e2134108b46eea82b1ae36fb45",
    ("heat-rect", "eager", True): "e5cf1155cb7492ad3c44979dd176e8f1358a551463afca9568364e8995864d06",
    ("heat-rect", "rendezvous", False): "a8b1c350a8d7419f69c07c502168df4496b9afee7e927fec361f197c75f59f01",
    ("heat-rect", "rendezvous", True): "a36240a940fe805b117622fff5b76930068357e006fb2fbb1329bf7a41ef68f3",
    ("heat-rect", "spec", False): "eee2543440ba1a8be4a43ac03d16dc05aeaa813124c2277e2771a1d33acc216e",
    ("heat-rect", "spec", True): "ae9b0b59c184db6c1fb94d46d8dafe4d83d0d4b7f9251d022a853bcd69038cd3",
}


def _graph_digest(g):
    rows = [(e.kind, e.rank, e.tile, e.tix, e.peer, e.tag, e.nelems)
            for e in g.events]
    return hashlib.sha256(repr((rows, g.msg_edges)).encode()).hexdigest()


class TestPinnedEventSequences:
    @pytest.mark.parametrize("app,h,mdim", HB_CONFIGS)
    def test_graph_matches_the_pinned_schedule(self, app, h, mdim,
                                               request):
        name = request.node.callspec.id
        prog = _prog(app, h, mdim)
        got = {
            (name, protocol, overlap): _graph_digest(build_hb_graph(
                prog, protocol, overlap=overlap, spec=PIN_SPEC))
            for protocol in ("eager", "rendezvous", "spec")
            for overlap in (False, True)}
        assert got == {k: v for k, v in HB_GRAPH_PINS.items()
                       if k[0] == name}
