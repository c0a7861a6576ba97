"""Unit tests for the rendezvous send protocol."""

import pytest

from repro import execute
from repro.apps import sor
from repro.runtime import (
    ClusterSpec,
    Compute,
    DeadlockError,
    DistributedRun,
    Recv,
    Send,
    TiledProgram,
    VirtualMPI,
)

from tests.conftest import values_close


def run(programs, spec):
    return VirtualMPI(spec, programs).run()


class TestProtocolSelection:
    def test_small_messages_stay_eager(self):
        spec = ClusterSpec(rendezvous_threshold=10_000)

        def sender(api):
            yield Send(dest=1, tag=0, nelems=10)  # 80 bytes: eager
            yield Compute(1.0)

        def receiver(api):
            yield Compute(5.0)
            yield Recv(source=0, tag=0)

        stats = run({0: sender, 1: receiver}, spec)
        # eager: sender never waits for the late receiver
        assert stats.clocks[0] < 2.0

    def test_large_messages_synchronize(self):
        spec = ClusterSpec(rendezvous_threshold=100)

        def sender(api):
            yield Send(dest=1, tag=0, nelems=1000)  # 8000 B: rendezvous
            yield Compute(0.0)

        def receiver(api):
            yield Compute(5.0)
            yield Recv(source=0, tag=0)

        stats = run({0: sender, 1: receiver}, spec)
        # sender blocked until the receive at t=5, then both transfer
        assert stats.clocks[0] >= 5.0
        assert abs(stats.clocks[0] - stats.clocks[1]) < 1e-12

    def test_threshold_boundary_exclusive(self):
        spec = ClusterSpec(rendezvous_threshold=80)

        def sender(api):
            yield Send(dest=1, tag=0, nelems=10)  # exactly 80 B: eager

        def receiver(api):
            yield Compute(3.0)
            yield Recv(source=0, tag=0)

        stats = run({0: sender, 1: receiver}, spec)
        assert stats.clocks[0] < 1.0

    def test_overlap_disables_rendezvous(self):
        spec = ClusterSpec(rendezvous_threshold=0, overlap=True)

        def sender(api):
            yield Send(dest=1, tag=0, nelems=1000)

        def receiver(api):
            yield Compute(5.0)
            yield Recv(source=0, tag=0)

        stats = run({0: sender, 1: receiver}, spec)
        assert stats.clocks[0] < 1.0  # offloaded


class TestFifoAcrossProtocols:
    def test_mixed_sizes_keep_order(self):
        spec = ClusterSpec(rendezvous_threshold=800)
        got = []

        def sender(api):
            yield Send(dest=1, tag=0, nelems=1000, payload="big")   # rdv
            yield Send(dest=1, tag=0, nelems=10, payload="small")   # eager

        def receiver(api):
            p1, _ = yield Recv(source=0, tag=0)
            p2, _ = yield Recv(source=0, tag=0)
            got.extend([p1, p2])

        run({0: sender, 1: receiver}, spec)
        assert got == ["big", "small"]


class TestDeadlockDetection:
    def test_unmatched_rendezvous_send(self):
        spec = ClusterSpec(rendezvous_threshold=0)

        def sender(api):
            yield Send(dest=1, tag=0, nelems=100)

        def receiver(api):
            yield Compute(1.0)  # never posts the receive

        with pytest.raises(DeadlockError, match="rendezvous-send"):
            run({0: sender, 1: receiver}, spec)


class TestEndToEnd:
    def test_sor_correct_under_rendezvous(self, sor_small,
                                          sor_reference_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        spec = ClusterSpec(rendezvous_threshold=0)
        arrays, _ = execute(prog, sor_small.init_value, spec)
        assert values_close(arrays["A"], sor_reference_small)

    def test_rendezvous_never_faster(self, sor_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        eager = DistributedRun(prog, ClusterSpec()).simulate()
        rdv = DistributedRun(
            prog, ClusterSpec(rendezvous_threshold=0)).simulate()
        assert rdv.makespan >= eager.makespan - 1e-12
