"""Unit tests of the abstract channel machine on hand-written rank programs.

These mirror the runtime scenarios of ``tests/runtime/test_rendezvous``
and the vMPI deadlock tests — but statically: the checker must reach
the same verdict the engine reaches by running, and every case here is
also run through the engine to prove it (``check_deadlock`` below).
"""

from repro import analysis
from repro.analysis import RecvOp, SendOp
from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import DeadlockError, Recv, Send, VirtualMPI


def _vmpi_deadlocks(ops, synchronous):
    """The dynamic witness: the same op lists as timing-only vMPI rank
    programs (threshold 0 makes every send synchronous)."""
    def program(seq):
        def gen(_api):
            for op in seq:
                if isinstance(op, (RecvOp, Recv)):
                    yield Recv(source=op.source, tag=op.tag)
                else:
                    yield Send(dest=op.dest, tag=op.tag,
                               nelems=op.nelems or 1)
        return gen

    spec = ClusterSpec(rendezvous_threshold=0 if synchronous else None)
    try:
        VirtualMPI(spec, {r: program(seq)
                          for r, seq in ops.items()}).run()
    except DeadlockError:
        return True
    return False


def check_deadlock(ops, synchronous=True):
    """``analysis.check_deadlock`` plus its witness: the engine raises
    ``DeadlockError`` exactly when the checker reports DL03/DL01."""
    diags = analysis.check_deadlock(ops, synchronous=synchronous)
    assert any(d.code in ("DL01", "DL03") for d in diags) == \
        _vmpi_deadlocks(ops, synchronous)
    return diags


def codes(diags):
    return sorted(d.code for d in diags)


def errors(diags):
    return [d for d in diags if d.severity == "error"]


class TestChannelMultisets:
    def test_matched_pair_clean(self):
        ops = {0: [SendOp(dest=1, tag=0, nelems=4)],
               1: [RecvOp(source=0, tag=0, nelems=4)]}
        assert check_deadlock(ops) == []

    def test_unmatched_recv_is_dl01(self):
        ops = {0: [], 1: [RecvOp(source=0, tag=0)]}
        diags = check_deadlock(ops)
        assert codes(errors(diags)) == ["DL01"]
        assert diags[0].subject_dict()["rank"] == 1
        assert diags[0].subject_dict()["source"] == 0

    def test_wrong_tag_is_unmatched_both_ways(self):
        ops = {0: [SendOp(dest=1, tag=7, nelems=1)],
               1: [RecvOp(source=0, tag=0)]}
        diags = check_deadlock(ops, synchronous=False)
        assert "DL01" in codes(diags)      # the recv never matches
        assert "DL02" in codes(diags)      # the send is never consumed
        assert codes(errors(diags)) == ["DL01"]

    def test_extra_send_is_dl02_warning_under_eager(self):
        ops = {0: [SendOp(dest=1, tag=0, nelems=1),
                   SendOp(dest=1, tag=0, nelems=1)],
               1: [RecvOp(source=0, tag=0)]}
        diags = check_deadlock(ops, synchronous=False)
        assert codes(diags) == ["DL02"]
        assert not errors(diags)

    def test_extra_send_blocks_under_rendezvous(self):
        # Runtime twin: TestDeadlockDetection.test_unmatched_rendezvous_send
        ops = {0: [SendOp(dest=1, tag=0, nelems=100)],
               1: []}
        diags = check_deadlock(ops, synchronous=True)
        assert "DL01" in codes(errors(diags)) or \
            "DL03" in codes(errors(diags))

    def test_fifo_size_mismatch_is_dl04(self):
        ops = {0: [SendOp(dest=1, tag=0, nelems=8)],
               1: [RecvOp(source=0, tag=0, nelems=6)]}
        diags = check_deadlock(ops)
        assert codes(diags) == ["DL04"]

    def test_unknown_sizes_skip_dl04(self):
        ops = {0: [SendOp(dest=1, tag=0)],
               1: [RecvOp(source=0, tag=0, nelems=6)]}
        assert check_deadlock(ops) == []


class TestCyclicWaits:
    def test_crossed_recv_recv_cycle(self):
        # 0 waits for 1's message, 1 waits for 0's: both send *after*.
        ops = {0: [RecvOp(source=1, tag=0), SendOp(dest=1, tag=0, nelems=1)],
               1: [RecvOp(source=0, tag=0), SendOp(dest=0, tag=0, nelems=1)]}
        diags = check_deadlock(ops, synchronous=False)
        assert "DL03" in codes(errors(diags))
        cycle = [d for d in diags if d.code == "DL03"][0]
        assert set(cycle.subject_dict()["cycle"]) == {0, 1}

    def test_crossed_sync_send_send_cycle(self):
        # Classic head-to-head sends: fine eagerly, deadlock rendezvous.
        ops = {0: [SendOp(dest=1, tag=0, nelems=1),
                   RecvOp(source=1, tag=0)],
               1: [SendOp(dest=0, tag=0, nelems=1),
                   RecvOp(source=0, tag=0)]}
        assert check_deadlock(ops, synchronous=False) == []
        diags = check_deadlock(ops, synchronous=True)
        assert "DL03" in codes(errors(diags))

    def test_three_rank_ring_completes_eagerly(self):
        ops = {
            0: [SendOp(dest=1, tag=0, nelems=1), RecvOp(source=2, tag=0)],
            1: [SendOp(dest=2, tag=0, nelems=1), RecvOp(source=0, tag=0)],
            2: [SendOp(dest=0, tag=0, nelems=1), RecvOp(source=1, tag=0)],
        }
        assert check_deadlock(ops, synchronous=False) == []
        # ... but the same ring of rendezvous sends is a cycle.
        diags = check_deadlock(ops, synchronous=True)
        assert "DL03" in codes(errors(diags))

    def test_pipeline_clean_under_both_protocols(self):
        ops = {
            0: [SendOp(dest=1, tag=0, nelems=2)],
            1: [RecvOp(source=0, tag=0), SendOp(dest=2, tag=0, nelems=2)],
            2: [RecvOp(source=1, tag=0)],
        }
        assert check_deadlock(ops, synchronous=False) == []
        assert check_deadlock(ops, synchronous=True) == []

    def test_out_of_order_recvs_same_channel_are_fine(self):
        # FIFO per channel means recv order across *channels* can differ
        # from send order; within one channel it cannot matter.
        ops = {
            0: [SendOp(dest=2, tag=0, nelems=1)],
            1: [SendOp(dest=2, tag=0, nelems=1)],
            2: [RecvOp(source=1, tag=0), RecvOp(source=0, tag=0)],
        }
        assert check_deadlock(ops, synchronous=False) == []


class TestVmpiOpAcceptance:
    def test_raw_vmpi_ops_accepted(self):
        ops = {0: [Send(dest=1, tag=0, nelems=3)],
               1: [Recv(source=0, tag=0)]}
        assert check_deadlock(ops) == []

    def test_raw_vmpi_unmatched_recv(self):
        ops = {0: [], 1: [Recv(source=0, tag=5)]}
        assert codes(errors(check_deadlock(ops))) == ["DL01"]

    def test_unknown_op_type_rejected(self):
        import pytest
        with pytest.raises(TypeError, match="unknown op"):
            check_deadlock({0: ["not an op"]})
