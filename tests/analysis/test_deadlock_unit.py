"""Unit tests of the one static replay on hand-written rank programs.

These mirror the runtime scenarios of ``tests/runtime/test_rendezvous``
and the vMPI deadlock tests — but statically: each op list becomes a
blocking-schedule graph through :class:`GraphBuilder`, with every ring
as deep as its channel's message count (the simulator's unlimited
buffering).  The replay must reach the same verdict the engine reaches
by running, and every case here is also run through the engine to
prove it (``check`` below).
"""

from repro.analysis.hb.graph import (
    RECV,
    SEND,
    SENDWAIT,
    GraphBuilder,
    channel_diagnostics,
    replay,
)
from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import DeadlockError, Recv, Send, VirtualMPI


def send(dest, tag, nelems=-1):
    return (SEND, dest, tag, nelems)


def recv(source, tag, nelems=-1):
    return (RECV, source, tag, nelems)


def build(ops, synchronous):
    """The blocking-schedule graph of per-rank op lists; a synchronous
    send waits for its consumption (one ``SENDWAIT`` after it)."""
    peers = [peer for seq in ops.values() for _, peer, _, _ in seq]
    b = GraphBuilder(1 + max([*ops, *peers]))
    depth = {}
    for rank, seq in sorted(ops.items()):
        for kind, peer, tag, nelems in seq:
            b.emit(rank, kind, (), -1, peer, tag, nelems)
            if kind == SEND:
                chan = (rank, peer, tag)
                depth[chan] = depth.get(chan, 0) + 1
                if synchronous:
                    b.emit(rank, SENDWAIT, (), -1, peer, tag, nelems)
    return b.finish("rendezvous" if synchronous else "eager", False, 0,
                    depth)


def _vmpi_deadlocks(ops, synchronous):
    """The dynamic witness: the same op lists as timing-only vMPI rank
    programs (threshold 0 makes every send synchronous)."""
    def program(seq):
        def gen(_api):
            for kind, peer, tag, nelems in seq:
                if kind == RECV:
                    yield Recv(source=peer, tag=tag)
                else:
                    yield Send(dest=peer, tag=tag, nelems=max(nelems, 1))
        return gen

    spec = ClusterSpec(rendezvous_threshold=0 if synchronous else None)
    try:
        VirtualMPI(spec, {r: program(seq)
                          for r, seq in ops.items()}).run()
    except DeadlockError:
        return True
    return False


def check(ops, synchronous=True):
    """Channel findings and replay verdict, plus their witness: the
    engine raises ``DeadlockError`` exactly when the replay stalls."""
    g = build(ops, synchronous)
    res = replay(g)
    assert (not res.completed) == _vmpi_deadlocks(ops, synchronous)
    return channel_diagnostics(g), res


def codes(diags):
    return sorted(d.code for d in diags)


def errors(diags):
    return [d for d in diags if d.severity == "error"]


class TestChannelMultisets:
    def test_matched_pair_clean(self):
        diags, res = check({0: [send(1, 0, 4)], 1: [recv(0, 0, 4)]})
        assert diags == [] and res.completed

    def test_unmatched_recv_is_dl01(self):
        diags, res = check({0: [], 1: [recv(0, 0)]})
        assert codes(errors(diags)) == ["DL01"]
        assert diags[0].subject_dict()["rank"] == 1
        assert diags[0].subject_dict()["source"] == 0
        assert not res.completed and res.cycle == ()

    def test_wrong_tag_is_unmatched_both_ways(self):
        diags, _ = check({0: [send(1, 7, 1)], 1: [recv(0, 0)]},
                         synchronous=False)
        assert "DL01" in codes(diags)      # the recv never matches
        assert "DL02" in codes(diags)      # the send is never consumed
        assert codes(errors(diags)) == ["DL01"]

    def test_extra_send_is_dl02_warning_under_eager(self):
        diags, res = check({0: [send(1, 0, 1), send(1, 0, 1)],
                            1: [recv(0, 0)]}, synchronous=False)
        assert codes(diags) == ["DL02"]
        assert not errors(diags)
        assert res.completed

    def test_extra_send_blocks_under_rendezvous(self):
        # Runtime twin: TestDeadlockDetection.test_unmatched_rendezvous_send
        diags, res = check({0: [send(1, 0, 100)], 1: []},
                           synchronous=True)
        assert codes(diags) == ["DL02"]
        assert not res.completed and res.cycle == ()
        assert list(res.blocked) == [0]

    def test_fifo_size_mismatch_is_dl04(self):
        diags, _ = check({0: [send(1, 0, 8)], 1: [recv(0, 0, 6)]})
        assert codes(diags) == ["DL04"]

    def test_unknown_sizes_skip_dl04(self):
        diags, _ = check({0: [send(1, 0)], 1: [recv(0, 0, 6)]})
        assert diags == []


class TestCyclicWaits:
    def test_crossed_recv_recv_cycle(self):
        # 0 waits for 1's message, 1 waits for 0's: both send *after*.
        _, res = check({0: [recv(1, 0), send(1, 0, 1)],
                        1: [recv(0, 0), send(0, 0, 1)]}, synchronous=False)
        assert set(res.cycle) == {0, 1}

    def test_crossed_sync_send_send_cycle(self):
        # Classic head-to-head sends: fine eagerly, deadlock rendezvous.
        ops = {0: [send(1, 0, 1), recv(1, 0)],
               1: [send(0, 0, 1), recv(0, 0)]}
        assert check(ops, synchronous=False)[1].completed
        assert set(check(ops, synchronous=True)[1].cycle) == {0, 1}

    def test_three_rank_ring_completes_eagerly(self):
        ops = {
            0: [send(1, 0, 1), recv(2, 0)],
            1: [send(2, 0, 1), recv(0, 0)],
            2: [send(0, 0, 1), recv(1, 0)],
        }
        assert check(ops, synchronous=False)[1].completed
        # ... but the same ring of rendezvous sends is a cycle.
        assert set(check(ops, synchronous=True)[1].cycle) == {0, 1, 2}

    def test_pipeline_clean_under_both_protocols(self):
        ops = {
            0: [send(1, 0, 2)],
            1: [recv(0, 0), send(2, 0, 2)],
            2: [recv(1, 0)],
        }
        assert check(ops, synchronous=False)[1].completed
        assert check(ops, synchronous=True)[1].completed

    def test_out_of_order_recvs_same_channel_are_fine(self):
        # FIFO per channel means recv order across *channels* can differ
        # from send order; within one channel it cannot matter.
        ops = {
            0: [send(2, 0, 1)],
            1: [send(2, 0, 1)],
            2: [recv(1, 0), recv(0, 0)],
        }
        assert check(ops, synchronous=False)[1].completed
