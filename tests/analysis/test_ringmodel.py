"""Ring protocol model checker: the faithful model verifies clean and
every known-bad mutation is rejected (HB03)."""

import pytest

from repro.analysis.hb.ringmodel import (
    MUTATIONS,
    RingConfig,
    check_ring_model,
    explore,
    main,
    ring_diagnostics,
)


class TestFaithfulModel:
    def test_faithful_protocol_is_clean(self):
        res = check_ring_model(None)
        assert res.ok, res.violations[:3]
        assert res.configs == 12          # depths 1-3 x msgs 1..depth+2
        assert res.states > 0

    def test_wraparound_is_exercised(self):
        # More messages than slots forces the ring to wrap; a depth-2
        # ring with 4 messages must still verify.
        res = explore(RingConfig(depth=2, nmsgs=4))
        assert res.ok

    def test_ring_diagnostics_empty_and_cached(self):
        assert ring_diagnostics() == []
        assert ring_diagnostics() == []   # cached second call


class TestMutationCorpus:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_is_rejected(self, mutation):
        res = check_ring_model(mutation)
        assert not res.ok, f"mutation {mutation} was not caught"
        assert res.violations

    def test_commit_barrier_flip_names_the_stale_read(self):
        # publish-before-payload is caught at the consumer's first
        # read: the size store (which follows the payload store in
        # this mutation) is not yet published.
        res = check_ring_model("commit_before_payload")
        assert any("not published before consumption" in v
                   for v in res.violations)
        # so is the size-barrier flip
        res = check_ring_model("commit_before_size")
        assert any("not published before consumption" in v
                   for v in res.violations)
        # a half-written slot is caught at the payload read
        res = check_ring_model("premature_commit")
        assert any("half-written payload" in v
                   for v in res.violations)

    def test_no_backpressure_names_slot_reuse(self):
        res = check_ring_model("no_backpressure")
        assert any("slot reused" in v or "size" in v
                   for v in res.violations)

    def test_unknown_mutation_raises(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            check_ring_model("flip_everything")


class TestSelftestEntrypoint:
    def test_selftest_passes(self, capsys):
        assert main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "faithful ring protocol: ok" in out
        for name in MUTATIONS:
            assert f"mutation {name}: rejected" in out

    def test_bad_usage(self, capsys):
        assert main(["--bogus"]) == 2
