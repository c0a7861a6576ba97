"""Unit tests: message aggregation and heterogeneous-node modeling."""

import pytest

from repro.apps import adi, heat, jacobi, sor
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram


@pytest.fixture(scope="module")
def prog():
    app = sor.app(8, 10)
    return TiledProgram(app.nest, sor.h_nonrectangular(2, 4, 5),
                        mapping_dim=2)


class TestUnaggregated:
    def test_more_messages_than_aggregated(self, prog):
        spec = ClusterSpec()
        agg = DistributedRun(prog, spec).simulate()
        raw = DistributedRun(prog, spec).simulate_unaggregated()
        assert raw.total_messages > agg.total_messages

    def test_never_faster(self, prog):
        """The Tang & Xue aggregation is a pure win: same regions, fewer
        latencies."""
        spec = ClusterSpec()
        agg = DistributedRun(prog, spec).simulate()
        raw = DistributedRun(prog, spec).simulate_unaggregated()
        assert raw.makespan >= agg.makespan - 1e-12

    def test_completes_without_deadlock(self, prog):
        stats = DistributedRun(prog, ClusterSpec()).simulate_unaggregated()
        assert stats.makespan > 0

    def test_element_volume_at_least_aggregated(self, prog):
        spec = ClusterSpec()
        agg = DistributedRun(prog, spec).simulate()
        raw = DistributedRun(prog, spec).simulate_unaggregated()
        assert raw.total_elements >= agg.total_elements


# (app, tiling, mapping_dim, messages, elements) of the six reference
# configs.  The counts were recorded from the hand-written ablation walk
# before it became ``simulate()`` over the per-dependence plan of the
# shared builder; the plan must reproduce them exactly.
UNAGGREGATED_COUNTS = [
    pytest.param(sor.app(4, 6), sor.h_rectangular(2, 3, 4), 2,
                 66, 243, id="sor-rect"),
    pytest.param(sor.app(4, 6), sor.h_nonrectangular(2, 3, 4), 2,
                 52, 239, id="sor-nonrect"),
    pytest.param(sor.app(5, 7), sor.h_rectangular(3, 4, 5), 2,
                 35, 225, id="sor-partial-tiles"),
    pytest.param(jacobi.app(3, 5, 5), jacobi.h_rectangular(2, 3, 3), 0,
                 33, 120, id="jacobi-rect"),
    pytest.param(adi.app(4, 5), adi.h_rectangular(2, 3, 3), 0,
                 20, 140, id="adi-rect"),
    pytest.param(heat.app(4, 8), heat.h_rectangular(2, 4), 1,
                 9, 30, id="heat-rect"),
]


@pytest.mark.parametrize("app,h,mdim,messages,elements",
                         UNAGGREGATED_COUNTS)
def test_unaggregated_counts_pinned(app, h, mdim, messages, elements):
    prog = TiledProgram(app.nest, h, mapping_dim=mdim)
    raw = DistributedRun(prog, ClusterSpec()).simulate_unaggregated()
    assert (raw.total_messages, raw.total_elements) == (messages,
                                                        elements)
    assert sum(raw.channel_messages.values()) == messages
    assert sum(raw.channel_elements.values()) == elements


class TestHeterogeneous:
    def test_uniform_factors_noop(self, prog):
        base = DistributedRun(prog, ClusterSpec()).simulate()
        uni = DistributedRun(prog, ClusterSpec(
            node_speed_factors=tuple([1.0] * prog.num_processors)
        )).simulate()
        assert uni.makespan == pytest.approx(base.makespan)

    def test_one_slow_node_stretches_makespan(self, prog):
        base = DistributedRun(prog, ClusterSpec()).simulate()
        factors = [1.0] * prog.num_processors
        factors[prog.num_processors // 2] = 3.0
        slow = DistributedRun(prog, ClusterSpec(
            node_speed_factors=tuple(factors))).simulate()
        assert slow.makespan > base.makespan

    def test_slowdown_bounded_by_factor(self, prog):
        factors = [1.0] * prog.num_processors
        factors[0] = 2.0
        base = DistributedRun(prog, ClusterSpec()).simulate()
        slow = DistributedRun(prog, ClusterSpec(
            node_speed_factors=tuple(factors))).simulate()
        assert slow.makespan <= 2.0 * base.makespan + 1e-9

    def test_factor_default_beyond_tuple(self):
        spec = ClusterSpec(node_speed_factors=(2.0,))
        assert spec.node_speed_factor(0) == 2.0
        assert spec.node_speed_factor(5) == 1.0
