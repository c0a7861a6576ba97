"""Integration: the computation/communication overlap extension.

The paper lists overlap scheduling (their ref [8]) as future work; we
implement it as a cluster-spec flag.  Overlap must (a) preserve results
exactly, (b) never be slower than blocking sends, and (c) actually help
when transfers are expensive.
"""

from repro import execute
from repro.apps import adi, sor
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram

from tests.conftest import values_close


class TestOverlapCorrectness:
    def test_sor_results_identical(self, sor_small, sor_reference_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        spec = ClusterSpec(overlap=True)
        arrays, _ = execute(prog, sor_small.init_value, spec)
        assert values_close(arrays["A"], sor_reference_small)

    def test_adi_results_identical(self, adi_small, adi_reference_small):
        prog = TiledProgram(adi_small.nest, adi.h_nr3(2, 3, 3),
                            mapping_dim=0)
        spec = ClusterSpec(overlap=True)
        arrays, _ = execute(prog, adi_small.init_value, spec)
        assert values_close(arrays["X"], adi_reference_small["X"])


class TestOverlapTiming:
    def _makespans(self, app, h, m, **kw):
        base = ClusterSpec(**kw)
        prog = TiledProgram(app.nest, h, mapping_dim=m)
        t_block = DistributedRun(prog, base).simulate().makespan
        t_over = DistributedRun(prog, base.with_overlap()).simulate().makespan
        return t_block, t_over

    def test_never_slower(self, sor_small):
        t_block, t_over = self._makespans(
            sor_small, sor.h_nonrectangular(2, 3, 4), 2)
        assert t_over <= t_block + 1e-12

    def test_helps_on_slow_network(self, sor_small):
        t_block, t_over = self._makespans(
            sor_small, sor.h_nonrectangular(2, 3, 4), 2,
            net_bandwidth=1e6)  # 1 MB/s: transfers dominate
        assert t_over < t_block

    def test_message_counts_unchanged(self, sor_small):
        prog = TiledProgram(sor_small.nest, sor.h_nonrectangular(2, 3, 4),
                            mapping_dim=2)
        a = DistributedRun(prog, ClusterSpec()).simulate()
        b = DistributedRun(prog, ClusterSpec(overlap=True)).simulate()
        assert a.total_messages == b.total_messages
        assert a.total_elements == b.total_elements
