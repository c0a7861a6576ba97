"""Regression tests pinning the simulator fidelity fixes.

Three bugs, three pins:

1. ``simulate_unaggregated`` must apply the same per-rank
   ``node_speed_factor`` as ``simulate()`` — the aggregation ablation
   may only differ in message structure, never in the CPU cost model.
2. Hot paths must route per-tile point counts through the ``points``
   stage (``TilingTransformation.tile_point_count``), so repeated runs
   never re-reduce partial-tile masks.
3. ``repro.execute``, ``execute_dense`` and the generated ``pygen``
   program must price a heterogeneous cluster exactly like
   ``simulate()``.
"""

import pytest

from repro import execute
from repro.apps import sor
from repro.codegen.pygen import (
    generate_python_node_programs,
    load_generated_module,
)
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec
from repro.runtime.vmpi import VirtualMPI


@pytest.fixture(scope="module")
def prog():
    app = sor.app(4, 6)
    return TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                        mapping_dim=2)


class TestHeterogeneousUnaggregated:
    def test_speed_factors_scale_unaggregated_compute(self, prog):
        """On a heterogeneous spec every Compute/pack term of rank r is
        scaled by f_r, so per-rank compute_time scales *exactly*
        linearly; before the fix the ablation silently ran every rank
        at nominal speed (ratio 1.0 everywhere)."""
        factors = tuple(1.0 + 0.5 * r
                        for r in range(prog.num_processors))
        hom = ClusterSpec()
        het = ClusterSpec(node_speed_factors=factors)
        s_hom = DistributedRun(prog, hom).simulate_unaggregated()
        s_het = DistributedRun(prog, het).simulate_unaggregated()
        for r in range(prog.num_processors):
            assert s_hom.compute_time[r] > 0
            ratio = s_het.compute_time[r] / s_hom.compute_time[r]
            assert ratio == pytest.approx(factors[r], rel=1e-12)
        # The slowdown must also move the makespan.
        assert s_het.makespan > s_hom.makespan

    def test_matches_simulate_cost_model(self, prog):
        """Aggregated and unaggregated modes see the *same* per-rank
        slowdown: their heterogeneous/homogeneous compute-time ratios
        agree rank by rank."""
        factors = tuple(2.0 if r % 2 else 1.0
                        for r in range(prog.num_processors))
        het = ClusterSpec(node_speed_factors=factors)
        hom = ClusterSpec()
        agg_ratio = [
            DistributedRun(prog, het).simulate().compute_time[r] /
            DistributedRun(prog, hom).simulate().compute_time[r]
            for r in range(prog.num_processors)
        ]
        una_ratio = [
            DistributedRun(prog, het).simulate_unaggregated()
            .compute_time[r] /
            DistributedRun(prog, hom).simulate_unaggregated()
            .compute_time[r]
            for r in range(prog.num_processors)
        ]
        assert una_ratio == pytest.approx(agg_ratio, rel=1e-12)


def _pygen_replay(app, h, prog, spec):
    mod = load_generated_module(generate_python_node_programs(
        app.nest, h, mapping_dim=prog.dist.m, spec=spec))
    return VirtualMPI(
        spec, {r: mod.node_program(r) for r in mod.RANKS}).run()


HETEROGENEOUS_ENGINES = {
    "execute": lambda app, h, prog, spec:
        execute(prog, app.init_value, spec)[1],
    "execute_dense": lambda app, h, prog, spec:
        DistributedRun(prog, spec).execute_dense(app.init_value)[1],
    "pygen": _pygen_replay,
}


class TestHeterogeneousEngines:
    """``repro.execute``/``execute_dense`` promise RunStats identical to
    ``simulate()``, and the generated program replays the same
    schedule — but only ``simulate()`` applied ``node_speed_factor``
    (SOR 6x10 nonrect 3x4x4, 11 ranks: 2.3560e-3 vs 2.4306e-3 s).  All
    of them now cost one plan through one port."""

    @pytest.mark.parametrize("engine", sorted(HETEROGENEOUS_ENGINES))
    def test_runstats_equal_simulate(self, engine):
        app, h = sor.app(6, 10), sor.h_nonrectangular(3, 4, 4)
        prog = TiledProgram(app.nest, h, mapping_dim=2)
        spec = ClusterSpec(node_speed_factors=tuple(
            1.0 + 0.25 * (r % 4) for r in range(prog.num_processors)))
        sim = DistributedRun(prog, spec).simulate()
        assert sim.makespan > \
            DistributedRun(prog, ClusterSpec()).simulate().makespan
        stats = HETEROGENEOUS_ENGINES[engine](app, h, prog, spec)
        assert stats.makespan == sim.makespan
        assert stats.clocks == sim.clocks
        assert stats.channel_messages == sim.channel_messages
        assert stats.channel_elements == sim.channel_elements
        assert stats == sim


class TestPointCountCache:
    def test_hot_paths_use_program_cache(self):
        """Once the ``points`` stage is warm, simulate / ablation /
        execute_dense must find every count in it (a miss on a partial
        tile re-reduces its mask)."""
        app = sor.app(4, 6)
        prog = TiledProgram(app.nest, sor.h_rectangular(2, 3, 4),
                            mapping_dim=2)
        spec = ClusterSpec()
        for tile in prog.dist.tiles:
            prog.tiling.tile_point_count(tile)

        misses = []

        class Recording(dict):
            def __missing__(self, key):
                misses.append(key)
                raise KeyError(key)

        prog.tiling.stages["points"] = Recording(
            prog.tiling.stage("points"))
        DistributedRun(prog, spec).simulate()
        DistributedRun(prog, spec).simulate_unaggregated()
        DistributedRun(prog, spec).execute_dense(app.init_value)
        assert misses == [], "hot path bypassed the point-count cache"
