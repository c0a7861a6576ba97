"""EXPERIMENTS.md's "ablations beyond the paper" at paper scale, as
exact assertions on the deterministic simulator: every pinned number is
the one its ablation table quotes (or the row it was rounded from), the
row's qualitative claim is asserted beside it.  Re-pin here and there
together.  Most rows run on the SOR anchor experiment (M=100, N=200,
4x4 mesh, non-rectangular tiling).
"""

import functools

import pytest

from repro.apps import adi, sor
from repro.distribution import memory_report
from repro.experiments.figures import adi_factors, sor_factors
from repro.experiments.harness import run_experiment
from repro.experiments.spaces import tile_count_extent
from repro.runtime import (ClusterSpec, DistributedRun,
                           FAST_ETHERNET_CLUSTER, TiledProgram)
from repro.schedule import predict_makespan
from repro.tiling import ratio_balanced_extent, sweep_best_extent

APP = sor.app(100, 200)
X, Y = sor_factors(100, 200)


@pytest.fixture(scope="module")
def anchor():
    """``anchor(z)``: the anchor experiment compiled once per chain
    extent (and tile shape)."""
    @functools.lru_cache(maxsize=None)
    def compiled(z, shape=sor.h_nonrectangular):
        return TiledProgram(APP.nest, shape(X, Y, z), mapping_dim=2)
    return compiled


def speedup(prog, stats):
    return (FAST_ETHERNET_CLUSTER.compute_time(prog.total_points())
            / stats.makespan)


def simulated_speedup(prog, spec=FAST_ETHERNET_CLUSTER):
    return round(speedup(prog, DistributedRun(prog, spec).simulate()), 3)


def test_ablation_aggregation(anchor):
    """§3.2: one message per successor *processor* against one per tile
    dependence — the naive variant pays extra latencies every step."""
    rows = {}
    for z in (4, 8, 16):
        run = DistributedRun(anchor(z), FAST_ETHERNET_CLUSTER)
        agg, raw = run.simulate(), run.simulate_unaggregated()
        rows[z] = (round(speedup(anchor(z), agg), 3),
                   round(speedup(anchor(z), raw), 3),
                   agg.total_messages, raw.total_messages)
    assert rows == {4: (5.911, 5.137, 1428, 2847),
                    8: (5.786, 5.237, 732, 1454),
                    16: (5.236, 4.865, 381, 752)}
    for s_agg, s_raw, m_agg, m_raw in rows.values():
        assert m_raw > m_agg
        assert s_agg >= s_raw, "aggregation must not hurt"
    assert any(s_agg > s_raw * 1.01 for s_agg, s_raw, _, _ in rows.values())


def test_ablation_heterogeneity(anchor):
    """One slow node: slow the *critical* rank (last to finish at
    nominal speed; a non-critical one hides a slowdown in its slack)."""
    prog = anchor(8)
    base = DistributedRun(prog, FAST_ETHERNET_CLUSTER).simulate()
    critical = max(base.clocks, key=base.clocks.get)
    rows = []
    for f in (1.0, 1.5, 2.0, 3.0):
        factors = [1.0] * prog.num_processors
        factors[critical] = f
        stats = DistributedRun(prog, ClusterSpec(
            node_speed_factors=tuple(factors))).simulate()
        rows.append((f, speedup(prog, stats),
                     stats.makespan / base.makespan))
    assert [(f, round(s, 3), round(stretch, 3))
            for f, s, stretch in rows] == [
        (1.0, 5.786, 1.0), (1.5, 5.615, 1.030), (2.0, 4.822, 1.200),
        (3.0, 3.614, 1.601)]
    speeds = [s for _, s, _ in rows]
    assert all(b <= a + 1e-9 for a, b in zip(speeds, speeds[1:]))
    # one slow node cannot stretch the makespan by more than its own
    # factor, and the pipeline absorbs some of it
    for f, _, stretch in rows[1:]:
        assert 1.0 < stretch <= f + 1e-9


def test_ablation_overlap(anchor):
    """Blocking sends (the paper's scheme) against overlap (its future
    work, ref [8]): helps most where communication is heaviest."""
    rows = {z: (simulated_speedup(anchor(z)),
                simulated_speedup(anchor(z),
                                  FAST_ETHERNET_CLUSTER.with_overlap()))
            for z in (4, 8, 16, 32)}
    assert rows == {4: (5.911, 6.296), 8: (5.786, 6.145),
                    16: (5.236, 5.524), 32: (4.289, 4.478)}
    assert [round(100 * (o - b) / b, 1) for b, o in rows.values()] == [
        6.5, 6.2, 5.5, 4.4]
    assert all(o >= b for b, o in rows.values()), "overlap must never hurt"
    assert any(o > b * 1.02 for b, o in rows.values())


def test_ablation_protocols(anchor):
    """Eager vs MPI rendezvous vs overlap: how much the blocking-send
    pipeline depends on eager delivery."""
    speedups = {label: simulated_speedup(anchor(8), spec) for label, spec in {
        "eager": ClusterSpec(),
        "rendezvous-16k": ClusterSpec(rendezvous_threshold=16 * 1024),
        "rendezvous-all": ClusterSpec(rendezvous_threshold=0),
        "overlap": ClusterSpec(overlap=True)}.items()}
    assert speedups == {"eager": 5.786, "rendezvous-16k": 5.786,
                        "rendezvous-all": 3.093, "overlap": 6.145}
    assert speedups["overlap"] >= speedups["eager"]
    assert speedups["eager"] >= speedups["rendezvous-all"]
    assert speedups["rendezvous-16k"] <= speedups["eager"]


def test_ablation_tile_selection():
    """The comp~comm ratio rule of ref [3] against the exhaustive sweep
    the paper does by hand ("we then varied factor z")."""
    candidates = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)

    def h_of(z):
        return sor.h_nonrectangular(X, Y, z)

    balanced = ratio_balanced_extent(h_of, APP.nest, APP.mapping_dim,
                                     FAST_ETHERNET_CLUSTER,
                                     candidates=candidates)
    sweep = sweep_best_extent(h_of, APP.nest, APP.mapping_dim,
                              FAST_ETHERNET_CLUSTER, candidates)
    curve = dict(sweep.curve)
    assert (balanced, round(curve[balanced], 3)) == (2, 5.611)
    assert (sweep.best_extent, round(sweep.best_speedup, 3)) == (4, 5.911)
    loss = (sweep.best_speedup - curve[balanced]) / sweep.best_speedup
    assert f"{loss:.1%}" == "5.1%"
    # the rule must be competitive: within 25% of the sweep optimum
    assert curve[balanced] >= 0.75 * sweep.best_speedup


def test_model_vs_simulation():
    """The Hodzic-Shang-style closed form ignores boundary clipping and
    pipeline fill/drain; it must still rank shapes as the DES does."""
    app = adi.app(100, 256)
    y, z = adi_factors(100, 256)
    rows = []
    for label, hf in (("rect", adi.h_rectangular), ("nr1", adi.h_nr1),
                      ("nr2", adi.h_nr2), ("nr3", adi.h_nr3)):
        prog = TiledProgram(app.nest, hf(4, y, z), mapping_dim=0)
        sim = DistributedRun(prog, FAST_ETHERNET_CLUSTER).simulate()
        pred = predict_makespan(prog.tiling, app.nest.dependences, 0,
                                FAST_ETHERNET_CLUSTER,
                                arrays=len(prog.arrays))
        rows.append((label, pred.total, sim.makespan))
    assert [(label, round(p, 4), round(s, 4), round(p / s, 2))
            for label, p, s in rows] == [
        ("rect", 0.2479, 0.2359, 1.05), ("nr1", 0.2324, 0.2141, 1.09),
        ("nr2", 0.2324, 0.2155, 1.08), ("nr3", 0.2169, 0.1941, 1.12)]
    assert all(0.25 < p / s < 4.0 for _, p, s in rows)
    pred_rank = [label for label, _, _ in sorted(rows, key=lambda r: r[1])]
    sim_rank = [label for label, _, _ in sorted(rows, key=lambda r: r[2])]
    # same (cone-aligned) winner, same loser
    assert pred_rank[0] == sim_rank[0] == "nr3"
    assert pred_rank[-1] == sim_rank[-1] == "rect"


def test_scalability():
    """Strong scaling beyond the paper's fixed P=16 (2x2 -> 6x6 mesh)."""
    rows = {}
    for g in (2, 3, 4, 6):
        x = tile_count_extent(1, 100, g)
        y = tile_count_extent(2, 300, g)
        rows[g * g] = (
            run_experiment(APP, sor.h_rectangular(x, y, 8), f"rect-{g}x{g}"),
            run_experiment(APP, sor.h_nonrectangular(x, y, 8), f"nr-{g}x{g}"))
    assert {p: (round(r.speedup, 3), round(r.efficiency, 3),
                round(nr.speedup, 3), round(nr.efficiency, 3))
            for p, (r, nr) in rows.items()} == {
        4: (1.956, 0.489, 2.323, 0.581), 9: (3.091, 0.343, 3.725, 0.414),
        16: (4.763, 0.340, 5.786, 0.413), 36: (8.675, 0.289, 10.597, 0.353)}
    nr_speedups = [nr.speedup for _, nr in rows.values()]
    assert all(b > a for a, b in zip(nr_speedups, nr_speedups[1:]))
    assert rows[36][1].efficiency < rows[4][1].efficiency
    # the shape advantage persists at every processor count
    assert all(nr.speedup > r.speedup for r, nr in rows.values())


def test_memory_footprint(anchor):
    """§3.1 memory accounting: each processor's LDS against the points
    it owns and the enclosing box of its data-space share."""
    reports = {"rect": memory_report(anchor(8, sor.h_rectangular)),
               "nonrect": memory_report(anchor(8))}
    assert {label: (round(rep.lds_overhead, 2),
                    round(rep.total_naive / rep.total_points, 2),
                    round(rep.compression, 2))
            for label, rep in reports.items()} == {
        "rect": (1.91, 1.30, 0.68), "nonrect": (1.75, 1.30, 0.74)}
    for rep in reports.values():
        # every processor can store what it computes
        assert all(f.lds_cells >= f.computed_points
                   for f in rep.per_processor)
        # the skewed share is non-rectangular (box strictly bigger)
        assert rep.total_naive > rep.total_points
        # LDS slack stays within a small factor at paper scale
        assert rep.lds_overhead < 3.0
