"""The tuner's search ladder: rejection handling, pruning, verdicts."""

from fractions import Fraction

import pytest

from repro.apps import adi, jacobi, sor
from repro.linalg.ratmat import RatMat
from repro.runtime.machine import ClusterSpec
from repro.tuning import (
    ShapeCandidate,
    TuneConfig,
    hnf_key,
    tune_tile_shape,
)
from repro.tuning.schema import validate_report

SPEC = ClusterSpec()


def _candidate(h, order):
    return ShapeCandidate(h=h, rays=(), scales=(), key=hnf_key(h),
                          order=order)


def test_illegal_h_rejected_before_costing(monkeypatch):
    """A known-bad ``H`` (violates ``H D >= 0`` for SOR's skewed deps)
    must be recorded as a rejection by the compile rung — the cost
    certifier must never see it."""
    app = sor.app(6, 9)
    bad = RatMat([[Fraction(-1, 2), 0, 0],
                  [0, Fraction(1, 3), 0],
                  [0, 0, Fraction(1, 4)]])

    def boom(*a, **k):
        raise AssertionError("cost certifier ran on an illegal tiling")

    monkeypatch.setattr(
        "repro.runtime.executor.TiledProgram.cost_certificate", boom)
    with pytest.raises(ValueError,
                       match="no tile-shape candidate compiled"):
        tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                        candidates=[_candidate(bad, 0)])


def test_illegal_h_among_good_candidates_is_a_trace_rejection():
    app = sor.app(6, 9)
    bad = RatMat([[Fraction(-1, 2), 0, 0],
                  [0, Fraction(1, 3), 0],
                  [0, 0, Fraction(1, 4)]])
    good = sor.h_nonrectangular(2, 3, 4)
    res = tune_tile_shape(
        app.nest, app.mapping_dim, spec=SPEC,
        candidates=[_candidate(bad, 0), _candidate(good, 1)])
    by_order = {t.order: t for t in res.trace}
    assert by_order[0].status == "rejected:compile"
    assert by_order[0].predicted_makespan is None
    assert by_order[1].status == "winner"


def test_baseline_always_simulated_and_never_beaten():
    app = sor.app(8, 12)
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(),
                          baseline_h=sor.h_rectangular(2, 3, 4))
    assert res.baseline is not None
    assert res.baseline.simulated_makespan is not None
    assert (res.winner.simulated_makespan
            <= res.baseline.simulated_makespan)


def test_early_stop_fires_and_prunes():
    app = sor.app(8, 12)
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(),
                          baseline_h=sor.h_rectangular(2, 3, 4))
    assert res.early_stop
    assert "lower bound" in (res.early_stop_reason or "")
    pruned = [t for t in res.trace if t.status == "pruned:early-stop"]
    assert pruned, "the stop must actually prune part of the space"
    # Pruned candidates were never compiled, let alone simulated.
    for t in pruned:
        assert t.predicted_makespan is None
        assert t.simulated_makespan is None


def test_early_stop_respects_min_costed():
    app = sor.app(8, 12)
    res = tune_tile_shape(
        app.nest, app.mapping_dim, spec=SPEC,
        config=TuneConfig(min_costed=10 ** 6),
        baseline_h=sor.h_rectangular(2, 3, 4))
    assert not res.early_stop


def test_pruned_search_matches_exhaustive_winner():
    """The ladder's claim: the same winner for a fraction of the
    simulator runs.  The exhaustive side disables both pruning rungs
    over the identical candidate space (``stop_ratio=0.0`` can never
    stop: the bound ratio is above 1 by construction; a huge ``top_k``
    admits every costed candidate), so the ratio isolates the ladder."""
    app, h = sor.app(8, 12), sor.h_rectangular(2, 3, 4)
    pruned = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                             config=TuneConfig(), baseline_h=h)
    exhaustive = tune_tile_shape(
        app.nest, app.mapping_dim, spec=SPEC,
        config=TuneConfig(stop_ratio=0.0, top_k=10 ** 6), baseline_h=h)
    assert pruned.early_stop, "reference config must trip the stop rule"
    assert not exhaustive.early_stop
    # Pinned winner: pruning may never change the answer, only its cost.
    assert pruned.winner_h == exhaustive.winner_h
    assert pruned.winner.simulated_makespan == \
        exhaustive.winner.simulated_makespan
    assert (pruned.simulator_evals, exhaustive.simulator_evals) == (2, 15)
    assert exhaustive.simulator_evals >= 5.0 * pruned.simulator_evals


def test_processor_cap_rejections_are_traced():
    app = sor.app(8, 12)
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(max_processors=12))
    capped = [t for t in res.trace if t.status == "rejected:processors"]
    assert capped
    for t in capped:
        assert "exceed the cap of 12" in (t.reason or "")
        assert t.processors is not None and t.processors > 12
    assert res.winner.processors <= 12


def test_all_deadlocked_candidates_raise():
    # Forced rendezvous deadlocks the rect SOR pipeline at every
    # extent: the frontier refuses rather than simulate a hang.
    import dataclasses

    app = sor.app(4, 6)
    spec = dataclasses.replace(SPEC, rendezvous_threshold=0)
    cands = [_candidate(sor.h_rectangular(2, 3, z), i)
             for i, z in enumerate((4, 5))]
    with pytest.raises(ValueError, match="every candidate deadlocks"):
        tune_tile_shape(app.nest, app.mapping_dim, spec=spec,
                        candidates=cands)


def test_all_candidates_capped_is_an_error():
    app = sor.app(8, 12)
    with pytest.raises(ValueError,
                       match="no tile-shape candidate compiled"):
        tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                        config=TuneConfig(max_processors=1))


@pytest.mark.parametrize("app,h", [
    (sor.app(8, 12), sor.h_rectangular(2, 3, 4)),
    (jacobi.app(6, 8, 8), jacobi.h_rectangular(2, 4, 4)),
    (adi.app(6, 8), adi.h_rectangular(2, 4, 4)),
])
def test_tuned_beats_or_matches_rectangles_on_paper_apps(app, h):
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(), baseline_h=h)
    assert res.baseline is not None
    assert (res.winner.simulated_makespan
            <= res.baseline.simulated_makespan)
    validate_report(res.to_dict())


def test_report_roundtrips_the_winner_matrix():
    from repro.tuning import h_from_doc

    app = sor.app(8, 12)
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(),
                          baseline_h=sor.h_rectangular(2, 3, 4))
    doc = res.to_dict()
    assert h_from_doc(doc["winner"]["h"]) == res.winner_h


def test_as_sweep_outcome_adapter():
    app = sor.app(8, 12)
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(),
                          baseline_h=sor.h_rectangular(2, 3, 4))
    sw = res.as_sweep_outcome()
    assert sw.best_extent == res.winner.chain_extent
    assert sw.best_makespan == res.winner.simulated_makespan
    assert sw.best_speedup == pytest.approx(res.speedup)
    assert any(ext == sw.best_extent for ext, _ in sw.curve)


def test_schema_rejects_a_mangled_report():
    app = sor.app(6, 9)
    res = tune_tile_shape(app.nest, app.mapping_dim, spec=SPEC,
                          config=TuneConfig(),
                          baseline_h=sor.h_rectangular(2, 3, 4))
    doc = res.to_dict()
    doc["winner"]["simulated_makespan"] = "fast"
    with pytest.raises(ValueError, match="schema validation"):
        validate_report(doc)
