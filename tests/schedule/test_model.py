"""Unit tests for the closed-form makespan prediction."""

import pytest

from repro.apps import sor
from repro.runtime import ClusterSpec
from repro.schedule import predict_makespan
from repro.tiling import TilingTransformation

SOR_DEPS_SKEWED = [(0, 1, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1), (1, 1, 2)]


@pytest.fixture(scope="module")
def setting():
    h = sor.h_nonrectangular(3, 4, 5)
    app = sor.app(9, 12)
    tt = TilingTransformation(h, app.nest.domain)
    return tt, ClusterSpec()


class TestPrediction:
    def test_components_positive(self, setting):
        tt, spec = setting
        pred = predict_makespan(tt, SOR_DEPS_SKEWED, 2, spec)
        assert pred.steps > 0
        assert pred.per_step_compute > 0
        assert pred.per_step_comm > 0
        assert pred.total == pred.steps * (
            pred.per_step_compute + pred.per_step_comm)

    def test_steps_equal_schedule_length(self, setting):
        tt, spec = setting
        from repro.schedule import schedule_length
        pred = predict_makespan(tt, SOR_DEPS_SKEWED, 2, spec)
        assert pred.steps == schedule_length(tt)

    def test_compute_term_is_tile_volume(self, setting):
        tt, spec = setting
        pred = predict_makespan(tt, SOR_DEPS_SKEWED, 2, spec)
        assert abs(pred.per_step_compute
                   - spec.compute_time(tt.tile_volume())) < 1e-15

    def test_multi_array_scales_comm(self, setting):
        tt, spec = setting
        p1 = predict_makespan(tt, SOR_DEPS_SKEWED, 2, spec, arrays=1)
        p2 = predict_makespan(tt, SOR_DEPS_SKEWED, 2, spec, arrays=2)
        assert p2.per_step_comm > p1.per_step_comm

    def test_prediction_brackets_simulation(self, setting):
        """The model should land within a small factor of the DES —
        it ignores boundary clipping and fill/drain, nothing else."""
        tt, spec = setting
        from repro.runtime import DistributedRun, TiledProgram
        app = sor.app(9, 12)
        prog = TiledProgram(app.nest, sor.h_nonrectangular(3, 4, 5),
                            mapping_dim=2)
        sim = DistributedRun(prog, spec).simulate()
        pred = predict_makespan(prog.tiling, app.nest.dependences,
                                2, spec)
        ratio = pred.total / sim.makespan
        assert 0.3 < ratio < 4.0, f"model/sim ratio {ratio}"
