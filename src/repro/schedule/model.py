"""Closed-form completion-time prediction (Hodzic & Shang style).

Under the linear schedule every wavefront advances once the slowest
tile of the previous front has computed and communicated, so

    T_predicted ~= n_steps * (V_tile * t_comp + comm_per_step)

where ``n_steps`` is the schedule length and ``comm_per_step`` the
latency + transfer of the largest per-step message.  The prediction
deliberately ignores boundary-tile clipping and pipeline fill/drain
imbalance — comparing it against the discrete-event simulation
quantifies how much those effects matter (the model-vs-simulation
ablation of EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.runtime.machine import ClusterSpec
from repro.schedule.linear import LinearSchedule
from repro.tiling.transform import TilingTransformation

if TYPE_CHECKING:
    from repro.distribution.communication import CommunicationSpec


@dataclass(frozen=True)
class PredictedTime:
    steps: int
    per_step_compute: float
    per_step_comm: float

    @property
    def total(self) -> float:
        return self.steps * (self.per_step_compute + self.per_step_comm)


def predict_makespan(tiling: TilingTransformation,
                     deps: Sequence[Sequence[int]],
                     mapping_dim: int,
                     spec: ClusterSpec,
                     arrays: int = 1) -> PredictedTime:
    """Predict the parallel completion time of a tiled nest.

    ``comm_per_step`` models one message per crossed dimension with the
    compile-time communication-region size (full tiles assumed).
    """
    from repro.distribution.communication import CommunicationSpec

    sched = LinearSchedule(tiling)
    comm = CommunicationSpec(tiling, deps, mapping_dim)
    compute, communicate = per_step_cost(comm, spec, arrays)
    return PredictedTime(
        steps=sched.length(),
        per_step_compute=compute,
        per_step_comm=communicate,
    )


def per_step_cost(comm: "CommunicationSpec", spec: ClusterSpec,
                  arrays: int = 1) -> Tuple[float, float]:
    """``(compute, communicate)`` seconds of one full tile's step:
    the tile volume at ``time_per_iteration``, and one message per
    processor direction ``d^m`` of its full-tile pack region (latency,
    transfer, and a pack plus an unpack per element)."""
    elems = sum(comm.full_pack_estimate(dm) for dm in comm.d_m) * arrays
    communicate = (len(comm.d_m) * spec.net_latency
                   + elems * spec.bytes_per_element / spec.net_bandwidth
                   + 2 * elems * spec.time_per_packed_element)
    return spec.compute_time(comm.tiling.ttis.tile_volume), communicate
