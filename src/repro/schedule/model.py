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
from typing import Sequence

from repro.runtime.machine import ClusterSpec
from repro.schedule.linear import LinearSchedule
from repro.tiling.transform import TilingTransformation


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
    ttis = tiling.ttis
    vol = ttis.tile_volume
    # Communication surface per direction: points with j'_k >= cc_k in
    # one crossed dimension (full-tile estimate, lattice density 1/c).
    per_step_elems = 0
    for dm in comm.d_m:
        full_dir = dm[:mapping_dim] + (0,) + dm[mapping_dim:]
        lbs = comm.pack_lower_bounds(full_dir)
        frac = 1.0
        for k in range(tiling.n):
            extent = ttis.v[k]
            kept = extent - lbs[k]
            frac *= kept / extent
        per_step_elems += int(round(vol * frac)) * arrays
    n_msgs = len(comm.d_m)
    per_step_comm = (n_msgs * spec.net_latency
                     + per_step_elems * spec.bytes_per_element
                     / spec.net_bandwidth
                     + 2 * per_step_elems * spec.time_per_packed_element)
    return PredictedTime(
        steps=sched.length(),
        per_step_compute=spec.compute_time(vol),
        per_step_comm=per_step_comm,
    )
