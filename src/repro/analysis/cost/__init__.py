"""Static cost certification of a :class:`TiledProgram` (COST01-04).

The cost certifier computes, without executing anything, the exact
communication and computation volumes of the frozen schedule, reads
the machine-model makespan from the timing-only simulation, then
certifies the tile shape against the Dinh & Demmel communication lower
bound:

* **COST01** — per-edge message counts and element/byte volumes, from
  the TTIS geometry (``H'``, HNF strides, ``CC``) in closed form,
  cross-checked against an independent replay of the frozen plans;
* **COST02** — per-rank computation volumes and the load-imbalance
  ratio of the distribution;
* **COST03** — the makespan and per-rank clocks under the cluster
  model: ``DistributedRun.simulate(protocol)`` itself, the one clock of
  the model; a schedule that deadlocks under the protocol is a COST03
  error with an infinite makespan;
* **COST04** — lower-bound certification: a warning naming the
  violating dimension and a rescaling direction when the shape's
  per-tile communication exceeds the closed-form lower bound by more
  than a configurable factor.

Entry points: :func:`certify_cost` /
:meth:`repro.runtime.executor.TiledProgram.cost_certificate` and the
CLI ``repro analyze --cost``.
"""

from repro.analysis.cost.bound import communication_lower_bound
from repro.analysis.cost.certify import (
    MUTATIONS,
    PASS_COST,
    BoundCheck,
    CostCertificate,
    EdgeCost,
    RankCost,
    certify_cost,
)
from repro.analysis.cost.volumes import (
    closed_form_region_count,
    edge_volumes,
    rank_volumes,
)

__all__ = [
    "MUTATIONS",
    "PASS_COST",
    "BoundCheck",
    "CostCertificate",
    "EdgeCost",
    "RankCost",
    "certify_cost",
    "closed_form_region_count",
    "communication_lower_bound",
    "edge_volumes",
    "rank_volumes",
]
