"""Linear scheduling analysis (paper §3.1 and the §4 makespan formulas)."""

from repro.schedule.linear import (
    LinearSchedule,
    schedule_length,
    last_tile_time,
    makespan_formula_terms,
)
from repro.schedule.model import predict_makespan, PredictedTime
from repro.schedule.uetuct import (
    MappingEvaluation,
    best_mapping_dim,
    evaluate_mappings,
)

__all__ = [
    "MappingEvaluation",
    "best_mapping_dim",
    "evaluate_mappings",
    "LinearSchedule",
    "schedule_length",
    "last_tile_time",
    "makespan_formula_terms",
    "predict_makespan",
    "PredictedTime",
]
