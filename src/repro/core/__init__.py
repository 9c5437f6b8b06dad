"""The paper's primary contribution: access schemas, controllability,
scale-independent plans (the planner in :mod:`repro.core.plans`, the
batched physical-operator executor in :mod:`repro.core.executor`) and the
QSI/QDSI deciders."""

from repro.core.access_schema import (
    AccessRule,
    AccessSchema,
    EmbeddedAccessRule,
    FullAccessRule,
    parse_access_schema,
)
from repro.core.controllability import (
    Coverage,
    CoverageStep,
    controlling_sets,
    coverage,
    is_controlled,
)
from repro.core.columnar import (
    PipelineCache,
    PipelineCacheStats,
    SlotTable,
)
from repro.core.executor import (
    FetchOp,
    FilterOp,
    OperatorProfile,
    Pipeline,
    PlanProfile,
    ProbeOp,
    ProjectDedupOp,
    build_pipeline,
    execute_per_tuple,
    execute_plan,
    pipeline_cache_stats,
    pipeline_for,
    profile_plan,
)
from repro.core.plans import FetchStep, Plan, ProbeStep, StepCost, compile_plan
from repro.core.qdsi import QDSIResult, decide_qdsi
from repro.core.qsi import QSIResult, decide_qsi

__all__ = [
    "AccessRule",
    "FullAccessRule",
    "EmbeddedAccessRule",
    "AccessSchema",
    "parse_access_schema",
    "Coverage",
    "CoverageStep",
    "coverage",
    "is_controlled",
    "controlling_sets",
    "Plan",
    "FetchStep",
    "ProbeStep",
    "StepCost",
    "compile_plan",
    "FetchOp",
    "ProbeOp",
    "FilterOp",
    "ProjectDedupOp",
    "OperatorProfile",
    "PlanProfile",
    "Pipeline",
    "SlotTable",
    "PipelineCache",
    "PipelineCacheStats",
    "build_pipeline",
    "pipeline_for",
    "pipeline_cache_stats",
    "execute_plan",
    "execute_per_tuple",
    "profile_plan",
    "QDSIResult",
    "decide_qdsi",
    "QSIResult",
    "decide_qsi",
]
