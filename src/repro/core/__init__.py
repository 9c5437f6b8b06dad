"""The paper's primary contribution: access schemas, controllability,
scale-independent plans (the planner in :mod:`repro.core.plans`) and the
QSI/QDSI deciders, re-exported here.  The batched physical-operator
executor's names live in :mod:`repro.core.executor` (and, the public ones,
at the package root), where every caller imports them from."""

from repro.core.access_schema import (
    AccessRule,
    AccessSchema,
    EmbeddedAccessRule,
    FullAccessRule,
    parse_access_schema,
)
from repro.core.controllability import (
    Coverage,
    controlling_sets,
    coverage,
    is_controlled,
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
    "coverage",
    "is_controlled",
    "controlling_sets",
    "Plan",
    "FetchStep",
    "ProbeStep",
    "StepCost",
    "compile_plan",
    "QDSIResult",
    "decide_qdsi",
    "QSIResult",
    "decide_qsi",
]
