"""Reproduction of "On Scale Independence for Querying Big Data" (PODS 2014).

The package is organised as follows:

* :mod:`repro.api` -- the documented front door: the :class:`Engine`
  facade binding a schema, an access schema and a database, with textual
  Datalog-style queries, an LRU cache of compiled plans, and bounded
  execution returning :class:`ResultSet` rows plus access statistics.
* :mod:`repro.logic` -- the query languages of the paper (CQ, UCQ, FO) with
  active-domain semantics, homomorphisms and containment, plus the
  Datalog-style parser (:mod:`repro.logic.parser`).
* :mod:`repro.relational` -- the relational substrate: schemas (with a
  textual DSL), instances with tuple-access accounting, and pluggable
  storage backends (:mod:`repro.relational.backends`): in-memory hash
  indexes, an out-of-core SQLite store, and a hash-sharded composite.
* :mod:`repro.core` -- the paper's primary contribution: access schemas
  (with a textual rule DSL), controllability, the scale-independent
  planner (:mod:`repro.core.plans`), the batched physical-operator
  executor (:mod:`repro.core.executor`) and the decision problems QDSI,
  QSI, QCntl and QCntlmin.
* :mod:`repro.incremental` -- incremental scale independence (Section 5):
  every database keeps a monotonic change log, every operator has a delta
  face, and :class:`IncrementalResult` (from ``execute_incremental``)
  re-answers a query after updates via ``refresh()`` -- the standard
  delta rule over the log slice, with access bounded by the slice and the
  rule bounds, never the database size.
* :mod:`repro.views` -- scale independence *using views* (Section 6):
  named materialized views (``engine.views.register``) with their own
  bounded access rules, kept fresh incrementally from the change log,
  and a homomorphism-based rewriting step that makes queries executable
  -- with boundedly many base accesses -- that no base access plan can
  control (e.g. inverted edge lookups through the workload views V1/V2).
* :mod:`repro.workloads` -- seeded synthetic workloads: the paper's
  social-network example with configurable size and degree skew, the
  running queries Q1/Q2/Q3 (and the view-unlocked Q4/Q5) as ready-made
  bundles, the workload views V1/V2, and seeded churn streams
  (insert/delete batches honoring the degree caps).
* :mod:`repro.analysis` -- compiler-style static diagnostics (also
  ``python -m repro.analysis``): stable codes with severities and
  1-based source spans threaded from the parser, pass families over
  queries (QRY), access schemas (ACC), compiled plans (PLN) and views
  (VIW), surfaced as ``prepared.diagnostics()`` / ``engine.analyze()``,
  a lint CLI with ``--strict`` and certified ``--fix`` rewrites, plan
  certification (CRT) -- translation validation of every compiled plan
  under ``Engine(certify=True)`` / ``REPRO_CERTIFY=1`` -- binding-
  pattern dataflow explanations, and the CI gate keeping the Q1-Q5
  workload bundles warning-clean and certified.

The most frequently used names are re-exported here for convenience.
"""

from repro.errors import (
    CertificationError,
    CompactedError,
    IncrementalError,
    NotControlledError,
    ParseError,
    ReproError,
    RewritingError,
    SchemaError,
    UndecidableError,
    UpdateError,
)
from repro.logic.terms import Constant, Variable
from repro.logic.ast import (
    Atom,
    Equality,
    And,
    Or,
    Not,
    Exists,
    Forall,
    Implies,
    Span,
)
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.logic.fo import FirstOrderQuery
from repro.logic.parser import parse_cq, parse_query
from repro.relational.schema import DatabaseSchema, RelationSchema, parse_schema
from repro.relational.instance import AccessStats, ChangeEntry, ChangeLog, Database
from repro.relational.backends import (
    MemoryBackend,
    ShardedBackend,
    SqliteBackend,
    StorageBackend,
)
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
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    FilterOp,
    OperatorProfile,
    PlanProfile,
    ProbeOp,
    ProjectDedupOp,
    build_pipeline,
    delta_fanout_bound,
    execute_plan,
    execute_plan_counting,
    execute_plan_delta,
    profile_plan,
)
from repro.core.plans import FetchStep, Plan, ProbeStep, StepCost, compile_plan
from repro.core.qdsi import QDSIResult, decide_qdsi
from repro.core.qsi import QSIResult, decide_qsi
from repro.views import ViewDef, ViewSet, ViewState
from repro.api import CacheStats, Engine, ExplainAnalyze, PreparedQuery, ResultSet
from repro.incremental import IncrementalResult
from repro.analysis import Diagnostic, Report, Severity

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "UpdateError",
    "UndecidableError",
    "NotControlledError",
    "RewritingError",
    "ParseError",
    "IncrementalError",
    "CertificationError",
    "CompactedError",
    # terms and formulas
    "Variable",
    "Constant",
    "Atom",
    "Equality",
    "And",
    "Or",
    "Not",
    "Exists",
    "Forall",
    "Implies",
    "Span",
    # queries and parsing
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "FirstOrderQuery",
    "parse_query",
    "parse_cq",
    # relational substrate
    "RelationSchema",
    "DatabaseSchema",
    "parse_schema",
    "Database",
    "AccessStats",
    "ChangeEntry",
    "ChangeLog",
    # storage backends
    "StorageBackend",
    "MemoryBackend",
    "SqliteBackend",
    "ShardedBackend",
    # access schemas
    "AccessRule",
    "EmbeddedAccessRule",
    "FullAccessRule",
    "AccessSchema",
    "parse_access_schema",
    # controllability and plans
    "Coverage",
    "CoverageStep",
    "coverage",
    "controlling_sets",
    "is_controlled",
    "Plan",
    "FetchStep",
    "ProbeStep",
    "StepCost",
    "compile_plan",
    # the physical executor
    "ExecutionContext",
    "FetchOp",
    "ProbeOp",
    "FilterOp",
    "ProjectDedupOp",
    "OperatorProfile",
    "PlanProfile",
    "build_pipeline",
    "execute_plan",
    "profile_plan",
    # incremental execution
    "IncrementalResult",
    "execute_plan_counting",
    "execute_plan_delta",
    "delta_fanout_bound",
    # materialized views (Section 6)
    "ViewDef",
    "ViewSet",
    "ViewState",
    # deciders
    "QDSIResult",
    "decide_qdsi",
    "QSIResult",
    "decide_qsi",
    # the Engine facade
    "Engine",
    "PreparedQuery",
    "ResultSet",
    "ExplainAnalyze",
    "CacheStats",
    # static analysis
    "Severity",
    "Diagnostic",
    "Report",
]

__version__ = "3.0.0"
