"""Reproduction of "On Scale Independence for Querying Big Data" (PODS 2014).

The package is organised as follows:

* :mod:`repro.api` -- the documented front door: the :class:`Engine`
  facade binding a schema, an access schema and a database, with textual
  Datalog-style queries, an LRU cache of compiled plans, and bounded
  execution returning :class:`ResultSet` rows plus access statistics.
* :mod:`repro.logic` -- the query languages the engine plans and runs (CQ
  and UCQ; QSI is undecidable for first-order queries), their naive
  evaluation, homomorphisms and containment, plus the Datalog-style
  parser (:mod:`repro.logic.parser`).
* :mod:`repro.relational` -- the relational substrate: schemas (with a
  textual DSL), instances with tuple-access accounting, and pluggable
  storage backends (:mod:`repro.relational.backends`): in-memory hash
  indexes and an out-of-core SQLite store.
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
  under ``Engine(certify=True)`` / ``REPRO_CERTIFY=1`` -- the
  uncontrollability trace and missing-rule advice read off the
  planner's walk (:class:`repro.core.controllability.Coverage`), and
  the CI gate keeping the Q1-Q5 workload bundles warning-clean and
  certified.

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
    UpdateError,
)
from repro.logic.terms import Constant, Variable
from repro.logic.ast import Atom, Equality, Span
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.logic.parser import parse_cq, parse_query
from repro.relational.schema import DatabaseSchema, RelationSchema, parse_schema
from repro.relational.instance import AccessStats, Database
from repro.relational.backends import MemoryBackend, SqliteBackend
from repro.core.access_schema import (
    AccessRule,
    AccessSchema,
    EmbeddedAccessRule,
    FullAccessRule,
    parse_access_schema,
)
from repro.core.controllability import controlling_sets, is_controlled
from repro.core.executor import (
    ExecutionContext,
    build_pipeline,
    delta_fanout_bound,
    execute_plan,
)
from repro.core.plans import FetchStep, Plan, ProbeStep, compile_plan
from repro.core.qdsi import decide_qdsi
from repro.core.qsi import decide_qsi
from repro.views import ViewDef, ViewState
from repro.api import Engine, PreparedQuery, ResultSet
from repro.incremental import IncrementalResult
from repro.analysis import Severity

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "UpdateError",
    "NotControlledError",
    "RewritingError",
    "ParseError",
    "IncrementalError",
    "CertificationError",
    "CompactedError",
    # terms, atoms and equalities
    "Variable",
    "Constant",
    "Atom",
    "Equality",
    "Span",
    # queries and parsing
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "parse_query",
    "parse_cq",
    # relational substrate
    "RelationSchema",
    "DatabaseSchema",
    "parse_schema",
    "Database",
    "AccessStats",
    # storage backends
    "MemoryBackend",
    "SqliteBackend",
    # access schemas
    "AccessRule",
    "EmbeddedAccessRule",
    "FullAccessRule",
    "AccessSchema",
    "parse_access_schema",
    # controllability and plans
    "controlling_sets",
    "is_controlled",
    "Plan",
    "FetchStep",
    "ProbeStep",
    "compile_plan",
    # the physical executor
    "ExecutionContext",
    "build_pipeline",
    "execute_plan",
    # incremental execution
    "IncrementalResult",
    "delta_fanout_bound",
    # materialized views (Section 6)
    "ViewDef",
    "ViewState",
    # deciders
    "decide_qdsi",
    "decide_qsi",
    # the Engine facade
    "Engine",
    "PreparedQuery",
    "ResultSet",
    # static analysis
    "Severity",
]

__version__ = "3.0.0"
