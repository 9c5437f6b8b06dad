"""Static analysis and diagnostics for the scale-independence pipeline.

The paper's premise (Sections 3-4, 6) is that query cost and
controllability are *statically* decidable from the query, the access
rules and the view definitions.  This package turns that theory into
compiler-style tooling: a diagnostic framework
(:mod:`repro.analysis.diagnostics` -- stable codes, severities, 1-based
source spans threaded from the tokenizer through the AST) plus one pass
family per analyzable object:

* :func:`analyze_query` (QRY001-QRY007) -- single-use variables,
  cartesian products, parameters equated away, duplicate atoms,
  mismatched union selectivity, unsatisfiability, and the
  binding-pattern uncontrollability trace;
* :func:`analyze_access` (ACC001-ACC005) -- ruleless relations,
  shadowed rules, absurd bounds, duplicates, plus the ACC005
  missing-rule proposal riding along with QRY007;
* :func:`analyze_plan` (PLN001-PLN003) -- fanout-bound blowups with the
  multiplicative per-level breakdown, probe-after-embedded-fetch fusion
  opportunities, dominant steps;
* :func:`analyze_views` (VIW001-VIW002) -- unmatched and overlapping
  views;
* :func:`advise_views` / ``engine.views.advise(queries)``
  (VIW004-VIW005, :mod:`repro.analysis.advisor`) -- the one view
  advisor, which also speaks for every uncontrolled query in
  :func:`analyze_prepared`: MiniCon-style bucket search over connected
  body subsets, stats-derived bounds, and adopted-vs-base pricing
  through the cost model;
* :func:`estimate_plan` / :func:`certify_selection` (CST001-CST003,
  :mod:`repro.analysis.cost`) -- the static cost model behind the
  engine's cost-based plan selection, optionally refined by observed
  ``CostStats``, with a must-never-fire self-check that the chosen plan
  is no costlier than any rejected candidate (CST002, in the certifier,
  catches plans whose ``cost_estimate`` annotation disagrees with an
  independent re-derivation);
* :func:`classify_incremental` (INC001-INC002,
  :mod:`repro.analysis.maintain`) -- static
  incremental-maintainability classification: which plans the Section 5
  delta pipeline can refresh, with causal traces for embedded-rule
  fetches, decided at prepare/register time instead of failing at
  ``execute_incremental`` time;
* :func:`certify_plan` / :func:`check_plan` (CRT001-CRT007,
  :mod:`repro.analysis.certify`) -- translation validation: re-derive a
  compiled plan's binding coverage, rule membership, head projection and
  fanout arithmetic independently of the planner (``Engine(certify=True)``
  / ``REPRO_CERTIFY=1`` gates every compilation on it);
* :mod:`repro.analysis.dataflow` -- the Datalog-adornment pass behind
  QRY007/ACC005 and the trace ``NotControlledError`` carries;
* :mod:`repro.analysis.fixes` -- certified ``--fix`` rewrites for
  QRY003/QRY004, each verified by homomorphic equivalence before
  anything is written.

Three surfaces:

* the API -- ``engine.analyze(queries)`` /
  ``prepared.diagnostics(parameters)`` (thin wrappers over
  :func:`analyze_engine` / :func:`analyze_prepared`, the one driver);
* the CLI -- ``python -m repro.analysis`` lints query files against an
  optional schema/access pair (with access rules, each line through
  :func:`analyze_prepared` on one engine, so a file reports what
  ``engine.analyze`` reports) and exits nonzero at the chosen severity
  floor (``--strict`` fails on warnings);
* CI -- the workflow runs ``python -m repro.analysis --workload
  --strict`` so the Q1-Q5 bundles (:func:`workload_report`) stay
  diagnostic-clean at warning level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.access import ABSURD_BOUND, analyze_access
from repro.analysis.advisor import ViewAdvice, _entries, advice_report, advise_views
from repro.analysis.certify import certify_plan, check_plan
from repro.analysis.cost import CostStats, certify_selection, check_selection, estimate_plan
from repro.analysis.dataflow import (
    ADVISED_RULE_BOUND,
    advise_missing_rule,
    binding_flow,
    explain_uncontrolled,
)
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    Report,
    Severity,
    diagnostic,
    register_code,
)
from repro.analysis.maintain import classify_incremental
from repro.analysis.plans import BLOWUP_THRESHOLD, analyze_plan
from repro.analysis.fixes import fix_query
from repro.analysis.queries import analyze_query
from repro.analysis.views import analyze_views
from repro.core.plans import compile_plan
from repro.errors import NotControlledError
from repro.logic.ucq import disjuncts_of

if TYPE_CHECKING:
    from repro.api.engine import Engine, PreparedQuery

__all__ = [
    "Severity",
    "Diagnostic",
    "Report",
    "CODES",
    "register_code",
    "diagnostic",
    "analyze_query",
    "analyze_access",
    "analyze_plan",
    "analyze_views",
    "advise_views",
    "advice_report",
    "analyze_prepared",
    "analyze_engine",
    "workload_report",
    "workload_advice",
    "certify_plan",
    "check_plan",
    "estimate_plan",
    "certify_selection",
    "check_selection",
    "CostStats",
    "classify_incremental",
    "binding_flow",
    "explain_uncontrolled",
    "advise_missing_rule",
    "fix_query",
    "ABSURD_BOUND",
    "BLOWUP_THRESHOLD",
    "ADVISED_RULE_BOUND",
]


def analyze_prepared(
    prepared: "PreparedQuery",
    parameters: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """Every applicable pass for one prepared query: the QRY passes, then
    -- when the query compiles under the engine's access schema (views
    included) -- the PLN passes on each plan, the INC
    incremental-maintainability classification, and a CST003 note for
    each plan the cost-based selector steered onto a view; when the
    query does not compile, the view advisor's proposals instead."""
    engine = prepared._engine
    parameters = tuple(parameters)
    report = analyze_query(
        prepared.query, engine.access, parameters, source=source
    )
    try:
        plans = prepared.plan(parameters)
    except NotControlledError:
        advices = advise_views(engine, [(prepared, parameters)], source=source)
        return report.extend(advice_report(advices))
    if not isinstance(plans, tuple):
        plans = (plans,)
    for plan in plans:
        report.extend(analyze_plan(plan, source=source))
    report.extend(classify_incremental(plans).report(source=source))
    # CST003: the selector picked a view-augmented plan although a base
    # plan exists -- worth a note (with the price comparison) because the
    # answers now depend on view freshness.
    for disjunct, plan in zip(disjuncts_of(prepared.query), plans):
        if not plan.view_relations:
            continue
        try:
            base = compile_plan(disjunct, engine.access, parameters)
        except NotControlledError:
            continue  # view-only: augmentation is the only plan
        stats = engine.cost_stats
        chosen = estimate_plan(plan, stats)
        rejected = estimate_plan(base, stats)
        views = ", ".join(sorted(plan.view_relations))
        report.add(
            diagnostic(
                "CST003",
                f"cost-based selection reads view(s) {views}: estimated "
                f"cost {chosen.total:g} beats the base plan's "
                f"{rejected.total:g}; answers now track view freshness",
                source=source,
            )
        )
    return report


def analyze_engine(
    engine: "Engine",
    queries: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """The whole-engine report: the ACC passes over the access schema,
    the VIW passes over the registered views (VIW001 only when
    ``queries`` describe the workload), and :func:`analyze_prepared` per
    query.

    Each element of ``queries`` is query text, a query object, a
    ``PreparedQuery``, a ``(query, parameters)`` pair or a ``(query,
    parameters, source)`` triple (the source labels that query's
    findings; ``source`` labels the rest).
    """
    report = analyze_access(engine.access, source=source)
    entries = list(_entries(engine, queries, source))
    report.extend(
        analyze_views(
            engine.views.definitions(),
            tuple(prepared.query for prepared, _, _ in entries),
            source=source,
        )
    )
    for prepared, params, entry_source in entries:
        report.extend(analyze_prepared(prepared, params, source=entry_source))
    return report


def workload_report(*, certify: bool | None = None) -> Report:
    """The repo's own gate: :func:`analyze_engine` over the Q1-Q5
    workload bundles (views V1/V2 registered, so Q4/Q5 compile), each
    bundle's findings labelled with its name.  CI runs this via ``python
    -m repro.analysis --workload --strict --certify`` and fails on any
    warning; with ``certify`` the engine additionally gates every
    compiled plan (base and view-augmented) on the
    :mod:`repro.analysis.certify` certifier."""
    from repro.workloads import register_workload_views

    engine, entries = _workload(certify=certify)
    register_workload_views(engine)
    return analyze_engine(engine, entries, source="social")


def workload_advice(
    *, persons: int = 400, seed: int = 0
) -> tuple[tuple[ViewAdvice, ...], Report]:
    """The advisor's run over the Q1-Q5 bundles: seed a social instance,
    refresh cost statistics from it, and advise with *no* workload views
    registered -- so Q4/Q5 are uncontrolled and yield multi-atom
    proposals, and any expensive controlled bundle yields cost cuts.
    Returns the ranked advice plus its VIW004/VIW005 report (the
    ``python -m repro.analysis --workload --advise`` payload)."""
    from repro.workloads import generate_social_network

    engine, entries = _workload(generate_social_network(persons, seed=seed))
    engine.refresh_cost_stats()
    advices = advise_views(engine, entries)
    return advices, advice_report(advices)


def _workload(data=None, **engine_kwargs) -> tuple["Engine", list[tuple]]:
    """A fresh engine over the Q1-Q5 bundles' schema and access rules,
    and the bundles as ``(query, parameters, name)`` entries."""
    from repro.workloads import RUNNING_QUERIES, VIEW_QUERIES

    bundles = RUNNING_QUERIES + VIEW_QUERIES
    entries = [(b.query, b.parameters, b.name) for b in bundles]
    return bundles[0].engine(data, **engine_kwargs), entries
